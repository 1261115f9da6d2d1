import numpy as np
import pytest

from repro.model import constant_model
from repro.propagators import make_propagator, PHYSICS_NAMES
from repro.propagators.base import staggered_average, staggered_harmonic_average
from repro.utils.errors import ConfigurationError, StabilityError


class TestFactory:
    def test_all_physics_2d(self, small_model_2d):
        for phys in PHYSICS_NAMES:
            p = make_propagator(phys, small_model_2d, boundary_width=8)
            assert p.physics == phys

    def test_all_physics_3d(self, small_model_3d):
        for phys in PHYSICS_NAMES:
            p = make_propagator(phys, small_model_3d, boundary_width=8)
            assert p.grid.ndim == 3

    def test_unknown_physics(self, small_model_2d):
        with pytest.raises(ConfigurationError):
            make_propagator("anisotropic", small_model_2d)

    def test_elastic_dispatches_by_ndim(self, small_model_2d, small_model_3d):
        """One class; the model's grid picks the 2-D or 3-D system."""
        from repro.propagators import ElasticPropagator

        p2 = make_propagator("elastic", small_model_2d, boundary_width=8)
        p3 = make_propagator("elastic", small_model_3d, boundary_width=8)
        assert type(p2) is type(p3) is ElasticPropagator
        assert [n for n in p2.fields if n[0] == "v"] == ["vx", "vz"]
        assert [n for n in p3.fields if n[0] == "v"] == ["vx", "vy", "vz"]


class TestStabilityGuards:
    def test_unstable_dt_rejected_at_construction(self, small_model_2d):
        with pytest.raises(StabilityError):
            make_propagator("acoustic", small_model_2d, dt=1.0, boundary_width=8)

    def test_negative_dt_rejected(self, small_model_2d):
        with pytest.raises(ConfigurationError):
            make_propagator("acoustic", small_model_2d, dt=-0.001, boundary_width=8)

    def test_default_dt_is_stable(self, small_model_2d):
        p = make_propagator("acoustic", small_model_2d, boundary_width=8)
        src_idx = p.grid.center_index()
        for n in range(50):
            p.step([(src_idx, 1.0)])
        assert np.all(np.isfinite(p.snapshot_field()))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_health_check_catches_blowup(self, small_model_2d):
        p = make_propagator("acoustic", small_model_2d, boundary_width=8,
                            check_health_every=10)
        # sabotage: force a non-finite value into the wavefield
        p.p[10, 10] = np.float32(np.inf)
        with pytest.raises(StabilityError):
            for _ in range(11):
                p.step()

    def test_boundary_thinner_than_stencil_rejected(self, small_model_2d):
        with pytest.raises(ConfigurationError):
            make_propagator("acoustic", small_model_2d, boundary_width=2)

    def test_odd_space_order_rejected(self, small_model_2d):
        with pytest.raises(ConfigurationError):
            make_propagator("acoustic", small_model_2d, space_order=7, boundary_width=8)

    @pytest.mark.parametrize("physics,order", [("isotropic", 14), ("acoustic", 18)])
    def test_order_the_coefficient_solve_cannot_represent_rejected(
        self, small_model_2d, physics, order
    ):
        with pytest.raises(ConfigurationError, match=f"order {order} "):
            make_propagator(physics, small_model_2d, space_order=order, boundary_width=16)


class TestFieldManagement:
    def test_reset_zeroes_fields(self, small_model_2d):
        p = make_propagator("acoustic", small_model_2d, boundary_width=8)
        p.step([(p.grid.center_index(), 1.0)])
        assert float(np.abs(p.p).max()) > 0
        p.reset()
        assert float(np.abs(p.p).max()) == 0.0
        assert p.state.step == 0

    def test_reset_replays_a_fresh_run(self, small_model_2d):
        """reset zeroes the C-PML memory variables too: a reset propagator
        replays a fresh one bit for bit."""
        a, b = (
            make_propagator("acoustic", small_model_2d, boundary_width=8)
            for _ in range(2)
        )
        src = [(a.grid.center_index(), 1.0)]
        for _ in range(40):
            a.step(src)
        a.reset()
        for _ in range(20):
            a.step(src)
            b.step(src)
        np.testing.assert_array_equal(a.p.view(np.uint32), b.p.view(np.uint32))

    def test_wavefield_bytes(self, small_model_2d):
        p = make_propagator("elastic", small_model_2d, boundary_width=8)
        assert p.wavefield_bytes() == 5 * small_model_2d.grid.npoints * 4

    def test_fields_named(self, small_model_2d):
        p = make_propagator("acoustic", small_model_2d, boundary_width=8)
        assert set(p.fields) == {"p", "qz", "qx"}
        p3 = make_propagator("acoustic", constant_model((24, 24, 24)), boundary_width=8)
        assert set(p3.fields) == {"p", "qz", "qx", "qy"}

    def test_run_negative_nt_rejected(self, small_model_2d):
        p = make_propagator("acoustic", small_model_2d, boundary_width=8)
        with pytest.raises(ConfigurationError):
            p.run(-1)

    def test_on_step_hook(self, small_model_2d):
        p = make_propagator("acoustic", small_model_2d, boundary_width=8)
        seen = []
        p.run(5, on_step=lambda n, prop: seen.append(n))
        assert seen == [0, 1, 2, 3, 4]


class TestWorkloadConsistency:
    """The propagator's kernel metadata must match the standalone
    workload functions the benchmarks use."""

    @pytest.mark.parametrize("physics", PHYSICS_NAMES)
    def test_2d_matches_module(self, physics, small_model_2d):
        from repro.propagators.workloads import workloads_for

        p = make_propagator(physics, small_model_2d, boundary_width=8)
        kw = {"variant": "branchy", "pml_width": 8} if physics == "isotropic" else {}
        expected = workloads_for(physics, small_model_2d.grid.shape, 8, **kw)
        got = p.kernel_workloads()
        assert [w.name for w in got] == [w.name for w in expected]
        assert [w.points for w in got] == [w.points for w in expected]

    def test_totals_positive(self, small_model_2d):
        for physics in PHYSICS_NAMES:
            p = make_propagator(physics, small_model_2d, boundary_width=8)
            assert p.total_flops_per_step() > 0
            assert p.total_bytes_per_step() > 0


class TestStaggeredAveraging:
    def test_arithmetic_average(self):
        a = np.array([[1.0, 3.0, 5.0]] * 2, dtype=np.float32)
        out = staggered_average(a, 1)
        np.testing.assert_allclose(out[:, 0], 2.0)
        np.testing.assert_allclose(out[:, 1], 4.0)
        np.testing.assert_allclose(out[:, 2], 5.0)  # edge replicated

    def test_constant_invariant(self):
        a = np.full((5, 5), 7.0, dtype=np.float32)
        np.testing.assert_allclose(staggered_average(a, 0), 7.0)

    def test_harmonic_average_zero_dominates(self):
        """A fluid (mu=0) neighbour must zero the averaged shear modulus."""
        mu = np.full((4, 4), 10.0, dtype=np.float32)
        mu[1, 1] = 0.0
        out = staggered_harmonic_average(mu, (0, 1))
        assert float(out[0, 0]) == 0.0  # includes (1,1) in its 4-cell stencil
        assert float(out[2, 2]) > 0.0

    def test_harmonic_constant_invariant(self):
        mu = np.full((6, 6), 4.0, dtype=np.float32)
        out = staggered_harmonic_average(mu, (0, 1))
        np.testing.assert_allclose(out[:-1, :-1], 4.0, rtol=1e-5)

    def test_harmonic_below_arithmetic(self):
        rng = np.random.default_rng(3)
        mu = rng.uniform(1.0, 10.0, (8, 8)).astype(np.float32)
        harm = staggered_harmonic_average(mu, (0,))
        arit = staggered_average(mu, 0)
        assert np.all(harm[:-1] <= arit[:-1] + 1e-4)
