import numpy as np
import pytest

from repro.model import constant_model
from repro.propagators import ElasticPropagator
from repro.source import PointSource, ricker
from repro.utils.errors import ConfigurationError

VP, VS_RATIO, H, F = 2000.0, 0.5, 10.0, 12.0


class TestConstruction:
    def test_model_without_vs_rejected(self):
        m = constant_model((32, 32))
        with pytest.raises(ConfigurationError):
            ElasticPropagator(m, boundary_width=8)

    def test_2d_field_set(self, small_model_2d):
        p = ElasticPropagator(small_model_2d, boundary_width=8)
        assert set(p.fields) == {"vx", "vz", "sxx", "szz", "sxz"}

    def test_3d_field_set(self, small_model_3d):
        p = ElasticPropagator(small_model_3d, boundary_width=8)
        assert set(p.fields) == {
            "vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz",
        }

    def test_3d_workload_count(self, small_model_3d):
        """The paper's elastic 3-D step: 3 velocity + 1 diagonal-stress +
        3 shear-stress kernels (the async-study kernel set)."""
        p = ElasticPropagator(small_model_3d, boundary_width=8)
        assert len(p.kernel_workloads()) == 7


class TestWaveTypes:
    def test_explosive_source_generates_p_and_s_energy(self):
        m = constant_model((161, 161), spacing=H, vp=VP, vs_ratio=VS_RATIO)
        p = ElasticPropagator(m, boundary_width=16)
        w = ricker(130, p.dt, F)
        p.run(120, source=PointSource.at_center(m.grid, w))
        assert float(np.abs(p.fields["vx"]).max()) > 0
        assert float(np.abs(p.fields["vz"]).max()) > 0
        assert float(np.abs(p.fields["sxz"]).max()) > 0

    def test_shear_speed_bounds_energy(self):
        """No energy beyond the P-front, and the S/P structure sits inside:
        the radial profile must vanish outside vp * t."""
        m = constant_model((161, 161), spacing=H, vp=VP, vs_ratio=VS_RATIO)
        p = ElasticPropagator(m, boundary_width=16)
        nsteps = 100
        w = ricker(nsteps + 5, p.dt, F)
        p.run(nsteps, source=PointSource.at_center(m.grid, w))
        u = np.abs(p.snapshot_field())
        r_p = VP * nsteps * p.dt / H  # front radius in cells
        line = u[80, 80:]
        beyond = line[int(r_p) + 6:]
        assert float(beyond.max()) < 1e-3 * float(u.max())

    def test_fluid_region_carries_no_shear(self):
        """vs = 0 everywhere: sxz must stay (numerically) zero."""
        m = constant_model((101, 101), spacing=H, vp=VP)
        m.vs = np.zeros_like(m.vp)
        p = ElasticPropagator(m, boundary_width=12)
        w = ricker(70, p.dt, F)
        p.run(60, source=PointSource.at_center(m.grid, w))
        peak = float(np.abs(p.snapshot_field()).max())
        assert float(np.abs(p.fields["sxz"]).max()) < 1e-6 * max(peak, 1e-30)

    def test_diagonal_symmetry_3d(self):
        """Isotropic medium + centre source: sxx and syy are related by the
        x<->y transpose."""
        m = constant_model((49, 49, 49), spacing=H, vp=VP, vs_ratio=VS_RATIO)
        p = ElasticPropagator(m, boundary_width=10)
        w = ricker(40, p.dt, F)
        p.run(35, source=PointSource.at_center(m.grid, w))
        sxx = p.fields["sxx"]
        syy_t = np.swapaxes(p.fields["syy"], 1, 2)
        peak = float(np.abs(sxx).max())
        np.testing.assert_allclose(sxx, syy_t, atol=2e-5 * max(peak, 1e-30))


class TestEnergyBehaviour:
    def test_energy_grows_then_absorbed(self):
        m = constant_model((121, 121), spacing=H, vp=VP, vs_ratio=VS_RATIO)
        p = ElasticPropagator(m, boundary_width=16)
        nsteps = 90
        w = ricker(nsteps + 300, p.dt, F)
        p.run(nsteps, source=PointSource.at_center(m.grid, w))
        mid = float(np.abs(p.snapshot_field()).max())
        p.run(700)
        late = float(np.abs(p.snapshot_field()).max())
        assert late < 0.12 * mid
