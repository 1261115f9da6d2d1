"""Fault vocabulary: specs, parsing, seeded plans."""

import pytest

from repro.resilience.faults import (
    ALL_KINDS,
    CATEGORY,
    DEVICE_KINDS,
    MPI_KINDS,
    SHOT_POISON,
    FaultPlan,
    FaultSpec,
    is_permanent,
    parse_fault_spec,
    parse_faults,
)
from repro.utils.errors import ConfigurationError


class TestSpecs:
    def test_every_kind_categorised(self):
        for kind in DEVICE_KINDS + MPI_KINDS:
            assert CATEGORY[kind] in ("transfer", "launch", "alloc", "message")

    def test_every_accepted_kind_but_shot_poison_is_injected(self):
        # a kind with no category parses but never fires in the injector;
        # shot-poison is injected by the survey service instead
        assert set(ALL_KINDS) - set(CATEGORY) == {SHOT_POISON}

    def test_permanent(self):
        assert is_permanent("pcie-permanent")
        assert is_permanent("rank-dead")
        assert not is_permanent("pcie-transient")
        assert not is_permanent("oom")

    def test_spec_string_roundtrip(self):
        for spec in (
            FaultSpec("ecc"),
            FaultSpec("pcie-transient", op_index=7, count=3),
            FaultSpec("mpi-drop", op_index=2, rank=1),
            FaultSpec("kernel-launch", op_index=4, count=2, rank=0),
        ):
            assert parse_fault_spec(spec.spec_string()) == spec

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            parse_fault_spec("meteor-strike@3")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_fault_spec("pcie-transient@@")

    def test_parse_faults_list(self):
        specs = parse_faults("ecc@3, oom, mpi-dup@2:1")
        assert [s.kind for s in specs] == ["ecc", "oom", "mpi-dup"]
        assert specs[2].rank == 1


class TestSeededPlan:
    ENVELOPE = {"transfer": 40, "launch": 100, "alloc": 12, "message": 8}

    def test_deterministic(self):
        a = FaultPlan.seeded(5, DEVICE_KINDS, self.ENVELOPE)
        b = FaultPlan.seeded(5, DEVICE_KINDS, self.ENVELOPE)
        assert a == b

    def test_seed_changes_plan(self):
        a = FaultPlan.seeded(5, DEVICE_KINDS, self.ENVELOPE)
        b = FaultPlan.seeded(6, DEVICE_KINDS, self.ENVELOPE)
        assert a != b

    def test_one_spec_per_kind_inside_envelope(self):
        plan = FaultPlan.seeded(1, ALL_KINDS, self.ENVELOPE, ranks=4)
        assert [s.kind for s in plan.specs] == list(ALL_KINDS)
        for spec in plan.specs:
            cat = CATEGORY.get(spec.kind)
            if cat is not None:
                assert 1 <= spec.op_index <= self.ENVELOPE[cat]
                assert spec.rank in range(4)

    def test_single_rank_leaves_rank_unset(self):
        plan = FaultPlan.seeded(1, ("ecc",), self.ENVELOPE, ranks=1)
        assert plan.specs[0].rank is None

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(specs=(FaultSpec("ecc"),))


class TestAliases:
    def test_mpi_rank_dead_alias_normalises(self):
        from repro.resilience.faults import RANK_DEAD

        (spec,) = parse_faults("mpi-rank-dead@x1")
        assert spec.kind == RANK_DEAD
        assert spec.count == 1
        assert spec.rank is None

    def test_poison_shot_alias_carries_shot_index(self):
        from repro.resilience.faults import SHOT_POISON

        spec = parse_fault_spec("poison-shot:2")
        assert spec.kind == SHOT_POISON
        assert spec.rank == 2

    def test_count_without_op_index(self):
        spec = parse_fault_spec("dead-rank@x1")
        assert spec.op_index == 1 and spec.count == 1
