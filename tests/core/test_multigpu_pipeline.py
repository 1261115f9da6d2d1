"""The executed per-rank multi-GPU path (MultiGpuPipeline).

The regression of note: the per-rank directive stream must record the
host-side mutation of the landed ghost slab (``note_host_write``) — the
sanitizer's coherence ledger is blind to halo traffic without it.
"""

import pytest

from repro.core.multigpu import ExchangeProtocol, MultiGpuPipeline
from repro.sanitize import SanitizeSession
from repro.utils.errors import ConfigurationError


def build(ngpus=2, session=None, **kwargs):
    return MultiGpuPipeline(
        "isotropic", (96, 96), ngpus, space_order=8, boundary_width=8,
        nreceivers=8, session=session, **kwargs
    )


def events(session, rank, kind):
    return [e for e in session.programs[rank].events if e.kind == kind]


class TestPerRankRecording:
    def test_ghost_landing_is_recorded_as_host_write(self):
        """S1 regression: the exchange notes the landed ghost slab as a
        host write on every rank's stream."""
        session = SanitizeSession(nranks=2, name="t")
        pipe = build(ngpus=2, session=session)
        pipe.run(nt=4, snap_period=2)
        for rank in (0, 1):
            hw = events(session, rank, "host_write")
            assert hw, f"rank {rank} recorded no host_write events"
            names = {n for e in hw for n in e.writes}
            assert pipe.primary in names

    def test_send_faces_are_recorded_as_host_reads(self):
        session = SanitizeSession(nranks=2, name="t")
        pipe = build(ngpus=2, session=session)
        pipe.run(nt=4, snap_period=2)
        for rank in (0, 1):
            assert events(session, rank, "host_read")

    def test_halo_messages_become_send_recv_events(self):
        session = SanitizeSession(nranks=2, name="t")
        pipe = build(ngpus=2, session=session)
        pipe.run(nt=2, snap_period=2)
        assert events(session, 0, "send") and events(session, 0, "recv")

    def test_interior_rank_exchanges_two_faces(self):
        session = SanitizeSession(nranks=3, name="t")
        pipe = build(ngpus=3, session=session)
        pipe.run(nt=1, snap_period=2)  # exactly one exchange
        # rank 1 has both a lo and a hi neighbour: two ghost slabs land
        assert len(events(session, 1, "host_write")) == 2
        assert len(events(session, 0, "host_write")) == 1

    def test_rtm_exchanges_backward_wavefield_too(self):
        session = SanitizeSession(nranks=2, name="t")
        pipe = build(ngpus=2, session=session)
        pipe.run(nt=4, snap_period=2, mode="rtm")
        hw_names = {
            n for e in events(session, 0, "host_write") for n in e.writes
        }
        assert pipe.primary in hw_names
        assert any(n.startswith("bwd:") for n in hw_names)


class TestPipelineBehavior:
    def test_returns_per_rank_timings(self):
        pipe = build(ngpus=3)
        times = pipe.run(nt=4, snap_period=2)
        assert len(times) == 3
        assert all(t.total > 0 for t in times)

    def test_single_rank_has_no_exchange_traffic(self):
        session = SanitizeSession(nranks=1, name="t")
        pipe = build(ngpus=1, session=session)
        pipe.run(nt=2, snap_period=2)
        assert not events(session, 0, "host_write")
        assert session.result().clean()

    def test_traced_run_merges_every_rank_under_its_prefix(self):
        from repro.trace import Tracer

        tracer = Tracer()
        pipe = build(ngpus=2, tracer=tracer)
        rank_tracers = [rc.pipe.tracer for rc in pipe.ranks]
        assert len({id(t) for t in rank_tracers + [tracer]}) == 3
        pipe.run(nt=4, snap_period=2)
        merged = [e for e in tracer.events if e.process.startswith("rank")]
        assert len(merged) == sum(len(t.events) for t in rank_tracers)
        assert {e.process.split(":")[0] for e in merged} == {"rank0", "rank1"}
        # halo spans stay unprefixed, on rank 0's simulated clock
        halo = [e for e in tracer.events if e.cat == "halo"]
        assert halo and all(e.process == "mpi" for e in halo)
        assert max(e.end for e in halo) <= pipe.ranks[0].pipe.rt.device.clock.now

    def test_rejects_zero_gpus(self):
        with pytest.raises(ConfigurationError):
            build(ngpus=0)

    def test_protocol_defaults_are_the_correct_protocol(self):
        p = ExchangeProtocol()
        assert p.update_host_before_send and p.update_ghost_device
        assert not p.async_updates and p.sync_before_send
