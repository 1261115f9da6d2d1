"""Unit tests for the shadow coherence state (interval algebra)."""

from hypothesis import given, settings, strategies as st

from repro.sanitize.shadow import (
    UNKNOWN_EXTENT,
    ShadowArray,
    add_interval,
    describe,
    intersect,
    normalize,
    subtract_interval,
    total_bytes,
)


class TestIntervalAlgebra:
    def test_normalize_coalesces_touching(self):
        assert normalize([(0, 4), (4, 8)]) == [(0, 8)]

    def test_normalize_coalesces_overlapping(self):
        assert normalize([(0, 6), (4, 8), (10, 12)]) == [(0, 8), (10, 12)]

    def test_normalize_drops_empty(self):
        assert normalize([(4, 4), (8, 6)]) == []

    def test_add_interval(self):
        assert add_interval([(0, 4)], 8, 12) == [(0, 4), (8, 12)]
        assert add_interval([(0, 4)], 2, 8) == [(0, 8)]

    def test_subtract_interior_splits(self):
        assert subtract_interval([(0, 12)], 4, 8) == [(0, 4), (8, 12)]

    def test_subtract_edges(self):
        assert subtract_interval([(0, 12)], 0, 4) == [(4, 12)]
        assert subtract_interval([(0, 12)], 8, 12) == [(0, 8)]
        assert subtract_interval([(0, 12)], 0, 12) == []

    def test_subtract_disjoint_is_noop(self):
        assert subtract_interval([(0, 4)], 8, 12) == [(0, 4)]

    def test_intersect(self):
        assert intersect([(0, 4), (8, 12)], 2, 10) == [(2, 4), (8, 10)]
        assert intersect([(0, 4)], 4, 8) == []

    def test_total_bytes(self):
        assert total_bytes([(0, 4), (8, 12)]) == 8

    def test_describe(self):
        assert describe([(0, 4)]) == "[0, 4)"
        assert describe([]) == "(empty)"
        assert "more" in describe([(0, 1), (2, 3), (4, 5), (6, 7)], limit=2)


class TestShadowArray:
    def test_host_write_makes_device_stale(self):
        s = ShadowArray("u", extent=1024)
        s.host_write(0, 256)
        assert s.device_stale() == [(0, 256)]
        assert s.host_stale() == []

    def test_update_device_clears_host_dirt(self):
        s = ShadowArray("u", extent=1024)
        s.host_write(0, 256)
        s.update_device(0, 256)
        assert s.device_stale() == []
        assert s.clean()

    def test_partial_update_leaves_remainder(self):
        s = ShadowArray("u", extent=1024)
        s.host_write(0, 512)
        s.update_device(0, 128)
        assert s.device_stale() == [(128, 512)]

    def test_device_write_makes_host_stale(self):
        s = ShadowArray("u", extent=1024)
        s.device_write()  # full extent
        assert s.host_stale(0, 64) == [(0, 64)]
        s.update_host()
        assert s.host_stale() == []

    def test_update_device_overwrites_device_dirt_in_range(self):
        """The transfer wins in the overwritten range: the device copy there
        now reflects the host, whatever the kernel wrote before."""
        s = ShadowArray("u", extent=1024)
        s.device_write(0, 1024)
        s.update_device(0, 256)
        assert s.host_stale() == [(256, 1024)]

    def test_range_is_clamped_to_extent(self):
        s = ShadowArray("u", extent=100)
        s.host_write(50, 500)
        assert s.device_stale() == [(50, 100)]

    def test_unknown_extent_full_operations(self):
        s = ShadowArray("u")  # UNKNOWN_EXTENT
        assert s.extent == UNKNOWN_EXTENT
        s.host_write(0, 4096)
        s.update_device()  # sizeless update covers everything
        assert s.clean()


#: a small extent, so that generated ranges often cover, touch and overrun
#: each other and the array end
EXTENT = 24
OPS = ("host_write", "device_write", "update_device", "update_host")


def _bytes(intervals):
    return {b for lo, hi in intervals for b in range(lo, hi)}


def _is_normalised(intervals):
    if any(hi <= lo for lo, hi in intervals):
        return False
    return all(b < c for (_, b), (c, _) in zip(intervals, intervals[1:]))


class TestShadowAgainstByteSets:
    """Every operation sequence leaves the stored interval lists equal to
    a byte-set model and already normalised — the invariant that lets
    ``device_write`` return early when one interval covers its range."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from(OPS),
        st.none() | st.integers(0, 2 * EXTENT),  # None: the default offset
        st.none() | st.integers(0, 2 * EXTENT),
    ), max_size=30))
    def test_matches_reference_sets(self, ops):
        s = ShadowArray("u", extent=EXTENT)
        host: set[int] = set()
        dev: set[int] = set()
        for op, offset, nbytes in ops:
            lo = offset or 0
            hi = EXTENT if nbytes is None else lo + nbytes
            span = set(range(lo, min(hi, EXTENT)))
            if op == "host_write":
                host |= span
            elif op == "device_write":
                dev |= span
            else:
                host -= span
                dev -= span
            kwargs = {"nbytes": nbytes}
            if offset is not None:
                kwargs["offset"] = offset
            getattr(s, op)(**kwargs)
            assert _bytes(s.host_dirty) == host
            assert _bytes(s.dev_dirty) == dev
            assert _is_normalised(s.host_dirty)
            assert _is_normalised(s.dev_dirty)
