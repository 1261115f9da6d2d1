"""CPU reference times — the paper's full-socket MPI baseline.

"The reference CPU total time is the time to process the entire domain while
using sub-domain decomposition"; the kernel time excludes communication and
snapshot traffic. For RTM the kernel time "compromises both the forward and
backward propagation kernels", for modeling the forward kernel only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inventory import EXCHANGED_FIELDS
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.grid import Grid
from repro.mpisim.cluster import ClusterCostModel, ClusterSpec
from repro.propagators.workloads import workloads_for
from repro.utils.errors import ConfigurationError


@dataclass(frozen=True)
class ReferenceTimes:
    """CPU reference: total (with communication + snapshot traffic) and
    kernel-only seconds."""

    total: float
    kernel: float


def _halo_geometry(
    shape: tuple[int, ...], nranks: int, halo: int
) -> tuple[int, int]:
    """(bytes, messages) of one single-field halo swap across the
    decomposition."""
    grid = Grid(shape, spacing=10.0)
    decomp = CartesianDecomposition(grid, nranks, halo=halo)
    total_bytes = sum(decomp.face_bytes(r) for r in range(decomp.nranks))
    messages = sum(
        len(decomp.subdomain(r).halo.exchange_faces()) for r in range(decomp.nranks)
    )
    return total_bytes, messages


def cpu_modeling_time(
    cluster: ClusterSpec,
    physics: str,
    shape: tuple[int, ...],
    nt: int,
    snap_period: int,
    space_order: int = 8,
    snapshot_decimate: int = 4,
    pml_variant: str = "branchy",
) -> ReferenceTimes:
    """Full-socket MPI modeling reference."""
    if nt < 1 or snap_period < 1:
        raise ConfigurationError("nt and snap_period must be >= 1")
    model = ClusterCostModel(cluster)
    kw = {"variant": pml_variant} if physics == "isotropic" else {}
    workloads = workloads_for(physics, shape, space_order, **kw)
    step = model.step_time(workloads)
    nfields = EXCHANGED_FIELDS[(physics.lower(), len(shape))]
    halo_bytes, messages = _halo_geometry(shape, cluster.mpi_cores, space_order // 2)
    halo = model.halo_time(halo_bytes * nfields, messages * nfields)
    inject = model.injection_time(1)
    field_bytes = int(np.prod(shape)) * 4
    snap_bytes = field_bytes // (snapshot_decimate ** len(shape))
    nsnaps = nt // snap_period
    kernel = nt * step
    total = nt * (step + halo + inject) + nsnaps * model.snapshot_time(snap_bytes)
    return ReferenceTimes(total=total, kernel=kernel)


def cpu_rtm_time(
    cluster: ClusterSpec,
    physics: str,
    shape: tuple[int, ...],
    nt: int,
    snap_period: int,
    nreceivers: int = 128,
    space_order: int = 8,
    pml_variant: str = "branchy",
) -> ReferenceTimes:
    """Full-socket MPI RTM reference: forward + backward kernels, full-field
    snapshot spill in the forward phase and reload in the backward phase
    (the interconnect/storage-bound traffic that dominates on the old IBM
    cluster), imaging sweeps, receiver injection."""
    if nt < 1 or snap_period < 1:
        raise ConfigurationError("nt and snap_period must be >= 1")
    model = ClusterCostModel(cluster)
    kw = {"variant": pml_variant} if physics == "isotropic" else {}
    workloads = workloads_for(physics, shape, space_order, **kw)
    step = model.step_time(workloads)
    nfields = EXCHANGED_FIELDS[(physics.lower(), len(shape))]
    halo_bytes, messages = _halo_geometry(shape, cluster.mpi_cores, space_order // 2)
    halo = model.halo_time(halo_bytes * nfields, messages * nfields)
    inject = model.injection_time(1)
    rcv_inject = model.injection_time(nreceivers)
    field_bytes = int(np.prod(shape)) * 4
    nsnaps = nt // snap_period
    # imaging: one fused multiply-add sweep over S, R, I per snapshot
    imaging_sweep = (3 * field_bytes) / (
        cluster.mem_bandwidth_bytes * 0.8
    )
    # the backward CPU kernels may run degraded relative to the forward
    # ones (see ClusterSpec.rtm_backward_quality)
    bwd_step = step / cluster.backward_quality(physics.lower())
    kernel = nt * (step + bwd_step)
    total = (
        nt * (step + halo + inject)  # forward
        + nsnaps * model.snapshot_time(field_bytes)  # spill S
        + nt * (bwd_step + halo + rcv_inject)  # backward
        + nsnaps * (model.snapshot_time(field_bytes) + imaging_sweep)  # reload + image
    )
    return ReferenceTimes(total=total, kernel=kernel)
