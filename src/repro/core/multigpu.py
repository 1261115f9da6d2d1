"""Multi-GPU domain decomposition — the paper's stated path forward.

"Path forward, we believe that exploiting multiple GPUs will provide
powerful insights. Consequently, overlapping MPI communications with GPU
computations could improve performance, especially when larger grid
dimensions are used." (Section 7.)

The model follows the paper's own single-GPU machinery: the domain is
decomposed into slabs along the depth axis (one per card); each step every
card runs its slab's kernels and exchanges stencil-radius ghost planes with
its neighbours over PCIe through the host ("Only the ghost nodes need to be
exchanged between host and GPU at each time step when partitioning the
domain among several GPUs"). Ghost faces are non-contiguous in general; the
``transpose_pack`` option models the paper's suggested on-GPU repacking
("One workaround is rearranging data of these ghost nodes by performing a
transposition on GPU"), collapsing the per-plane DMA chunks into one.

With ``overlap=True``, boundary-slab kernels run first and the ghost
exchange proceeds concurrently with the interior kernels (the
MPI/compute-overlap idea), so the per-step cost is
``max(kernels, boundary + comm)`` instead of their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import GpuTimes, GPUOptions
from repro.core.inventory import EXCHANGED_FIELDS, device_resident_bytes
from repro.core.pipeline import OffloadPipeline
from repro.core.platform import CRAY_K40, Platform
from repro.core.schedule import Schedule
from repro.core.shot import build_pipeline
from repro.gpusim.kernelmodel import estimate_kernel_time
from repro.gpusim.memory import DeviceMemory
from repro.grid.decomposition import CartesianDecomposition
from repro.grid.grid import Grid
from repro.mpisim.comm import SimMPI
from repro.mpisim.halo import HaloExchanger
from repro.observe import runlog
from repro.propagators.workloads import workloads_for
from repro.trace.tracer import Tracer
from repro.utils.errors import ConfigurationError


@dataclass
class MultiGpuTimes:
    """Modelled multi-GPU modeling run."""

    ngpus: int
    total: float = 0.0
    kernel: float = 0.0
    comm: float = 0.0
    snapshots: float = 0.0
    setup: float = 0.0
    success: bool = True
    failure: str | None = None
    per_device_bytes: list[int] = field(default_factory=list)

    def speedup_vs(self, single: "MultiGpuTimes") -> float:
        """Strong-scaling speedup against a single-card run."""
        if not (self.success and single.success) or self.total <= 0:
            raise ConfigurationError("speedup needs two successful runs")
        return single.total / self.total

    def efficiency_vs(self, single: "MultiGpuTimes") -> float:
        return self.speedup_vs(single) / self.ngpus


def _slab_shapes(shape: tuple[int, ...], ngpus: int) -> list[tuple[int, ...]]:
    """Block-distribute the depth axis across cards."""
    n0 = shape[0]
    base, extra = divmod(n0, ngpus)
    if base < 8:
        raise ConfigurationError(
            f"{n0} depth planes over {ngpus} GPUs leaves slabs too thin"
        )
    out = []
    for g in range(ngpus):
        nz = base + (1 if g < extra else 0)
        out.append((nz,) + tuple(shape[1:]))
    return out


def estimate_multi_gpu_modeling(
    physics: str,
    shape: tuple[int, ...],
    nt: int,
    snap_period: int,
    ngpus: int,
    platform: Platform = CRAY_K40,
    options: GPUOptions | None = None,
    overlap: bool = True,
    transpose_pack: bool = True,
    space_order: int = 8,
    boundary_width: int = 16,
    snapshot_decimate: int = 4,
) -> MultiGpuTimes:
    """Strong-scaling estimate of modeling across ``ngpus`` identical cards.

    All cards are assumed to step in lockstep (the slowest slab binds each
    step); neighbouring exchanges use each pair's own PCIe links
    concurrently, so one step pays a single D2H + H2D round trip of the
    widest face set.
    """
    if ngpus < 1:
        raise ConfigurationError("ngpus must be >= 1")
    if nt < 1 or snap_period < 1:
        raise ConfigurationError("nt and snap_period must be >= 1")
    options = options if options is not None else GPUOptions()
    physics = physics.lower()
    ndim = len(shape)
    try:
        slabs = _slab_shapes(shape, ngpus)
    except ConfigurationError:
        return MultiGpuTimes(ngpus=ngpus, success=False, failure="too-thin")
    toolkit = options.compiler.default_toolkit
    flags = options.flags
    pinned = flags.pin
    result = MultiGpuTimes(ngpus=ngpus)

    # --- capacity check + per-slab kernel time -------------------------
    kernel_times = []
    boundary_times = []
    for slab in slabs:
        need = device_resident_bytes(physics, slab, boundary_width)
        result.per_device_bytes.append(need)
        mem = DeviceMemory(platform.gpu.memory_bytes)
        if need > mem.usable:
            return MultiGpuTimes(
                ngpus=ngpus, success=False, failure="oom",
                per_device_bytes=result.per_device_bytes,
            )
        kw = {}
        if physics == "isotropic":
            kw = {"variant": "restructured", "pml_width": boundary_width}
        workloads = workloads_for(physics, slab, space_order, **kw)
        t_k = 0.0
        for w in workloads:
            launch = options.compiler.lower(
                options.compiler.preferred_construct(), w,
                options.compiler.preferred_schedule(), flags,
            )
            t_k += estimate_kernel_time(platform.gpu, w, launch, toolkit).seconds
            t_k += platform.gpu.launch_overhead_s
        kernel_times.append(t_k)
        # boundary sub-slabs (stencil-radius planes next to each face) must
        # complete before their halos can ship
        radius = space_order // 2
        frac = min(1.0, 2.0 * radius / slab[0])
        boundary_times.append(t_k * frac)

    t_kernel_step = max(kernel_times)

    # --- per-step ghost exchange ----------------------------------------
    radius = space_order // 2
    face_points = int(np.prod(shape[1:])) * radius
    nfields = EXCHANGED_FIELDS[(physics, ndim)]
    face_bytes = face_points * 4 * nfields
    if ngpus == 1:
        t_comm_step = 0.0
    else:
        # ghost planes are contiguous along the slab axis here (depth-major
        # C order), but each *field* ships separately; without the on-GPU
        # packing transposition every field pays its own DMA setup chain
        chunks = 1 if transpose_pack else nfields * radius
        d2h = platform.pcie.transfer_time(face_bytes, pinned=pinned, chunks=chunks)
        h2d = platform.pcie.transfer_time(face_bytes, pinned=pinned, chunks=chunks)
        # both directions per interface; pairs run on their own links
        t_comm_step = 2.0 * (d2h + h2d)

    if overlap and ngpus > 1:
        t_step = max(t_kernel_step, max(boundary_times) + t_comm_step)
    else:
        t_step = t_kernel_step + t_comm_step

    # --- snapshots: every card offloads its slab concurrently -----------
    snap_bytes = max(
        int(np.prod(s)) * 4 // (snapshot_decimate**ndim) for s in slabs
    )
    t_snap = platform.pcie.transfer_time(snap_bytes, pinned=pinned)
    nsnaps = nt // snap_period

    # --- initial copyin of each card's inventory (concurrent) -----------
    t_setup = platform.pcie.transfer_time(
        max(result.per_device_bytes), pinned=pinned
    )

    result.kernel = nt * t_kernel_step
    result.comm = nt * t_comm_step
    result.snapshots = nsnaps * t_snap
    result.setup = t_setup
    result.total = nt * t_step + result.snapshots + result.setup
    return result


def scaling_study(
    physics: str,
    shape: tuple[int, ...],
    nt: int,
    snap_period: int,
    gpu_counts: tuple[int, ...] = (1, 2, 4, 8),
    platform: Platform = CRAY_K40,
    options: GPUOptions | None = None,
    overlap: bool = True,
) -> dict[int, MultiGpuTimes]:
    """Run the estimate across a set of card counts."""
    return {
        n: estimate_multi_gpu_modeling(
            physics, shape, nt, snap_period, n,
            platform=platform, options=options, overlap=overlap,
        )
        for n in gpu_counts
    }


# ---------------------------------------------------------------------------
# executed per-rank path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExchangeProtocol:
    """How the per-step ghost exchange talks to each card.

    The defaults are the correct protocol (pull the send faces, exchange,
    push the ghost slabs back). Each knob doubles as a fault injector for
    the sanitizer's fault-seeded tests:

    * ``update_host_before_send=False`` — the MPI send packs a host buffer
      no ``update host`` refreshed (``stale-host-read``);
    * ``update_ghost_device=False`` — the received ghost slab never reaches
      the card (``stale-device-read`` on the next kernel);
    * ``async_updates=True`` with ``sync_before_send=False`` — the send
      races the asynchronous ``update host`` still filling the face
      (``halo-send-before-sync``); with ``sync_before_send=True`` this is
      the legitimate overlap protocol (a ``wait(queue)`` orders the pair).
    """

    update_host_before_send: bool = True
    update_ghost_device: bool = True
    async_updates: bool = False
    sync_before_send: bool = True
    queue: int = 1


@dataclass
class _RankContext:
    """One card's slice of the run."""

    rank: int
    sub: object  # Subdomain
    pipe: OffloadPipeline
    host_field: np.ndarray
    local_shape: tuple[int, ...]
    plane_bytes: int


class MultiGpuPipeline:
    """Executed (per-rank) multi-GPU offload: one :class:`OffloadPipeline`
    per card over a slab decomposition, ghost planes exchanged through the
    host via :mod:`repro.mpisim` each step.

    Unlike :func:`estimate_multi_gpu_modeling` (a closed-form timing
    model), this drives real per-rank directive streams — every ``update``
    of a ghost face, every ``note_host_write`` of a landed slab, every MPI
    message — so the analyzer and the sanitizer see the actual schedule.
    Pass a :class:`~repro.sanitize.session.SanitizeSession` as ``session``
    to check it live. Pass a :class:`~repro.trace.tracer.Tracer` as
    ``tracer`` to trace it: each rank records on a fresh tracer of its
    own, the halo spans go on ``tracer`` on rank 0's clock, and
    :meth:`run` absorbs every rank's tracer into ``tracer`` under
    ``rank<r>:``-prefixed processes.
    """

    #: exchanged halo field key (the exchanger's name space, not the
    #: present table's — ``session.map_field`` bridges the two)
    FIELD_KEY = "u"

    def __init__(
        self,
        physics: str,
        shape: tuple[int, ...],
        ngpus: int,
        platform: Platform = CRAY_K40,
        options: GPUOptions | None = None,
        space_order: int = 8,
        boundary_width: int = 16,
        nreceivers: int = 16,
        halo_width: int | None = None,
        session: object | None = None,
        protocol: ExchangeProtocol | None = None,
        tracer: Tracer | None = None,
        injector: object | None = None,
    ):
        if ngpus < 1:
            raise ConfigurationError("ngpus must be >= 1")
        self.physics = physics.lower()
        self.shape = tuple(int(n) for n in shape)
        self.ndim = len(self.shape)
        self.ngpus = int(ngpus)
        self.options = options if options is not None else GPUOptions()
        self.session = session
        self.protocol = protocol if protocol is not None else ExchangeProtocol()
        self.radius = space_order // 2
        halo = self.radius if halo_width is None else int(halo_width)
        if session is not None:
            session.declare_stencil(self.radius)
        dims = (self.ngpus,) + (1,) * (self.ndim - 1)
        self.decomp = CartesianDecomposition(Grid(self.shape), dims, halo=halo)
        self.mpi = SimMPI(self.ngpus, observer=session)
        if injector is not None:
            injector.attach_mpi(self.mpi)
        self.tracer = tracer
        self.ranks: list[_RankContext] = []
        for r in range(self.ngpus):
            sub = self.decomp.subdomain(r)
            local_shape = sub.local_grid.shape
            pipe = build_pipeline(
                self.options, platform, self.physics, local_shape, nreceivers,
                space_order, boundary_width,
                tracer=Tracer() if tracer is not None else None,
            )
            if session is not None:
                pipe.rt.attach_recorder(session.recorder(r))
            if injector is not None:
                pipe.rt.attach_injector(injector, rank=r)
            self.ranks.append(_RankContext(
                rank=r,
                sub=sub,
                pipe=pipe,
                host_field=np.zeros(local_shape, dtype=np.float32),
                local_shape=local_shape,
                plane_bytes=int(np.prod(local_shape[1:])) * 4,
            ))
        self.primary = self.ranks[0].pipe.primary
        # the exchanger's halo spans share rank 0's simulated timeline, so a
        # merged Perfetto export lines kernels and messages up on one axis
        self.exchanger = HaloExchanger(
            self.decomp,
            self.mpi,
            tracer=tracer,
            clock=self.ranks[0].pipe.rt.device.clock if tracer is not None else None,
            sanitizer=session,
        )

    # ------------------------------------------------------------------
    def makespan_s(self) -> float:
        """The node's simulated makespan so far: the slowest rank's device
        clock. The serve layer charges each node's shot window with this
        (recovery waits are on the same clocks, so the figure includes
        them); it survives as a snapshot when the pipeline is torn down
        for a re-decomposition."""
        return max(rc.pipe.rt.device.clock.now for rc in self.ranks)

    def _backward_name(self) -> str:
        return "bwd:" + self.primary.split(":", 1)[1]

    def exchange(self, device_name: str | None = None) -> None:
        """One ghost swap of ``device_name`` (default: the primary
        wavefield) across all ranks, through the host.

        Per face: ``update host`` of the owned planes feeding the send
        (synchronous, or on the protocol's async queue), the MPI exchange,
        then ``note_host_write`` + ``update device`` of the landed ghost
        slab — so each card's directive stream carries the whole round
        trip. This is the instrumented path the sanitizer checks.
        """
        name = device_name if device_name is not None else self.primary
        proto = self.protocol
        if self.session is not None:
            self.session.map_field(self.FIELD_KEY, name)
        h = self.decomp.halo
        for rc in self.ranks:
            rt = rc.pipe.rt
            n0 = rc.local_shape[0]
            nbytes = h * rc.plane_bytes
            queue = proto.queue if proto.async_updates else None
            for axis, side in rc.sub.halo.exchange_faces():
                lo = h * rc.plane_bytes if side == "lo" else (n0 - 2 * h) * rc.plane_bytes
                if proto.update_host_before_send:
                    rt.update_host(name, nbytes=nbytes, offset=lo, queue=queue)
            faces = rc.sub.halo.exchange_faces()
            if faces and proto.async_updates and proto.sync_before_send:
                rt.wait(proto.queue)
            for axis, side in faces:
                lo = h * rc.plane_bytes if side == "lo" else (n0 - 2 * h) * rc.plane_bytes
                # the face is packed into the message from the host copy
                rt.note_host_read(name, offset=lo, nbytes=nbytes)
        self.exchanger.exchange(
            [{self.FIELD_KEY: rc.host_field} for rc in self.ranks]
        )
        for rc in self.ranks:
            rt = rc.pipe.rt
            n0 = rc.local_shape[0]
            nbytes = h * rc.plane_bytes
            for axis, side in rc.sub.halo.exchange_faces():
                lo = 0 if side == "lo" else (n0 - h) * rc.plane_bytes
                # the neighbour's planes landed in the host ghost slab
                rt.note_host_write(name, offset=lo, nbytes=nbytes)
                if proto.update_ghost_device:
                    rt.update_device(name, nbytes=nbytes, offset=lo)
        runlog.count("multigpu.exchanges")

    # ------------------------------------------------------------------
    def run(
        self,
        nt: int,
        snap_period: int,
        mode: str = "modeling",
        snapshot_decimate: int = 4,
    ) -> list[GpuTimes]:
        """The Figure-4 schedule on every card; returns per-rank modelled
        timings. Each rank runs a step's actions before its kernels, then
        the kernels, then one halo exchange of the stepped wavefield
        across all ranks, then the actions after. A traced pipeline then
        absorbs each rank's tracer into its own."""
        schedule = Schedule(mode, nt, snap_period, snapshot_decimate)
        runlog.emit("run", op=mode, nt=nt, ranks=len(self.ranks))
        for step in schedule:
            for rc in self.ranks:
                for action in step.pre:
                    rc.pipe.perform(action, step)
            for rc in self.ranks:
                rc.pipe.perform(step.kind, step)
            if step.n is not None:  # a time step: swap the fresh halos
                self.exchange(
                    self.primary if step.kind == "forward"
                    else self._backward_name()
                )
            for rc in self.ranks:
                for action in step.post:
                    rc.pipe.perform(action, step)
        runlog.emit("run.done", op=mode)
        if self.tracer is not None:
            for rc in self.ranks:
                self.tracer.absorb(rc.pipe.tracer, process_prefix=f"rank{rc.rank}:")
        return [rc.pipe.gpu_times() for rc in self.ranks]
