"""CPU-cluster cost model — the paper's full-socket MPI reference.

"The reference CPU total time is the time to process the entire domain while
using sub-domain decomposition ... given by running a full socket MPI
implementation" — 10 Ivy Bridge cores on the Cray XC30, 8 Westmere cores on
the IBM cluster (paper Tables 1-2).

The model is the same compulsory-traffic roofline as the GPU side
(:mod:`repro.gpusim.kernelmodel`) with CPU efficiencies, plus two
communication terms:

* per-step halo exchange of the decomposed wavefields (intra-node via
  shared memory);
* RTM snapshot traffic: the decomposed source wavefield must be gathered
  and spilled every ``snap_period`` in the forward phase and read back in
  the backward phase. This rides the cluster's interconnect/storage path —
  fast on the XC30 ("novel intercommunications technology ... makes our CPU
  implementation run much faster on CRAY"), slow on the older IBM cluster —
  and is what makes the IBM RTM speedups so large (10.2x acoustic 3-D)
  while CRAY's stay near 1.3x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.propagators.base import KernelWorkload
from repro.utils.errors import ConfigurationError
from repro.utils.fold import left_sum
from repro.utils.units import GB

#: fraction of peak FLOP throughput tuned, *vectorized* Fortran sustains
CPU_COMPUTE_EFFICIENCY = 0.40
#: fraction of peak socket bandwidth STREAM-like stencil code sustains
CPU_MEM_EFFICIENCY = 0.80
#: address-stream knee of CPU auto-vectorization: bodies indexing more than
#: this many distinct arrays defeat the vectorizer and run near-scalar
#: (the staggered C-PML kernels), while simple sweeps vectorize fully
CPU_SIMD_STREAM_KNEE = 6
#: how fast compute efficiency collapses beyond the knee
CPU_SIMD_STREAM_EXPONENT = 2.5
#: parallel efficiency loss of the full-socket MPI run (load imbalance,
#: shared-bandwidth contention)
CPU_PARALLEL_EFFICIENCY = 0.90
#: intra-node (shared-memory) MPI aggregate bandwidth (exchanges proceed
#: pairwise in parallel through the shared L3/DRAM) and per-message latency
SHM_BANDWIDTH = 40.0 * GB
SHM_LATENCY = 1.0e-6
#: sustained-bandwidth quality of the production Fortran per formulation:
#: the isotropic sweep is STREAM-like; the staggered C-PML codes interleave
#: many fields and sustain a fraction of it (calibrated against the paper's
#: per-formulation kernel speedups)
CPU_CODE_QUALITY = (("elastic", 0.45), ("acoustic", 0.70), ("iso", 1.0))


def _code_quality(kernel_name: str) -> float:
    for prefix, q in CPU_CODE_QUALITY:
        if kernel_name.startswith(prefix):
            return q
    return 1.0


@dataclass(frozen=True)
class CPUSocketSpec:
    """One CPU socket (paper Table 1)."""

    name: str
    cores: int
    clock_ghz: float
    #: single-precision flops per core per cycle (SIMD width x ports)
    flops_per_cycle_sp: int
    #: sustained socket memory bandwidth (bytes/s)
    mem_bandwidth_bytes: float

    @property
    def peak_gflops_per_core(self) -> float:
        return self.clock_ghz * self.flops_per_cycle_sp

    @property
    def peak_gflops(self) -> float:
        return self.cores * self.peak_gflops_per_core


#: Intel Xeon E5-2680 v2 (Ivy Bridge, 10 cores @ 2.8 GHz, AVX) — Cray XC30.
IVY_BRIDGE_E5_2680V2 = CPUSocketSpec(
    name="Xeon E5-2680 v2",
    cores=10,
    clock_ghz=2.8,
    flops_per_cycle_sp=16,
    mem_bandwidth_bytes=42.0 * GB,
)

#: Intel Xeon E5640 (Westmere, 4 cores @ 2.8 GHz fide the paper, SSE) — IBM.
WESTMERE_E5640 = CPUSocketSpec(
    name="Xeon E5640",
    cores=4,
    clock_ghz=2.8,
    flops_per_cycle_sp=8,
    mem_bandwidth_bytes=9.0 * GB,
)


@dataclass(frozen=True)
class ClusterSpec:
    """One evaluation platform's CPU side.

    ``mpi_cores`` is the paper's "full socket" count (10 on CRAY — one
    socket; 8 on IBM — both quad-core sockets). ``sockets_used`` scales the
    memory bandwidth accordingly. ``snapshot_bandwidth`` is the effective
    rate of gathering + spilling a decomposed snapshot through the
    interconnect/storage path.
    """

    name: str
    socket: CPUSocketSpec
    mpi_cores: int
    sockets_used: int
    snapshot_bandwidth: float
    interconnect_latency: float
    #: slowdown of the CPU *backward* (RTM) kernels per formulation. The
    #: paper's IBM acoustic RTM reference is anomalously slow (kernel
    #: speedups of 7.9x/10.8x vs 1.2x/2.3x for the same kernels in
    #: modeling); the authors attribute the platform gap to "the old
    #: interconnection technology provided by the IBM cluster". We carry
    #: the anomaly as a measured input rather than invent a mechanism.
    rtm_backward_quality: tuple[tuple[str, float], ...] = ()

    def backward_quality(self, physics: str) -> float:
        for prefix, q in self.rtm_backward_quality:
            if physics.startswith(prefix):
                return q
        return 1.0

    @property
    def peak_gflops(self) -> float:
        return self.mpi_cores * self.socket.peak_gflops_per_core

    @property
    def mem_bandwidth_bytes(self) -> float:
        return self.sockets_used * self.socket.mem_bandwidth_bytes


#: Cray XC30: one full 10-core Ivy Bridge socket, Aries interconnect +
#: Lustre — snapshots move fast.
CRAY_XC30 = ClusterSpec(
    name="CRAY XC30",
    socket=IVY_BRIDGE_E5_2680V2,
    mpi_cores=10,
    sockets_used=1,
    snapshot_bandwidth=6.0 * GB,
    interconnect_latency=1.5e-6,
)

#: IBM cluster: both Westmere sockets (8 cores), previous-generation
#: interconnect — snapshot gather/spill is the bottleneck.
IBM_CLUSTER = ClusterSpec(
    name="IBM",
    socket=WESTMERE_E5640,
    mpi_cores=8,
    sockets_used=2,
    snapshot_bandwidth=0.15 * GB,
    interconnect_latency=8.0e-6,
    rtm_backward_quality=(("acoustic", 0.14),),
)

CLUSTERS = {"CRAY": CRAY_XC30, "IBM": IBM_CLUSTER, "cray": CRAY_XC30, "ibm": IBM_CLUSTER}


class ClusterCostModel:
    """Analytic time model of the full-socket MPI reference run."""

    def __init__(self, spec: ClusterSpec):
        self.spec = spec

    # ------------------------------------------------------------------
    def kernel_time(self, workload: KernelWorkload) -> float:
        """Seconds the full socket spends on one kernel sweep.

        Compute throughput degrades past the vectorization knee: bodies
        with many address streams (the staggered C-PML updates) run
        near-scalar, which is what makes the elastic cases compute-bound on
        the CPU — and hence the paper's best GPU speedups.
        """
        dram_bytes = 4.0 * (workload.address_streams + workload.writes_per_point)
        dram_bytes *= workload.points
        quality = _code_quality(workload.name)
        mem_time = dram_bytes / (
            self.spec.mem_bandwidth_bytes * CPU_MEM_EFFICIENCY * quality
        )
        streams = max(1, workload.address_streams)
        simd_eff = min(
            1.0, (CPU_SIMD_STREAM_KNEE / streams) ** CPU_SIMD_STREAM_EXPONENT
        )
        flops = workload.flops_per_point * workload.points
        comp_time = flops / (
            self.spec.peak_gflops * 1e9 * CPU_COMPUTE_EFFICIENCY * simd_eff
        )
        return max(mem_time, comp_time) / CPU_PARALLEL_EFFICIENCY

    def step_time(self, workloads: list[KernelWorkload]) -> float:
        """One time step's compute (all kernels)."""
        return left_sum(self.kernel_time(w) for w in workloads)

    # ------------------------------------------------------------------
    def halo_time(self, halo_bytes: int, messages: int) -> float:
        """One halo swap over shared memory within the node."""
        if halo_bytes < 0 or messages < 0:
            raise ConfigurationError("halo bytes/messages must be >= 0")
        return messages * SHM_LATENCY + halo_bytes / SHM_BANDWIDTH

    def snapshot_time(self, nbytes: int) -> float:
        """Gather + spill (or read + scatter) one snapshot of ``nbytes``
        through the interconnect/storage path."""
        if nbytes < 0:
            raise ConfigurationError("nbytes must be >= 0")
        return (
            self.spec.interconnect_latency * self.spec.mpi_cores
            + nbytes / self.spec.snapshot_bandwidth
        )

    def injection_time(self, npoints: int) -> float:
        """Source/receiver injection: tiny serial work + one broadcast."""
        return 2e-7 * max(1, npoints) + self.spec.interconnect_latency
