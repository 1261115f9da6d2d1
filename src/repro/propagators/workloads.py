"""Kernel workload metadata, independent of live wavefields.

The propagator classes delegate here, and the benchmark harness calls these
functions directly to model the paper's full-size grids (e.g. 512^3
elastic) without allocating them. Counts are derived from the same formulas
the propagators use; a consistency test pins the two views together.

Also defines the RTM-specific kernels that are not part of a propagator
step: source injection, receiver injection (inlined or per-receiver) and
the even/odd imaging-condition kernels of the paper's Section 5.4.
"""

from __future__ import annotations

import numpy as np

from repro.propagators.base import KernelWorkload
from repro.utils.errors import ConfigurationError


def _check_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    shape = tuple(int(n) for n in shape)
    if len(shape) not in (2, 3) or any(n < 1 for n in shape):
        raise ConfigurationError(f"bad grid shape {shape}")
    return shape


def _npoints(shape: tuple[int, ...]) -> int:
    return int(np.prod(shape))


# ----------------------------------------------------------------------
# isotropic (Eq. 1)
# ----------------------------------------------------------------------
def isotropic_workloads(
    shape: tuple[int, ...],
    order: int = 8,
    pml_width: int = 16,
    variant: str = "branchy",
) -> list[KernelWorkload]:
    """Per-step kernels of the isotropic propagator for the given variant
    (see :class:`~repro.propagators.isotropic.IsotropicPropagator`)."""
    from repro.propagators.isotropic import boundary_slabs
    from repro.stencil.operators import (
        laplacian_flops_per_point,
        laplacian_reads_per_point,
    )

    shape = _check_shape(shape)
    ndim = len(shape)
    npts = _npoints(shape)
    lap_flops = laplacian_flops_per_point(ndim, order)
    lap_reads = laplacian_reads_per_point(ndim, order)
    plain_flops = lap_flops + 4
    plain_reads = lap_reads + 2
    damped_extra_flops = 8
    damped_extra_reads = 4
    if variant == "everywhere":
        return [
            KernelWorkload(
                name="iso_update_everywhere",
                points=npts,
                flops_per_point=plain_flops + damped_extra_flops,
                reads_per_point=plain_reads + damped_extra_reads,
                writes_per_point=1,
                loop_dims=shape,
                address_streams=8,
                has_branches=False,
                inner_contiguous=True,
                gather_axes=ndim,
            )
        ]
    if variant == "branchy":
        return [
            KernelWorkload(
                name="iso_update_branchy",
                points=npts,
                flops_per_point=plain_flops + 2,
                reads_per_point=plain_reads + 1,
                writes_per_point=1,
                loop_dims=shape,
                # the branch skips the PML coefficient loads at interior
                # points, so the effective stream count is near the plain
                # kernel's
                address_streams=5,
                has_branches=True,
                inner_contiguous=True,
                gather_axes=ndim,
            )
        ]
    if variant != "restructured":
        raise ConfigurationError(f"unknown isotropic variant '{variant}'")
    w = pml_width
    kernels = [
        KernelWorkload(
            name="iso_update_interior",
            points=int(np.prod([max(n - 2 * w, 0) for n in shape])),
            flops_per_point=plain_flops,
            reads_per_point=plain_reads,
            writes_per_point=1,
            loop_dims=tuple(max(n - 2 * w, 0) for n in shape),
            address_streams=4,
            has_branches=False,
            inner_contiguous=True,
            gather_axes=len(shape),
        )
    ]
    for i, sl in enumerate(boundary_slabs(shape, w)):
        dims = []
        for s, n in zip(sl, shape):
            start, stop, _ = s.indices(n)
            dims.append(stop - start)
        kernels.append(
            KernelWorkload(
                name=f"iso_update_pml_slab{i}",
                points=int(np.prod(dims)),
                flops_per_point=plain_flops + damped_extra_flops,
                reads_per_point=plain_reads + damped_extra_reads,
                writes_per_point=1,
                loop_dims=tuple(dims),
                address_streams=8,
                has_branches=False,
                inner_contiguous=(sl[-1] == slice(None)),
                gather_axes=len(shape),
            )
        )
    return kernels


# ----------------------------------------------------------------------
# acoustic (Eq. 2)
# ----------------------------------------------------------------------
def acoustic_workloads(
    shape: tuple[int, ...],
    order: int = 8,
    fissioned: bool = False,
    backward_uncoalesced: bool = False,
) -> list[KernelWorkload]:
    """Per-step kernels of the acoustic propagator.

    ``fissioned`` splits the fused flow-update kernel into one kernel per
    axis (the paper's Figure 12 optimization). ``backward_uncoalesced``
    marks the flow kernel's inner loop non-contiguous — the original RTM
    backward-phase kernel of Figure 13 before transposition.
    """
    shape = _check_shape(shape)
    ndim = len(shape)
    npts = _npoints(shape)
    m = order // 2
    deriv_flops = 2 * 2 * m
    cpml_flops = 4
    kernels = [
        KernelWorkload(
            name="acoustic_update_p",
            points=npts,
            flops_per_point=ndim * (deriv_flops + cpml_flops) + 2 * ndim + 3,
            reads_per_point=ndim * (2 * m) + ndim + 2,
            writes_per_point=1 + ndim,
            loop_dims=shape,
            address_streams=1 + 2 * ndim + 1,
            has_branches=False,
            inner_contiguous=True,
        )
    ]
    if fissioned:
        for ax in range(ndim):
            kernels.append(
                KernelWorkload(
                    name=f"acoustic_update_q_axis{ax}",
                    points=npts,
                    flops_per_point=deriv_flops + cpml_flops + 3,
                    reads_per_point=2 * m + 3,
                    writes_per_point=2,
                    loop_dims=shape,
                    address_streams=4,
                    has_branches=False,
                    inner_contiguous=not backward_uncoalesced,
                )
            )
    else:
        kernels.append(
            KernelWorkload(
                name="acoustic_update_q_fused",
                points=npts,
                flops_per_point=ndim * (deriv_flops + cpml_flops + 3),
                reads_per_point=ndim * (2 * m + 3),
                writes_per_point=2 * ndim,
                loop_dims=shape,
                address_streams=1 + 3 * ndim,
                has_branches=False,
                inner_contiguous=not backward_uncoalesced,
            )
        )
    return kernels


def transpose_workloads(shape: tuple[int, ...]) -> list[KernelWorkload]:
    """The on-GPU transposition pair of the paper's Figure 13 fix: copy to
    a transposed temporary before the kernel and back after. The generated
    transpose keeps one side of each access coalesced (the 2-D
    gridification walks the output contiguously), so the copies run near
    streaming rate — which is why paying for two of them still nets ~3x."""
    shape = _check_shape(shape)
    npts = _npoints(shape)
    return [
        KernelWorkload(
            name=name,
            points=npts,
            flops_per_point=0.0,
            reads_per_point=1,
            writes_per_point=1,
            loop_dims=shape,
            address_streams=2,
            has_branches=False,
            inner_contiguous=True,
        )
        for name in ("transpose_to_tmp", "transpose_from_tmp")
    ]


# ----------------------------------------------------------------------
# elastic (Eq. 3)
# ----------------------------------------------------------------------
def elastic_workloads(shape: tuple[int, ...], order: int = 8) -> list[KernelWorkload]:
    """Per-step kernels of the elastic propagator (2-D or 3-D by shape)."""
    shape = _check_shape(shape)
    ndim = len(shape)
    npts = _npoints(shape)
    m = order // 2
    deriv = 2 * 2 * m + 4
    if ndim == 2:
        return [
            KernelWorkload(
                name="elastic2d_update_v",
                points=npts,
                flops_per_point=4 * deriv + 8,
                reads_per_point=4 * (2 * m + 1) + 4,
                writes_per_point=2 + 4,
                loop_dims=shape,
                address_streams=9,
                has_branches=False,
                inner_contiguous=True,
            ),
            KernelWorkload(
                name="elastic2d_update_s",
                points=npts,
                flops_per_point=4 * deriv + 14,
                reads_per_point=4 * (2 * m + 1) + 6,
                writes_per_point=3 + 4,
                loop_dims=shape,
                address_streams=12,
                has_branches=False,
                inner_contiguous=True,
            ),
        ]
    kernels = []
    for comp in ("vx", "vy", "vz"):
        kernels.append(
            KernelWorkload(
                name=f"elastic3d_update_{comp}",
                points=npts,
                flops_per_point=3 * deriv + 5,
                reads_per_point=3 * (2 * m + 1) + 3,
                writes_per_point=1 + 3,
                loop_dims=shape,
                address_streams=8,
                has_branches=False,
                inner_contiguous=True,
            )
        )
    kernels.append(
        KernelWorkload(
            name="elastic3d_update_sdiag",
            points=npts,
            flops_per_point=3 * deriv + 21,
            reads_per_point=3 * (2 * m + 1) + 5,
            writes_per_point=3 + 3,
            loop_dims=shape,
            address_streams=11,
            has_branches=False,
            inner_contiguous=True,
        )
    )
    for comp in ("sxy", "sxz", "syz"):
        kernels.append(
            KernelWorkload(
                name=f"elastic3d_update_{comp}",
                points=npts,
                flops_per_point=2 * deriv + 4,
                reads_per_point=2 * (2 * m + 1) + 2,
                writes_per_point=1 + 2,
                loop_dims=shape,
                address_streams=7,
                has_branches=False,
                inner_contiguous=True,
            )
        )
    return kernels


def vti_workloads(shape: tuple[int, ...], order: int = 8) -> list[KernelWorkload]:
    """Per-step kernel of the VTI pseudo-acoustic extension: one fused
    update of the coupled (p, q) pair — a horizontal Laplacian of p, a
    vertical second derivative of q and two leapfrog combinations."""
    from repro.stencil.operators import laplacian_flops_per_point

    shape = _check_shape(shape)
    ndim = len(shape)
    npts = _npoints(shape)
    lap_flops = laplacian_flops_per_point(ndim, order)
    return [
        KernelWorkload(
            name="vti_update_pq",
            points=npts,
            flops_per_point=lap_flops + 2 * 12,
            reads_per_point=(ndim - 1) * order + order + 2 + 4 + 3,
            writes_per_point=2,
            loop_dims=shape,
            address_streams=11,  # p, p_prev, q, q_prev, 3 coef, 4 pml
            has_branches=False,
            inner_contiguous=True,
            gather_axes=ndim,
        )
    ]


def workloads_for(
    physics: str, shape: tuple[int, ...], order: int = 8, **kwargs
) -> list[KernelWorkload]:
    """Dispatch on the paper's physics names (plus the VTI extension)."""
    physics = physics.lower()
    if physics == "isotropic":
        return isotropic_workloads(shape, order, **kwargs)
    if physics == "acoustic":
        return acoustic_workloads(shape, order, **kwargs)
    if physics == "elastic":
        return elastic_workloads(shape, order)
    if physics == "vti":
        return vti_workloads(shape, order)
    raise ConfigurationError(f"unknown physics '{physics}'")


# ----------------------------------------------------------------------
# injection and imaging kernels (paper Section 5.4)
# ----------------------------------------------------------------------
def source_injection_workload(ndim: int) -> KernelWorkload:
    """The single-point source injection — 0.04 % GPU utilization in the
    paper's Figure 14 profile, ported anyway 'to avoid updating the host
    with the wave-field at each time step'."""
    return KernelWorkload(
        name="source_injection",
        points=1,
        flops_per_point=4,
        reads_per_point=3,
        writes_per_point=1,
        loop_dims=(1,),
        address_streams=3,
        has_branches=False,
        inner_contiguous=True,
    )


def receiver_injection_workloads(
    nreceivers: int, inlined: bool
) -> list[KernelWorkload]:
    """Receiver injection in the backward phase.

    Inlined (CRAY): one kernel encapsulating the receiver loop. Not inlined
    (PGI, 'inlining ... could not be processed by the PGI compiler'): one
    kernel launch **per receiver**, paying #receivers launch overheads per
    time step — the RTM cost the paper calls out (one shared workload,
    repeated ``nreceivers`` times).
    """
    if nreceivers < 1:
        raise ConfigurationError("nreceivers must be >= 1")
    if inlined:
        return [
            KernelWorkload(
                name="receiver_injection_inlined",
                points=nreceivers,
                flops_per_point=4,
                reads_per_point=3,
                writes_per_point=1,
                loop_dims=(nreceivers,),
                address_streams=3,
                has_branches=False,
                # receiver positions scatter over the wavefield
                inner_contiguous=False,
            )
        ]
    single = KernelWorkload(
        name="receiver_injection_single",
        points=1,
        flops_per_point=4,
        reads_per_point=3,
        writes_per_point=1,
        loop_dims=(1,),
        address_streams=3,
        has_branches=False,
        inner_contiguous=True,
    )
    return [single] * nreceivers


def imaging_condition_workloads(shape: tuple[int, ...]) -> list[KernelWorkload]:
    """The two imaging-condition kernels (even/odd time steps) the paper
    ports in its Figure 15 variant — low utilization (~1.9 %) but they spare
    the per-snap host update of the source wavefield."""
    shape = _check_shape(shape)
    npts = _npoints(shape)
    half = npts // 2
    return [
        KernelWorkload(
            name=f"imaging_condition_{parity}",
            points=max(1, half),
            flops_per_point=2,  # multiply-accumulate
            reads_per_point=3,  # S, R, I
            writes_per_point=1,
            loop_dims=shape,
            address_streams=3,
            has_branches=False,
            inner_contiguous=True,
        )
        for parity in ("even", "odd")
    ]
