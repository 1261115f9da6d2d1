"""Exception hierarchy for the repro package.

Every error raised by the package derives from :class:`ReproError` so callers
can catch package failures with a single ``except`` clause while still
distinguishing device, numerical and communication problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or out-of-range options."""


class StabilityError(ReproError):
    """A simulation would violate (or has violated) the CFL stability bound.

    Raised before time stepping when the requested ``dt`` exceeds the CFL
    limit, and during stepping when a wavefield turns non-finite.
    """


class DeviceError(ReproError):
    """Base class for simulated-accelerator failures."""


class DeviceOutOfMemoryError(DeviceError):
    """Allocation request exceeded the simulated device's global memory.

    The paper hits this for real: the elastic 3-D variables do not fit the
    6 GB Fermi M2090, producing the ``x`` entries in its Tables 3 and 4.

    Beyond the requested/free/capacity byte counts, the error carries the
    live-allocation table at the moment of failure (``allocations``: a
    sequence of ``(name, bytes)`` pairs) and the name of the failed request,
    so an OOM — injected by the chaos harness or hit for real — is
    diagnosable from the message alone.
    """

    def __init__(
        self,
        requested: int,
        free: int,
        capacity: int,
        allocations: tuple[tuple[str, int], ...] = (),
        request_name: str | None = None,
    ):
        from repro.utils.units import bytes_to_human

        self.requested = int(requested)
        self.free = int(free)
        self.capacity = int(capacity)
        self.allocations = tuple((str(n), int(b)) for n, b in allocations)
        self.request_name = request_name
        what = f"'{request_name}' " if request_name else ""
        msg = (
            f"device OOM: requested {what}{bytes_to_human(requested)}, "
            f"free {bytes_to_human(free)} of {bytes_to_human(capacity)}"
        )
        if self.allocations:
            live = sorted(self.allocations, key=lambda a: -a[1])
            total = sum(b for _, b in live)
            head = ", ".join(f"{n}={bytes_to_human(b)}" for n, b in live[:6])
            more = f", +{len(live) - 6} more" if len(live) > 6 else ""
            msg += (
                f"; {len(live)} live allocation(s) holding "
                f"{bytes_to_human(total)} (largest: {head}{more})"
            )
        super().__init__(msg)


class PCIeTransferError(DeviceError):
    """A host<->device DMA transfer failed (the bus-level analogue of
    ``cudaErrorUnknown`` on a cudaMemcpy). Transient instances succeed on
    retry; a permanent link fault keeps failing until the 'card' is reset
    by a restart-level recovery."""

    def __init__(self, direction: str, name: str, nbytes: int, detail: str = ""):
        self.direction = direction
        self.name = name
        self.nbytes = int(nbytes)
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"PCIe {direction} transfer '{name}' of {nbytes} bytes failed{suffix}"
        )


class KernelLaunchError(DeviceError):
    """A kernel launch failed (``cudaErrorLaunchFailure``). Device state is
    assumed intact; relaunching is the standard recovery."""

    def __init__(self, kernel: str, detail: str = ""):
        self.kernel = kernel
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"kernel launch '{kernel}' failed{suffix}")


class DeviceECCError(DeviceError):
    """An uncorrectable (double-bit) ECC event. Device-resident data is
    corrupt: retrying the failed operation is not sufficient — recovery must
    refresh device state from the host (restart from checkpoint)."""

    def __init__(self, where: str = ""):
        self.where = where
        suffix = f" during {where}" if where else ""
        super().__init__(
            f"uncorrectable ECC error{suffix}: device memory contents lost"
        )


class DeviceLostError(DeviceError):
    """The card fell off the bus (``cudaErrorDeviceUnavailable``) — a
    permanent fault. Single-device runs cannot recover; decomposed runs
    degrade by re-decomposing onto the surviving ranks."""

    def __init__(self, rank: int | None = None):
        self.rank = rank
        where = f"rank {rank}" if rank is not None else "device"
        super().__init__(f"{where} is lost (permanent device failure)")


class PresentTableError(DeviceError):
    """OpenACC present-table violation.

    Raised when a kernel declares a ``present`` clause for host data that has
    no live device copy, when ``exit data`` deletes data that was never
    entered, or when nested data regions disagree about lifetimes — the same
    classes of runtime error a real OpenACC runtime reports.
    """


class CommunicationError(ReproError):
    """Malformed or mismatched message-passing operation in :mod:`repro.mpisim`."""


class AnalysisError(ReproError):
    """The static analyzer refused a directive program.

    Raised by the strict gates a caller runs before a shot
    (``repro.analyze.drivers.check_schedule``, ``repro.sanitize.drivers.
    check_sanitize``, ``repro.analyze.validate_cli.check_validate``) when
    they find problems at or above the gate severity in the schedule
    about to run.
    """


class CompileError(ReproError):
    """The fused-kernel compiler refused to lower a program.

    Raised by :mod:`repro.compile` when a recorded schedule cannot be
    flattened into a steady-state step template, when an opportunity
    fails its structural legality re-check, or when the compiled step's
    replay fingerprint is not bitwise-identical to the interpreted
    pipeline's. The compiler always fails closed: a program that cannot
    be *proven* equivalent is never executed compiled.
    """


class StaleArtifactError(CompileError):
    """An opportunities artifact no longer matches the program it proves.

    The artifact carries the ``program_sha`` of the recording it was
    verified against; :mod:`repro.compile` recomputes the hash of the
    schedule it is about to transform and refuses on mismatch rather
    than apply proofs to a program they do not describe.
    """
