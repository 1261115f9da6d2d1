"""Driver behind ``python -m repro validate``.

One command, two static provers over a case's recorded schedule:

* the **capacity prover** (:mod:`repro.analyze.capacity`) walks the
  recording's lifetime events under the allocator's alignment and proves
  the per-phase device high-water marks — refusing a would-OOM run
  (``DF210``) or flagging a checkpoint-restore spike (``DF211``) before
  any allocation happens;
* the **translation validator** (:mod:`repro.compile.validate`) compiles
  the case and re-proves, per recorded instance, that the lowered
  per-phase steps simulate the recorded program (``DF201``-``DF203``) —
  the same gate :func:`~repro.compile.compiler.compile_case` runs before
  the bitwise replay backstop.

Findings from both provers merge into one
:class:`~repro.analyze.framework.LintResult` per target and render
through the shared reporters (text, ``--format json``, ``--format
sarif`` for CI code-scanning uploads). ``--artifact FILE`` writes the
machine-readable proof document (capacity phases + discharged
obligations) that CI round-trips.

Exit status: 0 when every target is proven clean at the gate severity,
1 on findings at/above ``--fail-on`` (default ``error``) or a
compilation failure, 2 on a stale or malformed opportunities artifact.

``check_validate`` is the strict capacity gate a caller runs before a
real run: prove capacity for the exact configuration about to run and
raise :class:`~repro.utils.errors.AnalysisError` on a proven OOM before
the run allocates anything.
"""

from __future__ import annotations

import json
import sys

from repro.analyze.framework import LintResult, Severity, refuse

__all__ = ["run_validate_command", "validate_request", "check_validate"]


def _prove(program, mode, nt, snap_period, primary, usable_bytes, device,
           phase_of=None):
    """The capacity proof of one recorded run: the per-phase high-water
    marks and, for RTM, the checkpoint-restore spike of ``primary``."""
    from repro.analyze.capacity import checkpoint_spike, prove_capacity

    proof = prove_capacity(
        program, usable_bytes=usable_bytes, device=device, phase_of=phase_of
    )
    if mode == "rtm":
        checkpoint_spike(
            proof,
            state_bytes=program.extents.get(primary, 0),
            nt=nt,
            snap_period=snap_period,
        )
    return proof


def _phase_of(recording):
    """Map an event index to its recorded phase name."""
    def phase_of(idx: int) -> str:
        seg = recording.segment_of(idx)
        return seg.phase if seg is not None else "program"

    return phase_of


def validate_request(request, options=None, platform=None, artifact=None,
                     plan=None) -> dict:
    """Run both provers for one :class:`CompileRequest`.

    Returns ``{"result": LintResult, "proof": CapacityProof,
    "compiled": CompiledPipeline | None, "error": str | None}`` — the
    compiled pipeline is None when compilation itself failed (its
    refusal message lands in ``error`` and counts as a finding).
    """
    from repro.compile.compiler import compile_case, record_segments
    from repro.core.config import GPUOptions
    from repro.core.platform import CRAY_K40

    opts = options if options is not None else GPUOptions()
    platform = platform if platform is not None else CRAY_K40
    recording = record_segments(request, opts, platform)
    device = recording.pipeline.rt.device
    proof = _prove(
        recording.program, request.mode, request.nt, request.snap_period,
        recording.pipeline.primary, device.memory.usable_bytes,
        device.spec.name, _phase_of(recording),
    )
    diagnostics = list(proof.diagnostics)
    compiled = None
    error = None
    try:
        compiled = compile_case(
            request, options=options, platform=platform, plan=plan,
            artifact=artifact,
        )
    except Exception as exc:
        # StaleArtifactError propagates (exit 2); a CompileError here
        # means the validator or the replay gate refused the lowering
        from repro.utils.errors import StaleArtifactError

        if isinstance(exc, StaleArtifactError):
            raise
        error = str(exc)
    if compiled is not None and compiled.validation is not None:
        diagnostics.extend(compiled.validation.diagnostics)
    return {
        "result": LintResult(recording.program, diagnostics),
        "proof": proof,
        "compiled": compiled,
        "error": error,
    }


def _target_doc(label: str, request, outcome: dict) -> dict:
    compiled = outcome["compiled"]
    doc = {
        "case": label,
        "name": request.name,
        "capacity": outcome["proof"].to_dict(),
    }
    if compiled is not None:
        doc["program_sha"] = compiled.program_sha
        doc["translation"] = (
            compiled.validation.to_dict()
            if compiled.validation is not None else None
        )
        doc["verified"] = compiled.verified
        doc["applied_cross_phase"] = sum(
            1 for a in compiled.applied if "->" in a.phase
        )
    if outcome["error"] is not None:
        doc["compile_error"] = outcome["error"]
    doc["ok"] = outcome["error"] is None and not outcome["result"].fails(
        Severity.ERROR
    )
    return doc


def _target_text(label: str, outcome: dict) -> str:
    from repro.analyze.report import format_text
    from repro.utils.units import bytes_to_human

    lines = [format_text(outcome["result"], title=f"repro validate — {label}")]
    proof = outcome["proof"]
    fits = "fits" if proof.fits else "DOES NOT FIT"
    lines.append(
        f"  capacity: peak {bytes_to_human(proof.peak_bytes)} of "
        f"{bytes_to_human(proof.usable_bytes or 0)} usable on "
        f"{proof.device} ({fits})"
    )
    compiled = outcome["compiled"]
    if compiled is not None and compiled.validation is not None:
        v = compiled.validation
        cross = sum(1 for a in compiled.applied if "->" in a.phase)
        lines.append(
            f"  translation: {v.obligations} obligations discharged, "
            f"{'ok' if v.ok else 'REFUSED'}; "
            f"{cross} cross-phase fusion(s) admitted"
        )
    if outcome["error"] is not None:
        lines.append(f"  compile: FAILED — {outcome['error']}")
    return "\n".join(lines)


def run_validate_command(args) -> int:
    """``python -m repro validate`` entry point (argparse namespace in)."""
    from repro.analyze.report import print_results
    from repro.compile.cli import load_opportunities
    from repro.compile.compiler import CompileRequest
    from repro.cases import case_targets
    from repro.observe.ledger import ledger_path_from_args, observed_run
    from repro.utils.errors import CompileError, StaleArtifactError

    artifact = None
    if args.opportunities:
        try:
            artifact = load_opportunities(args.opportunities)
        except CompileError as exc:
            print(f"validate: {exc}")
            return 2
    ledger_path = ledger_path_from_args(args)
    outcomes: list[tuple[str, object, dict]] = []
    for name, _, _, mode in case_targets(args.case, args.mode):
        label = f"{name} ({mode})"
        request = CompileRequest.from_case(name, mode, nt=args.nt)
        try:
            with observed_run(ledger_path, "validate", label,
                              request.mode) as record:
                outcome = validate_request(request, artifact=artifact)
                result = outcome["result"]
                proof = outcome["proof"]
                compiled = outcome["compiled"]
                metrics = {
                    "validate_errors": float(result.count(Severity.ERROR)),
                    "validate_warnings": float(result.count(Severity.WARNING)),
                    "peak_bytes": float(proof.peak_bytes),
                    "usable_bytes": float(proof.usable_bytes or 0),
                }
                if compiled is not None and compiled.validation is not None:
                    metrics["obligations"] = float(compiled.validation.obligations)
                    metrics["admitted_cross_phase"] = float(
                        sum(1 for a in compiled.applied if "->" in a.phase)
                    )
                record.metrics = metrics
        except StaleArtifactError as exc:
            print(f"validate {label}: STALE ARTIFACT\n  {exc}")
            return 2
        outcomes.append((label, request, outcome))
    if args.artifact:
        doc = {
            "targets": [
                _target_doc(label, request, outcome)
                for label, request, outcome in outcomes
            ],
        }
        with open(args.artifact, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        # stderr: --format json/sarif keep stdout machine-parseable
        print(f"wrote {args.artifact}", file=sys.stderr)
    verdict = print_results(
        [outcome["result"] for _, _, outcome in outcomes],
        args.format, args.fail_on, tool_name="repro-validate",
        texts=(_target_text(label, outcome) for label, _, outcome in outcomes),
    )
    if args.format == "text":
        print()  # each target's text block ends with a blank line
    return int(verdict or any(o["error"] is not None for _, _, o in outcomes))


def check_validate(
    physics: str,
    shape: tuple[int, ...],
    mode: str,
    options,
    platform,
    nt: int,
    snap_period: int,
    space_order: int = 8,
    boundary_width: int = 8,
    pml_variant: str = "restructured",
    fail_on: Severity = Severity.ERROR,
):
    """Strict capacity gate, called before a run: prove the
    configuration's device capacity for the *full* run length and raise
    :class:`AnalysisError` on findings at/above ``fail_on`` — the
    would-OOM refusal happens here, before anything is allocated."""
    from dataclasses import replace

    from repro.analyze.drivers import record_pipeline_program
    from repro.core.inventory import primary_wavefield
    from repro.gpusim.memory import DeviceMemory

    # record the schedule on an unconstrained twin of the card — the
    # interpreted dry run would itself OOM on an over-subscribed card,
    # and the whole point is to refuse *before* any allocation
    recording_platform = replace(
        platform,
        gpu=replace(platform.gpu, memory_bytes=max(
            platform.gpu.memory_bytes, 1 << 40
        )),
    )
    program = record_pipeline_program(
        physics,
        tuple(shape),
        mode,
        nt=min(nt, 16),
        snap_period=snap_period,
        options=options,
        platform=recording_platform,
        space_order=space_order,
        boundary_width=boundary_width,
        pml_variant=pml_variant,
        name=f"{physics}-{len(shape)}d-{mode} (validate dry run)",
    )
    proof = _prove(
        program, mode, nt, snap_period, primary_wavefield(physics),
        DeviceMemory(platform.gpu.memory_bytes).usable_bytes, platform.gpu.name,
    )
    refuse(
        proof.diagnostics, fail_on, "strict validate",
        f"{physics}-{len(shape)}d {mode} run", "finding(s)",
    )
    return proof
