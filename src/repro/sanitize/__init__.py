"""repro.sanitize — dynamic coherence sanitizer + cross-rank race detector.

Where :mod:`repro.analyze` lints directive *programs* statically, this
package checks what a run actually did: per-array shadow state tracks
which byte ranges of each host/device copy are stale
(:mod:`repro.sanitize.shadow`), a cross-rank vector-clock graph tracks
which async operations each rank's host thread has synchronized with
(:mod:`repro.sanitize.rankrace`), and the session
(:mod:`repro.sanitize.session`) turns violations into the lint
machinery's :class:`~repro.analyze.framework.Diagnostic` records — with
machine-applicable :mod:`~repro.sanitize.fixit` edits for script-anchored
findings. ``python -m repro sanitize`` is the CLI; call
:func:`~repro.sanitize.drivers.check_sanitize` before a real run to gate it
on a sanitized dry run.
"""

from repro.sanitize.drivers import (
    check_sanitize,
    sanitize_pipeline,
    sanitize_script,
)
from repro.sanitize.fixit import ScriptFix, apply_fixes, collect_fixes
from repro.sanitize.session import PASSES, SanitizeResult, SanitizeSession
from repro.sanitize.shadow import UNKNOWN_EXTENT, ShadowArray

__all__ = [
    "SanitizeSession",
    "SanitizeResult",
    "PASSES",
    "ShadowArray",
    "UNKNOWN_EXTENT",
    "ScriptFix",
    "apply_fixes",
    "collect_fixes",
    "sanitize_pipeline",
    "sanitize_script",
    "check_sanitize",
]
