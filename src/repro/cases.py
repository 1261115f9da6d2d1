"""The seed-case vocabulary every command shares: three physics x
2-D/3-D, each in both modes (12 programs). One definition of how a case
is spelled, the inventory, the recording grids and parameters, the
stencil order and the two-layer test model; each command keeps only its
own grid size."""

from __future__ import annotations

from repro.utils.errors import ConfigurationError

#: physics aliases accepted in case names (``iso2d``, ``acoustic3d``, ...)
_PHYSICS = {
    "iso": "isotropic",
    "isotropic": "isotropic",
    "ac": "acoustic",
    "acoustic": "acoustic",
    "el": "elastic",
    "elastic": "elastic",
}

#: the six seed cases, in inventory order
CASES = ("iso2d", "ac2d", "el2d", "iso3d", "ac3d", "el3d")
#: the 2-D seed cases (surveys are 2-D only)
SURVEY_CASES = tuple(c for c in CASES if c.endswith("2d"))

#: what each ``--mode`` choice runs
MODES = {"modeling": ("modeling",), "rtm": ("rtm",), "both": ("modeling", "rtm")}
#: the mode of one case when the line names none (lint, deps, sanitize;
#: ``all`` then runs both modes)
CASE_MODE = "rtm"

#: recording and instrumented-run grids: the directive sequence does not
#: depend on the grid size, and at these sizes the NumPy kernels finish in
#: seconds while every pipeline phase still fires
RECORD_SHAPES = {2: (96, 96), 3: (48, 48, 48)}


def parse_case(text: str) -> tuple[str, int]:
    """``'iso2d'`` -> ``('isotropic', 2)``; accepts short or full physics
    names with a ``2d``/``3d`` suffix."""
    t = text.strip().lower().replace("-", "").replace("_", "")
    ndim = None
    for suffix, n in (("2d", 2), ("3d", 3)):
        if t.endswith(suffix):
            t, ndim = t[: -len(suffix)], n
            break
    if ndim is None or t not in _PHYSICS:
        known = ", ".join(f"{p}{{2d,3d}}" for p in ("iso", "ac", "el"))
        raise ConfigurationError(f"unknown case '{text}' (expected one of: {known})")
    return _PHYSICS[t], ndim


def parse_survey_case(text: str) -> tuple[str, int]:
    """:func:`parse_case` for a survey, which must be 2-D."""
    physics, ndim = parse_case(text)
    if ndim != 2:
        raise ConfigurationError(
            f"serve case '{text}' is {ndim}-D; surveys are 2-D only"
        )
    return physics, ndim


#: ``(physics, ndim)`` of each seed case (x both modes = 12 programs)
INVENTORY = tuple(parse_case(c) for c in CASES)


def space_order_of(ndim: int) -> int:
    """The seed cases' stencil order: 8 in 2-D, 4 in 3-D."""
    return 4 if ndim == 3 else 8


def record_args(ndim: int) -> dict:
    """How lint, deps, sanitize and compile record a seed case's schedule
    (alike, so their programs hash alike): the reduced grid, a snapshot
    every 4 steps, the stencil order and an 8-cell boundary."""
    return dict(shape=RECORD_SHAPES[ndim], snap_period=4,
                space_order=space_order_of(ndim), boundary_width=8)


def case_targets(case: str, mode: str | None) -> list[tuple[str, str, int, str]]:
    """Expand a CASE (one case, or ``all`` in any letter case) and a
    ``--mode`` choice into ``(name, physics, ndim, mode)`` targets.

    ``all`` is the seed programs of ``mode`` (6 per mode), named
    ``isotropic2d`` and so on; one case keeps the name it was given. With
    no mode (``None``) ``all`` runs both modes, 12 programs, and one case
    runs :data:`CASE_MODE`.
    """
    if case.lower() == "all":
        return [
            (f"{physics}{ndim}d", physics, ndim, m)
            for physics, ndim in INVENTORY
            for m in MODES[mode or "both"]
        ]
    physics, ndim = parse_case(case)
    return [(case, physics, ndim, m) for m in MODES[mode or CASE_MODE]]


def layered_config(physics: str, shape: tuple[int, ...], nt: int) -> dict:
    """Keyword arguments of a ``ModelingConfig``/``RTMConfig`` on the
    seed cases' two-layer test model over ``shape``: 10 m cells, one
    interface at half depth, 1500 over 2600 m/s (vs = vp/2), a 12 Hz
    source, an 8-cell boundary and a snapshot every 4 steps."""
    from repro.model import layered_model

    depth = shape[0] * 10.0 / 2
    model = layered_model(
        shape, spacing=10.0, interfaces=[depth],
        velocities=[1500.0, 2600.0], vs_ratio=0.5,
    )
    return dict(
        physics=physics, model=model, nt=nt, peak_freq=12.0,
        space_order=space_order_of(len(shape)),
        boundary_width=8, snap_period=4,
    )

