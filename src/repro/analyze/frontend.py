"""Build a DirectiveProgram straight from an ``!$acc`` directive script.

Reuses :func:`repro.acc.parser.parse_directive`, so anything the runtime
executes can also be linted without running it. A script is one directive
per line; blank lines and plain comments are skipped. Structured ``data``
regions close with ``!$acc end data``.

Because a text script carries no kernel bodies, the analyzer accepts
sidecar annotations on ``!$lint`` lines:

* ``!$lint host_writes(u, v)`` — a standalone event marking host-side
  mutation of the named arrays (what makes a following ``update device``
  *non*-redundant); an optional ``bytes=N offset=M`` suffix restricts the
  marker to a byte range (a ghost slab landing from a receive);
* ``!$lint host_reads(u)`` — host-side consumption of the named arrays
  (host I/O packing a buffer), with the same optional range suffix;
* ``!$lint send(u) to=1`` / ``!$lint recv(u) from=1`` — an MPI transfer
  of the *host* copy (the sanitizer's cross-rank message edges), with the
  same optional range suffix;
* ``!$lint extent(u=65536)`` — declares array byte extents a bare
  ``copyin(u)`` cannot carry (partial-range checks need them);
* ``!$lint key=value ...`` — metadata attached to the *next* compute
  construct: ``name=fwd``, ``dims=512x512``, ``reads=u,v``, ``writes=u``,
  ``contiguous=false``, ``carried=true`` (loop-carried writes), ``halo=4``
  (stencil half-width), ``regs=96`` (register demand) — or to the next
  ``update`` directive: ``bytes=N offset=M`` (partial extent).

Example::

    !$acc enter data copyin(u, v)
    !$lint name=stencil dims=512x512 reads=u,v writes=u halo=4
    !$acc parallel loop gang vector vector_length(128) async(1)
    !$acc wait(1)
    !$acc exit data delete(u, v)
"""

from __future__ import annotations

import re

from repro.acc.parser import parse_directive
from repro.analyze.program import AccEvent, DirectiveProgram, ProgramMeta
from repro.utils.errors import ConfigurationError

_LINT_SENTINEL = "!$lint"
_MARKER_RE = re.compile(
    r"(host_writes|host_reads|send|recv|extent)\s*\(([^)]*)\)\s*(.*)",
    re.IGNORECASE,
)
_KV_RE = re.compile(r"([a-z_]+)\s*=\s*(\S+)", re.IGNORECASE)
#: queues available to bare ``async`` round-robin (mirrors the runtime's
#: ``_queue_for`` against a 16-queue device)
_BARE_ASYNC_QUEUES = 15


def _names(text: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in text.split(",") if n.strip())


def _bool(value: str) -> bool:
    return value.lower() in ("1", "true", "yes", "on")


def _parse_annotation(body: str, lineno: int) -> dict:
    meta: dict = {}
    for m in _KV_RE.finditer(body):
        key, value = m.group(1).lower(), m.group(2)
        if key == "name":
            meta["kernel"] = value
        elif key == "dims":
            meta["loop_dims"] = tuple(
                int(d) for d in value.lower().split("x") if d
            )
        elif key == "reads":
            meta["reads"] = _names(value)
        elif key == "writes":
            meta["writes"] = _names(value)
            meta["writes_known"] = True
        elif key == "contiguous":
            meta["inner_contiguous"] = _bool(value)
        elif key == "carried":
            meta["loop_carried"] = _bool(value)
        elif key == "halo":
            meta["halo"] = int(value)
        elif key == "regs":
            meta["regs_demand"] = int(value)
        elif key == "bytes":
            meta["nbytes"] = int(value)
        elif key == "offset":
            meta["offset"] = int(value)
        else:
            raise ConfigurationError(
                f"line {lineno}: unknown !$lint key '{key}'"
            )
    return meta


def _marker_range(suffix: str, lineno: int) -> dict:
    """The optional ``bytes=N offset=M to=R from=R`` suffix of a marker."""
    out: dict = {}
    for m in _KV_RE.finditer(suffix):
        key, value = m.group(1).lower(), m.group(2)
        if key == "bytes":
            out["nbytes"] = int(value)
        elif key == "offset":
            out["offset"] = int(value)
        elif key in ("to", "from"):
            out["peer"] = int(value)
        else:
            raise ConfigurationError(
                f"line {lineno}: unknown marker key '{key}'"
            )
    return out


def program_from_script(
    text: str, meta: ProgramMeta | None = None
) -> DirectiveProgram:
    """Parse a directive script into a :class:`DirectiveProgram`."""
    program = DirectiveProgram(
        meta if meta is not None else ProgramMeta(source="script")
    )
    pending: dict = {}
    data_stack: list[tuple[str, ...]] = []
    next_queue = 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        low = line.lower()
        if not line:
            continue
        if low.startswith(_LINT_SENTINEL):
            body = line[len(_LINT_SENTINEL):].strip()
            marker = _MARKER_RE.match(body)
            if marker:
                what = marker.group(1).lower()
                names = _names(marker.group(2))
                extra = _marker_range(marker.group(3), lineno)
                if what == "extent":
                    for m in _KV_RE.finditer(marker.group(2)):
                        program.extents[m.group(1)] = int(m.group(2))
                elif what == "host_writes":
                    extra.pop("peer", None)
                    program.add(AccEvent(
                        kind="host_write", writes=names,
                        label=f"line {lineno}", **extra,
                    ))
                elif what == "host_reads":
                    extra.pop("peer", None)
                    program.add(AccEvent(
                        kind="host_read", reads=names,
                        label=f"line {lineno}", **extra,
                    ))
                else:  # send / recv
                    for name in names:
                        program.add(AccEvent(
                            kind=what, var=name,
                            label=f"line {lineno}", **extra,
                        ))
            else:
                pending.update(_parse_annotation(body, lineno))
            continue
        if (line.startswith("!") or line.startswith("#")) and "acc" not in low:
            continue  # plain comment
        if re.match(r"^(!\$acc|#pragma acc)\s+end\s+data\b", low):
            if not data_stack:
                raise ConfigurationError(
                    f"line {lineno}: 'end data' without an open data region"
                )
            attached = data_stack.pop()
            program.add(AccEvent(
                kind="exit", delete=attached, structured=True,
                label=f"line {lineno}",
            ))
            continue
        d = parse_directive(line)
        label = f"line {lineno}"
        if d.construct == "enter data" or d.construct == "data":
            copyin = d.data.get("copyin", ()) + d.data.get("copy", ())
            create = d.data.get("create", ()) + (
                d.data.get("copyout", ()) if d.construct == "data" else ()
            )
            structured = d.construct == "data"
            program.add(AccEvent(
                kind="enter", copyin=copyin, create=create,
                structured=structured, label=label,
            ))
            if structured:
                data_stack.append(copyin + create)
        elif d.construct == "exit data":
            program.add(AccEvent(
                kind="exit", delete=d.data.get("delete", ()),
                copyout=d.data.get("copyout", ()), label=label,
            ))
        elif d.construct == "update":
            nbytes = pending.pop("nbytes", None)
            offset = pending.pop("offset", 0)
            for name in d.update_host:
                program.add(AccEvent(
                    kind="update", direction="host", var=name,
                    nbytes=nbytes, offset=offset,
                    queue=_resolve_queue(d.async_, None)[0], label=label,
                ))
            for name in d.update_device:
                program.add(AccEvent(
                    kind="update", direction="device", var=name,
                    nbytes=nbytes, offset=offset,
                    queue=_resolve_queue(d.async_, None)[0], label=label,
                ))
        elif d.construct == "wait":
            program.add(AccEvent(kind="wait", wait_on=d.wait_on, label=label))
        elif d.construct in ("kernels", "parallel", "loop"):
            queue, next_queue = _resolve_queue(d.async_, next_queue)
            present = d.data.get("present", ())
            reads = tuple(dict.fromkeys(
                present + d.data.get("copyin", ()) + d.data.get("copy", ())
                + pending.get("reads", ())
            ))
            writes = tuple(dict.fromkeys(
                d.data.get("copyout", ()) + d.data.get("copy", ())
                + pending.get("writes", ())
            ))
            program.add(AccEvent(
                kind="compute",
                construct="kernels" if d.construct == "kernels" else "parallel",
                kernel=pending.get("kernel", f"k{lineno}"),
                queue=queue,
                reads=reads,
                writes=writes,
                writes_known=pending.get("writes_known", False),
                schedule=d.schedule,
                loop_dims=pending.get("loop_dims", ()),
                inner_contiguous=pending.get("inner_contiguous", True),
                loop_carried=pending.get("loop_carried", False),
                halo=pending.get("halo"),
                regs_demand=pending.get("regs_demand"),
                wait_on=d.wait_on,
                wait_all=d.wait_all,
                label=label,
            ))
            pending = {}
        elif d.construct == "cache":
            continue  # present-checked at run time; nothing to lint yet
        else:  # pragma: no cover - parser already rejects the rest
            raise ConfigurationError(
                f"line {lineno}: cannot lint construct '{d.construct}'"
            )
    if data_stack:
        raise ConfigurationError(
            f"unclosed data region attaching {', '.join(data_stack[-1])}"
        )
    return program


def _resolve_queue(
    async_: int | bool | None, next_queue: int | None
) -> tuple[int | None, int | None]:
    """Map an ``async`` clause to a queue id. Bare ``async`` round-robins
    like the runtime's auto-queue assignment."""
    if async_ is None or async_ is False:
        return None, next_queue
    if async_ is True:
        q = next_queue if next_queue is not None else 1
        nxt = (q % _BARE_ASYNC_QUEUES) + 1
        return q, nxt
    return int(async_), next_queue


def program_from_file(path: str) -> DirectiveProgram:
    """:func:`program_from_script` of the script at ``path``, named after it."""
    with open(path, encoding="utf-8") as fh:
        return program_from_script(
            fh.read(), meta=ProgramMeta(source="script", name=path)
        )


__all__ = ["program_from_script", "program_from_file"]
