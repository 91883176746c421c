"""The trace format: how a workload becomes records, and back.

This is the one module that knows the format.  The JSON-lines files
(:func:`save_tm_traces` and friends), the trace store's ingest and
external import, and the store's replay all go through it.

A workload of each *kind* is a list of replay units, and each unit is
one header followed by its events:

* ``tm``: a ``ThreadTrace``, header ``["T", thread_id]``, or
  ``{"kind": "thread", "id": ...}`` in JSONL;
* ``tls``: a ``TlsTask``, header ``["K", id, spawn]``, or
  ``{"kind": "task", "id": ..., "spawn": ...}``;
* ``checkpoint``: a ``CheckpointEpoch``, header ``["E", mispredicted]``,
  or ``{"kind": "epoch", "mispredicted": ...}``.

Events are compact arrays: ``["l", address]``, ``["s", address,
value]``, ``["c", cycles]``, ``["b"]``, ``["e"]``.  TLS tasks carry no
``b``/``e`` markers, and checkpoint epochs hold only loads and stores.
Every field after the tag is an integer.  A *record* is one such array,
header or event.  A JSONL file holds the same stream, one JSON value
per line, with each header written as an object.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import TraceError
from repro.sim.trace import (
    EventKind,
    MemEvent,
    ThreadTrace,
    compute,
    load,
    store,
    tx_begin,
    tx_end,
)

if TYPE_CHECKING:  # runtime imports are deferred: repro.tls.task itself
    from repro.tls.task import TlsTask  # imports repro.sim.trace

_ENCODERS = {
    EventKind.LOAD: lambda e: ["l", e.address],
    EventKind.STORE: lambda e: ["s", e.address, e.value],
    EventKind.COMPUTE: lambda e: ["c", e.cycles],
    EventKind.TX_BEGIN: lambda e: ["b"],
    EventKind.TX_END: lambda e: ["e"],
}

_DECODERS = {
    "l": lambda row: load(row[1]),
    "s": lambda row: store(row[1], row[2]),
    "c": lambda row: compute(row[1]),
    "b": lambda row: tx_begin(),
    "e": lambda row: tx_end(),
}

#: Record length, tag included, of every event tag.
_EVENT_ARITY = {"l": 2, "s": 3, "c": 2, "b": 1, "e": 1}

#: Checkpoint ops are ``(op, address, value)`` tuples, not events.
_OP_DECODERS = {
    "l": lambda row: ("load", row[1], 0),
    "s": lambda row: ("store", row[1], row[2]),
}


def encode_event(event: MemEvent) -> list:
    """One event as its record."""
    return _ENCODERS[event.kind](event)


def _encode_op(op: Tuple[str, int, int]) -> list:
    name, address, value = op
    return ["l", address] if name == "load" else ["s", address, value]


def _tls_task(header: list, events: List[MemEvent]) -> "TlsTask":
    from repro.tls.task import TlsTask

    return TlsTask(header[1], events, header[2])


def _checkpoint_epoch(header: list, ops: list) -> Any:
    from repro.checkpoint.workload import CheckpointEpoch

    return CheckpointEpoch(tuple(ops), bool(header[1]))


class TraceFormat(NamedTuple):
    """How the units of one trace kind map to records."""

    tag: str  #: record tag of a unit header
    header: str  #: the ``"kind"`` of a JSONL header object
    fields: Tuple[str, ...]  #: JSONL header fields, in record order
    contents: str  #: what the trace may hold, for error messages
    header_of: Callable[[Any], tuple]  #: unit -> header fields
    events_of: Callable[[Any], Iterable[list]]  #: unit -> event records
    decoders: Dict[str, Callable[[list], Any]]  #: event tag -> decoder
    unit: Callable[[list, list], Any]  #: (header record, events) -> unit


FORMATS: Dict[str, TraceFormat] = {
    "tm": TraceFormat(
        "T", "thread", ("id",),
        "'T' headers, loads, stores, compute and transaction markers",
        lambda trace: (trace.thread_id,),
        lambda trace: map(encode_event, trace.events),
        _DECODERS,
        lambda header, events: ThreadTrace(header[1], events),
    ),
    "tls": TraceFormat(
        "K", "task", ("id", "spawn"),
        "'K' headers, loads, stores and compute",
        lambda task: (task.task_id, task.spawn_cursor),
        lambda task: map(encode_event, task.events),
        {tag: _DECODERS[tag] for tag in "lsc"},
        _tls_task,
    ),
    "checkpoint": TraceFormat(
        "E", "epoch", ("mispredicted",),
        "'E' headers, loads and stores",
        lambda epoch: (int(epoch.mispredicted),),
        lambda epoch: map(_encode_op, epoch.ops),
        _OP_DECODERS,
        _checkpoint_epoch,
    ),
}

#: The workload kinds a trace can hold.
TRACE_KINDS = tuple(FORMATS)


def check_record(kind: str, row: Any) -> None:
    """Reject anything that is not a record of a ``kind`` trace: an
    unknown or foreign tag, a wrong field count, a non-integer field."""
    fmt = FORMATS[kind]
    tag = row[0] if isinstance(row, list) and row else None
    if tag == fmt.tag:
        arity = 1 + len(fmt.fields)
    elif tag in fmt.decoders:
        arity = _EVENT_ARITY[tag]
    else:
        raise TraceError(
            f"{kind} traces hold only {fmt.contents}, got {row!r}"
        )
    if len(row) != arity:
        raise TraceError(
            f"record {row!r} has {len(row)} fields, expected {arity}"
        )
    if not all(isinstance(value, int) for value in row[1:]):
        raise TraceError(f"record {row!r} has a non-integer field")


def to_records(kind: str, units: Iterable[Any]) -> Iterator[list]:
    """The record stream of a ``kind`` workload."""
    fmt = FORMATS[kind]
    for unit in units:
        yield [fmt.tag, *fmt.header_of(unit)]
        yield from fmt.events_of(unit)


def from_records(kind: str, rows: Iterable[list]) -> List[Any]:
    """Rebuild a ``kind`` workload from its record stream.

    ``rows`` must already be checked, as :func:`read_jsonl` and the
    trace store's writer do: a header first, and only ``kind`` records.
    """
    fmt = FORMATS[kind]
    units: List[Any] = []
    header = None
    events: list = []
    for row in rows:
        if row[0] == fmt.tag:
            if header is not None:
                units.append(fmt.unit(header, events))
            header, events = row, []
        else:
            events.append(fmt.decoders[row[0]](row))
    if header is not None:
        units.append(fmt.unit(header, events))
    return units


def _jsonl_record(kind: str, line: bytes) -> list:
    """One JSONL line as a checked record of a ``kind`` trace."""
    fmt = FORMATS[kind]
    try:
        row = json.loads(line)
    except ValueError:  # not JSON, or not UTF-8
        raise TraceError(f"not JSON: {line[:60]!r}") from None
    if isinstance(row, dict):
        if row.get("kind") != fmt.header:
            raise TraceError(
                f"expected a {fmt.header!r} header for a {kind} trace, "
                f"got {row!r}"
            )
        missing = [name for name in fmt.fields if name not in row]
        if missing:
            raise TraceError(
                f"{fmt.header} header {row!r} lacks {', '.join(missing)}"
            )
        row = [fmt.tag, *(row[name] for name in fmt.fields)]
    check_record(kind, row)
    # Booleans are integers to JSON's reader; store them as 0/1.
    row = [row[0], *map(int, row[1:])]
    if row[0] != fmt.tag:
        fmt.decoders[row[0]](row)  # the event constructors validate values
    return row


def read_jsonl(path: Union[str, Path], kind: str) -> Iterator[list]:
    """Stream the records of a ``kind`` JSONL trace file.

    Blank lines are skipped.  Every malformed line raises
    :class:`TraceError` naming ``path:line``.
    """
    seen_header = False
    with open(path, "rb") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = _jsonl_record(kind, line)
                if row[0] == FORMATS[kind].tag:
                    seen_header = True
                elif not seen_header:
                    raise TraceError("event before any header")
            except TraceError as error:
                raise TraceError(f"{path}:{line_number}: {error}") from None
            yield row


def write_jsonl(
    path: Union[str, Path], kind: str, units: Iterable[Any]
) -> None:
    """Write a ``kind`` workload as a JSONL trace file."""
    fmt = FORMATS[kind]
    with open(path, "w", encoding="utf-8") as handle:
        for row in to_records(kind, units):
            if row[0] == fmt.tag:
                row = {"kind": fmt.header, **dict(zip(fmt.fields, row[1:]))}
            handle.write(json.dumps(row) + "\n")


def save_tm_traces(
    path: Union[str, Path], traces: Sequence[ThreadTrace]
) -> None:
    """Write TM thread traces to a JSON-lines file."""
    write_jsonl(path, "tm", traces)


def load_tm_traces(path: Union[str, Path]) -> List[ThreadTrace]:
    """Read TM thread traces from a JSON-lines file."""
    return from_records("tm", read_jsonl(path, "tm"))


def save_tls_tasks(path: Union[str, Path], tasks: Sequence[TlsTask]) -> None:
    """Write TLS tasks to a JSON-lines file."""
    write_jsonl(path, "tls", tasks)


def load_tls_tasks(path: Union[str, Path]) -> List[TlsTask]:
    """Read TLS tasks from a JSON-lines file."""
    return from_records("tls", read_jsonl(path, "tls"))
