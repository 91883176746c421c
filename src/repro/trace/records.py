"""The trace store's record vocabulary and its canonical encoding.

A stored trace is a flat sequence of *records*; each record is one
compact JSON array encoded canonically (no whitespace, one line per
record, ``\\n`` terminated).  The canonical encoding matters twice:

* the **trace id** is the SHA-256 over the encoded record stream (plus a
  schema/kind header), so identical logical traces land on identical ids
  regardless of how they were chunked on disk, and
* replay decodes exactly what ingest encoded — byte-identical artifacts
  at any worker count are only possible because there is one encoding.

The records themselves (headers, events, what each trace kind may hold)
are defined once, in :mod:`repro.sim.traceio`.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.errors import TraceError
from repro.sim.traceio import check_record

#: Bump when the record vocabulary or the canonical encoding changes —
#: trace ids embed it, so old and new stores can never serve each other's
#: content under one id.
TRACE_SCHEMA_VERSION = 1


def encode_record(row: Sequence) -> bytes:
    """One record in its canonical byte form (compact JSON + newline)."""
    return (
        json.dumps(list(row), separators=(",", ":")).encode("ascii") + b"\n"
    )


def decode_record(line: bytes) -> List:
    """Parse one canonical record line back into its row form."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as error:
        raise TraceError(f"malformed trace record {line!r}") from error
    if not isinstance(row, list) or not row:
        raise TraceError(f"malformed trace record {line!r}")
    return row


def validate_record(row: Sequence, kind: str) -> None:
    """Reject rows that are not records of a ``kind`` trace.

    Ingest-side guard: the store must never accept a record that replay
    cannot interpret.
    """
    check_record(kind, list(row))
