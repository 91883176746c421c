"""Replay: stored traces → the substrates' workload objects.

:func:`load_trace_workload` plugs into the same seam the synthetic
generators feed — ``run_tm_comparison`` consumes ``List[ThreadTrace]``,
``run_tls_comparison`` consumes ``List[TlsTask]``, and
``run_checkpoint_comparison`` consumes ``List[CheckpointEpoch]`` — so a
replayed run differs from a generated one *only* in where the events
came from.  Decoding is :func:`repro.sim.traceio.from_records`, and it
is pure: the same trace id always materialises the identical workload
objects, which is what makes replayed comparison artifacts
byte-identical across worker counts and chunk sizes.

Records stream through :class:`~repro.trace.store.TraceReader` (one
chunk resident at a time) while the replay units accumulate; the
workload objects themselves are what the substrates require, so total
memory is proportional to the trace's event count, exactly as with the
generators.
"""

from __future__ import annotations

import os
from typing import Any, Optional, Union

from repro.errors import TraceError
from repro.sim.traceio import FORMATS, from_records
from repro.trace.store import TraceStore, open_store


def load_trace_workload(
    kind: str,
    store: "Union[TraceStore, str, os.PathLike[str]]",
    trace_id: str,
    obs: Optional[Any] = None,
) -> Any:
    """Materialise the ``kind`` workload of one stored trace."""
    if kind not in FORMATS:
        raise TraceError(f"unknown trace workload kind {kind!r}")
    metrics = obs.metrics if obs is not None else None
    reader = open_store(store).reader(trace_id, metrics=metrics)
    if reader.info.kind != kind:
        raise TraceError(
            f"trace {trace_id!r} is a {reader.info.kind!r} trace; "
            f"a {kind!r} workload cannot replay it"
        )
    units = from_records(kind, reader.records())
    if not units:
        raise TraceError(f"trace {trace_id!r} holds no {kind} units")
    return units
