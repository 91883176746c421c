"""Ingest: capture workloads into the trace store.

Three capture paths, one per substrate, all driven by the *instrumented
kernels and generators* the simulators already run — every array access
a kernel performs is recorded as a word-accurate LOAD/STORE event, so an
ingested trace carries genuine data flow, not a statistical profile:

* :func:`ingest_tm` — the Table 4 kernels (``repro.workloads.kernels``);
* :func:`ingest_tls` — the Table 6 task generators;
* :func:`ingest_checkpoint` — the checkpoint epoch streams, stored with
  one epoch marker per epoch.

Plus :func:`import_jsonl`, a converter for the external JSON-lines
format of :mod:`repro.sim.traceio` (dict headers + compact event
arrays), extended with ``{"kind": "epoch", "mispredicted": ...}``
headers for checkpoint traces — the integration path for traces captured
outside this repository (e.g. by a binary-instrumentation run).

Ingest is deterministic: the same (kind, app, sizing, seed) always
produces the same record stream and therefore the same trace id, at any
chunk size.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Union

from repro.errors import TraceError
from repro.sim.traceio import read_jsonl, to_records
from repro.trace.store import (
    DEFAULT_CHUNK_BYTES,
    IngestResult,
    TraceStore,
    open_store,
)


# ----------------------------------------------------------------------
# Kernel capture
# ----------------------------------------------------------------------

def _ingest(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    kind: str,
    label: str,
    meta: dict,
    rows: Iterable[list],
    chunk_bytes: int,
) -> IngestResult:
    writer = open_store(store).writer(
        kind, label=label, meta=meta, chunk_bytes=chunk_bytes
    )
    try:
        writer.add_all(rows)
        return writer.finish()
    except BaseException:
        writer.abort()
        raise


def ingest_tm(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    app: str,
    num_threads: int = 8,
    txns_per_thread: int = 12,
    seed: int = 42,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> IngestResult:
    """Capture one Table 4 TM kernel run into the store."""
    from repro.workloads.kernels import build_tm_workload

    traces = build_tm_workload(
        app, num_threads=num_threads, txns_per_thread=txns_per_thread,
        seed=seed,
    )
    meta = {
        "app": app,
        "num_threads": num_threads,
        "txns_per_thread": txns_per_thread,
        "seed": seed,
    }
    return _ingest(
        store, "tm", app, meta, to_records("tm", traces), chunk_bytes
    )


def ingest_tls(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    app: str,
    num_tasks: int = 160,
    seed: int = 42,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> IngestResult:
    """Capture one Table 6 TLS task stream into the store."""
    from repro.workloads.tls_spec import build_tls_workload

    tasks = build_tls_workload(app, num_tasks=num_tasks, seed=seed)
    meta = {"app": app, "num_tasks": num_tasks, "seed": seed}
    return _ingest(
        store, "tls", app, meta, to_records("tls", tasks), chunk_bytes
    )


def ingest_checkpoint(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    app: str,
    num_epochs: int = 64,
    seed: int = 42,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> IngestResult:
    """Capture one checkpoint epoch stream into the store."""
    from repro.checkpoint.workload import build_checkpoint_workload

    epochs = build_checkpoint_workload(app, num_epochs=num_epochs, seed=seed)
    meta = {"app": app, "num_epochs": num_epochs, "seed": seed}
    return _ingest(
        store, "checkpoint", app, meta, to_records("checkpoint", epochs),
        chunk_bytes,
    )


#: Substrate kind -> kernel-capture function (CLI dispatch table).
INGESTERS = {
    "tm": ingest_tm,
    "tls": ingest_tls,
    "checkpoint": ingest_checkpoint,
}


# ----------------------------------------------------------------------
# External JSONL conversion
# ----------------------------------------------------------------------

def import_jsonl(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    path: "Union[str, os.PathLike[str]]",
    kind: str,
    label: str = "",
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> IngestResult:
    """Convert an external JSONL trace file into the store."""
    source = Path(path)
    if kind not in INGESTERS:
        raise TraceError(
            f"unknown trace kind {kind!r} "
            f"(kinds: {', '.join(sorted(INGESTERS))})"
        )
    meta = {"imported_from": source.name}
    return _ingest(
        store, kind, label or source.stem, meta, read_jsonl(source, kind),
        chunk_bytes,
    )
