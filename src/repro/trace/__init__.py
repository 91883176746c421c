"""Real-trace ingestion and the content-addressed on-disk trace store.

The substrates were built trace-driven from day one, but every run so
far generated its workload in-process.  This package turns the workload
into *data*:

* :mod:`repro.trace.store` — a content-addressed store (SQLite index +
  chunked, zlib-compressed record files; trace ids are SHA-256 over the
  canonical record stream) with a bounded-memory streaming reader;
* :mod:`repro.trace.ingest` — capture the instrumented kernels (TM),
  task generators (TLS), and epoch streams (checkpoint) into the store,
  or convert external JSONL traces;
* :mod:`repro.trace.replay` — materialise a stored trace back into the
  exact objects the simulators consume.

The record format itself (workload ⇄ records, and the JSONL files) is
:mod:`repro.sim.traceio`; this package adds only what is store-specific.

CLI: ``python -m repro trace ingest|import|list|info``, and
``--trace-store``/``--trace-id`` on the ``tm``/``tls``/``checkpoint``
subcommands.  Replay is deterministic: one trace id ⇒ byte-identical
comparison artifacts at any ``--jobs`` count and any chunk size.
"""

from repro.trace.ingest import (
    INGESTERS,
    import_jsonl,
    ingest_checkpoint,
    ingest_tls,
    ingest_tm,
)
from repro.sim.traceio import TRACE_KINDS
from repro.trace.records import TRACE_SCHEMA_VERSION
from repro.trace.replay import load_trace_workload
from repro.trace.store import (
    DEFAULT_CHUNK_BYTES,
    IngestResult,
    TraceInfo,
    TraceReader,
    TraceStore,
    TraceWriter,
)

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "INGESTERS",
    "IngestResult",
    "TRACE_KINDS",
    "TRACE_SCHEMA_VERSION",
    "TraceInfo",
    "TraceReader",
    "TraceStore",
    "TraceWriter",
    "import_jsonl",
    "ingest_checkpoint",
    "ingest_tls",
    "ingest_tm",
    "load_trace_workload",
]
