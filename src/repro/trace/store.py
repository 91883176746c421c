"""The content-addressed on-disk trace store.

Layout (all under one store directory)::

    index.sqlite                 -- the queryable index (schema-versioned)
    chunks/<trace_id>/000000.z   -- zlib-compressed runs of record lines
    chunks/<trace_id>/000001.z
    ...

A trace's identity is the SHA-256 over its canonical record stream (see
:mod:`repro.trace.records`) — **not** over the chunk files — so the same
logical trace ingested with any chunk size lands on the same id, and an
id fully pins what replay will produce.  Ingesting a trace the store
already holds is a no-op (content dedupe).

Writes are crash-safe in the result-cache style: chunks are written to a
per-ingest staging directory and the whole directory is renamed into
place before the index rows are inserted, so a crashed ingest leaves at
worst an unreferenced staging directory, never a half-indexed trace.

Reads stream: :class:`TraceReader` decompresses one chunk at a time and
yields records, so peak memory is bounded by the chunk size no matter
how large the trace is.  Chunk files are integrity-checked against the
SHA-256 recorded at ingest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pathlib
import shutil
import sqlite3
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import TraceError
from repro.sim.traceio import TRACE_KINDS
from repro.trace.records import (
    TRACE_SCHEMA_VERSION,
    decode_record,
    encode_record,
    validate_record,
)

#: Default budget of *encoded* record bytes per chunk (256 KiB).
DEFAULT_CHUNK_BYTES = 256 * 1024

#: Distinguishes concurrent ingests of one process into one store.
_STAGING_COUNTER = itertools.count()


def _connect(path: pathlib.Path) -> sqlite3.Connection:
    connection = sqlite3.connect(str(path))
    connection.row_factory = sqlite3.Row
    return connection


@dataclass(frozen=True)
class TraceInfo:
    """One trace's index entry."""

    trace_id: str
    kind: str
    label: str
    num_streams: int
    num_records: int
    num_chunks: int
    encoded_bytes: int
    meta: Dict[str, Any]


@dataclass(frozen=True)
class IngestResult:
    """What one :meth:`TraceWriter.finish` call produced."""

    trace_id: str
    num_streams: int
    num_records: int
    num_chunks: int
    encoded_bytes: int
    #: The store already held this content; nothing was written.
    deduplicated: bool


class TraceStore:
    """A directory of content-addressed traces with a SQLite index."""

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chunks_root = self.directory / "chunks"
        self.chunks_root.mkdir(exist_ok=True)
        self.index_path = self.directory / "index.sqlite"
        self._init_index()

    # ------------------------------------------------------------------
    # Index schema
    # ------------------------------------------------------------------

    def _init_index(self) -> None:
        with _connect(self.index_path) as connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS traces ("
                " trace_id TEXT PRIMARY KEY,"
                " kind TEXT NOT NULL,"
                " label TEXT NOT NULL,"
                " num_streams INTEGER NOT NULL,"
                " num_records INTEGER NOT NULL,"
                " num_chunks INTEGER NOT NULL,"
                " encoded_bytes INTEGER NOT NULL,"
                " meta_json TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS chunks ("
                " trace_id TEXT NOT NULL,"
                " seq INTEGER NOT NULL,"
                " filename TEXT NOT NULL,"
                " num_records INTEGER NOT NULL,"
                " encoded_bytes INTEGER NOT NULL,"
                " compressed_bytes INTEGER NOT NULL,"
                " sha256 TEXT NOT NULL,"
                " PRIMARY KEY (trace_id, seq))"
            )
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(TRACE_SCHEMA_VERSION)),
                )
            elif int(row["value"]) != TRACE_SCHEMA_VERSION:
                raise TraceError(
                    f"trace store {self.directory} has schema "
                    f"{row['value']}, this build speaks "
                    f"{TRACE_SCHEMA_VERSION}"
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has(self, trace_id: str) -> bool:
        """Whether the store holds a trace (index entry present)."""
        with _connect(self.index_path) as connection:
            row = connection.execute(
                "SELECT 1 FROM traces WHERE trace_id = ?", (trace_id,)
            ).fetchone()
        return row is not None

    def info(self, trace_id: str) -> TraceInfo:
        """The index entry of one trace (unknown ids raise)."""
        with _connect(self.index_path) as connection:
            row = connection.execute(
                "SELECT * FROM traces WHERE trace_id = ?", (trace_id,)
            ).fetchone()
        if row is None:
            raise TraceError(
                f"trace {trace_id!r} is not in the store at {self.directory}"
            )
        return TraceInfo(
            trace_id=row["trace_id"],
            kind=row["kind"],
            label=row["label"],
            num_streams=row["num_streams"],
            num_records=row["num_records"],
            num_chunks=row["num_chunks"],
            encoded_bytes=row["encoded_bytes"],
            meta=json.loads(row["meta_json"]),
        )

    def traces(self) -> List[TraceInfo]:
        """Every stored trace, ordered by (kind, label, id)."""
        with _connect(self.index_path) as connection:
            ids = [
                row["trace_id"]
                for row in connection.execute(
                    "SELECT trace_id FROM traces "
                    "ORDER BY kind, label, trace_id"
                )
            ]
        return [self.info(trace_id) for trace_id in ids]

    def _chunk_rows(self, trace_id: str) -> List[sqlite3.Row]:
        with _connect(self.index_path) as connection:
            return connection.execute(
                "SELECT * FROM chunks WHERE trace_id = ? ORDER BY seq",
                (trace_id,),
            ).fetchall()

    # ------------------------------------------------------------------
    # Writing and reading
    # ------------------------------------------------------------------

    def writer(
        self,
        kind: str,
        label: str = "",
        meta: Optional[Dict[str, Any]] = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ) -> "TraceWriter":
        """Open a writer for one new trace of substrate ``kind``."""
        return TraceWriter(self, kind, label, meta or {}, chunk_bytes)

    def reader(
        self, trace_id: str, metrics: Optional[Any] = None
    ) -> "TraceReader":
        """A streaming reader over one stored trace.

        ``metrics`` (an :class:`~repro.obs.metrics.MetricsRegistry`, or
        ``None``) receives the ``trace.chunks_read`` /
        ``trace.bytes_streamed`` / ``trace.records_replayed`` counters.
        """
        return TraceReader(self, trace_id, metrics=metrics)


class TraceWriter:
    """Accumulates one trace's records into chunked, compressed files.

    Use as::

        writer = store.writer("tm", label="mc")
        writer.add(("T", 0))
        writer.add(("l", 0x1000))
        ...
        result = writer.finish()   # -> IngestResult with the trace id

    Records are validated and canonically encoded as they arrive; the
    running SHA-256 over the encoded stream becomes the trace id at
    :meth:`finish`.  Only up to one chunk of encoded records is ever
    held in memory.
    """

    def __init__(
        self,
        store: TraceStore,
        kind: str,
        label: str,
        meta: Dict[str, Any],
        chunk_bytes: int,
    ) -> None:
        if kind not in TRACE_KINDS:
            raise TraceError(
                f"unknown trace kind {kind!r} (kinds: {', '.join(TRACE_KINDS)})"
            )
        if chunk_bytes < 1:
            raise TraceError("chunk_bytes must be >= 1")
        self.store = store
        self.kind = kind
        self.label = label
        self.meta = meta
        self.chunk_bytes = chunk_bytes
        self._digest = hashlib.sha256(
            f"bulk-trace:v{TRACE_SCHEMA_VERSION}:{kind}\n".encode("ascii")
        )
        self._staging = store.chunks_root / (
            f".ingest-{os.getpid()}-{next(_STAGING_COUNTER)}"
        )
        self._staging.mkdir(parents=True, exist_ok=True)
        self._buffer: List[bytes] = []
        self._buffered_bytes = 0
        self._buffered_records = 0
        #: (filename, num_records, encoded_bytes, compressed_bytes, sha256)
        self._chunks: List[tuple] = []
        self.num_records = 0
        self.num_streams = 0
        self.encoded_bytes = 0
        self._finished = False

    # ------------------------------------------------------------------

    def add(self, row: Sequence) -> None:
        """Append one record (a header or event row)."""
        if self._finished:
            raise TraceError("trace writer already finished")
        validate_record(row, self.kind)
        if row and row[0] in ("T", "K", "E"):
            self.num_streams += 1
        elif self.num_streams == 0:
            raise TraceError(
                f"event record {list(row)!r} before any stream header"
            )
        encoded = encode_record(row)
        self._digest.update(encoded)
        self._buffer.append(encoded)
        self._buffered_bytes += len(encoded)
        self._buffered_records += 1
        self.num_records += 1
        self.encoded_bytes += len(encoded)
        if self._buffered_bytes >= self.chunk_bytes:
            self._flush_chunk()

    def add_all(self, rows: "Sequence[Sequence] | Iterator[Sequence]") -> None:
        """Append many records."""
        for row in rows:
            self.add(row)

    def _flush_chunk(self) -> None:
        if not self._buffer:
            return
        payload = b"".join(self._buffer)
        compressed = zlib.compress(payload, 6)
        filename = f"{len(self._chunks):06d}.z"
        (self._staging / filename).write_bytes(compressed)
        self._chunks.append(
            (
                filename,
                self._buffered_records,
                len(payload),
                len(compressed),
                hashlib.sha256(compressed).hexdigest(),
            )
        )
        self._buffer = []
        self._buffered_bytes = 0
        self._buffered_records = 0

    def abort(self) -> None:
        """Discard everything staged so far (crash-cleanup helper)."""
        self._finished = True
        shutil.rmtree(self._staging, ignore_errors=True)

    def finish(self) -> IngestResult:
        """Seal the trace: compute its id, publish chunks, index it.

        Content the store already holds is deduplicated — the staged
        chunks are discarded and the existing id is returned.
        """
        if self._finished:
            raise TraceError("trace writer already finished")
        if self.num_records == 0:
            self.abort()
            raise TraceError("refusing to store an empty trace")
        self._flush_chunk()
        self._finished = True
        trace_id = self._digest.hexdigest()
        result = IngestResult(
            trace_id=trace_id,
            num_streams=self.num_streams,
            num_records=self.num_records,
            num_chunks=len(self._chunks),
            encoded_bytes=self.encoded_bytes,
            deduplicated=False,
        )
        final_dir = self.store.chunks_root / trace_id
        if self.store.has(trace_id) or final_dir.exists():
            shutil.rmtree(self._staging, ignore_errors=True)
            info = self.store.info(trace_id)
            return IngestResult(
                trace_id=trace_id,
                num_streams=info.num_streams,
                num_records=info.num_records,
                num_chunks=info.num_chunks,
                encoded_bytes=info.encoded_bytes,
                deduplicated=True,
            )
        try:
            os.replace(self._staging, final_dir)
        except OSError:
            # A concurrent ingest of the same content won the rename;
            # content-addressing makes the copies interchangeable.
            shutil.rmtree(self._staging, ignore_errors=True)
        with _connect(self.store.index_path) as connection:
            connection.execute(
                "INSERT OR IGNORE INTO traces (trace_id, kind, label,"
                " num_streams, num_records, num_chunks, encoded_bytes,"
                " meta_json) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    trace_id,
                    self.kind,
                    self.label,
                    self.num_streams,
                    self.num_records,
                    len(self._chunks),
                    self.encoded_bytes,
                    json.dumps(self.meta, sort_keys=True),
                ),
            )
            connection.executemany(
                "INSERT OR IGNORE INTO chunks (trace_id, seq, filename,"
                " num_records, encoded_bytes, compressed_bytes, sha256)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    (trace_id, seq, *chunk)
                    for seq, chunk in enumerate(self._chunks)
                ],
            )
        return result


class TraceReader:
    """Streams one stored trace's records, one chunk resident at a time.

    Besides the record generator (:meth:`records`), the reader tracks

    * :attr:`records_read` — the replay position, and
    * :attr:`peak_resident_bytes` — the largest decoded chunk held so
      far, which the streaming tests pin against the chunk budget.
    """

    def __init__(
        self,
        store: TraceStore,
        trace_id: str,
        metrics: Optional[Any] = None,
    ) -> None:
        self.store = store
        self.info = store.info(trace_id)
        self._chunk_rows = store._chunk_rows(trace_id)
        if len(self._chunk_rows) != self.info.num_chunks:
            raise TraceError(
                f"trace {trace_id!r}: index lists {self.info.num_chunks} "
                f"chunks but {len(self._chunk_rows)} are recorded"
            )
        self.records_read = 0
        self.chunks_read = 0
        self.peak_resident_bytes = 0
        if metrics is not None:
            self._m_chunks = metrics.counter("trace.chunks_read")
            self._m_bytes = metrics.counter("trace.bytes_streamed")
            self._m_position = metrics.counter("trace.records_replayed")
        else:
            self._m_chunks = None
            self._m_bytes = None
            self._m_position = None

    @property
    def trace_id(self) -> str:
        return self.info.trace_id

    def _decoded_chunk(self, row: sqlite3.Row) -> bytes:
        path = self.store.chunks_root / self.info.trace_id / row["filename"]
        try:
            compressed = path.read_bytes()
        except OSError as error:
            raise TraceError(
                f"trace {self.info.trace_id!r}: chunk {row['filename']} "
                f"is missing from the store"
            ) from error
        if hashlib.sha256(compressed).hexdigest() != row["sha256"]:
            raise TraceError(
                f"trace {self.info.trace_id!r}: chunk {row['filename']} "
                "is corrupt (SHA-256 mismatch)"
            )
        try:
            payload = zlib.decompress(compressed)
        except zlib.error as error:
            raise TraceError(
                f"trace {self.info.trace_id!r}: chunk {row['filename']} "
                f"fails to decompress ({error})"
            ) from error
        if len(payload) != row["encoded_bytes"]:
            raise TraceError(
                f"trace {self.info.trace_id!r}: chunk {row['filename']} "
                f"decoded to {len(payload)} bytes, "
                f"index says {row['encoded_bytes']}"
            )
        return payload

    def records(self) -> Iterator[List]:
        """Yield every record row, streaming chunk by chunk."""
        for row in self._chunk_rows:
            payload = self._decoded_chunk(row)
            self.chunks_read += 1
            self.peak_resident_bytes = max(
                self.peak_resident_bytes, len(payload)
            )
            if self._m_chunks is not None:
                self._m_chunks.inc()
                self._m_bytes.inc(len(payload))
            for line in payload.splitlines():
                record = decode_record(line)
                self.records_read += 1
                if self._m_position is not None:
                    self._m_position.inc()
                yield record
            del payload

    def verify(self) -> str:
        """Re-hash the full record stream; must equal the trace id."""
        digest = hashlib.sha256(
            f"bulk-trace:v{TRACE_SCHEMA_VERSION}:{self.info.kind}\n".encode(
                "ascii"
            )
        )
        for row in self._chunk_rows:
            digest.update(self._decoded_chunk(row))
        recomputed = digest.hexdigest()
        if recomputed != self.info.trace_id:
            raise TraceError(
                f"trace {self.info.trace_id!r}: content hashes to "
                f"{recomputed!r} — the store is corrupt"
            )
        return recomputed


def open_store(
    store: "TraceStore | str | os.PathLike[str]",
) -> TraceStore:
    """Accept a :class:`TraceStore` or a directory path."""
    if isinstance(store, TraceStore):
        return store
    return TraceStore(store)
