"""The content-addressed trace store: identity, streaming, integrity.

The store's contract has three load-bearing clauses:

* the trace id hashes the *logical record stream*, so chunking is an
  on-disk detail — any chunk size, same id;
* reads stream one chunk at a time, so peak reader memory is bounded by
  the chunk size, not the trace size;
* every chunk is integrity-checked, and a sealed trace re-hashes to its
  own id.
"""

import zlib

import pytest

from repro.errors import TraceError
from repro.sim.traceio import FORMATS, TRACE_KINDS
from repro.trace import TraceStore
from repro.trace.records import (
    decode_record,
    encode_record,
    validate_record,
)


def tm_rows(threads=3, events_per_thread=50):
    rows = []
    for thread in range(threads):
        rows.append(["T", thread])
        for i in range(events_per_thread):
            if i % 3 == 0:
                rows.append(["s", 4 * i, thread + i])
            elif i % 3 == 1:
                rows.append(["l", 4 * i])
            else:
                rows.append(["c", 2])
    return rows


def ingest_rows(store, rows, kind="tm", chunk_bytes=4096, label="t"):
    writer = store.writer(kind, label=label, chunk_bytes=chunk_bytes)
    writer.add_all(rows)
    return writer.finish()


class TestRecords:
    def test_encode_decode_round_trip(self):
        for row in (["T", 3], ["l", 4096], ["s", 8, 99], ["c", 7], ["b"],
                    ["e"], ["K", 1, 2], ["E", 0]):
            assert decode_record(encode_record(row).rstrip(b"\n")) == row

    def test_encoding_is_canonical_compact_json(self):
        assert encode_record(["s", 8, 99]) == b'["s",8,99]\n'

    def test_unknown_tags_and_arity_are_rejected(self):
        with pytest.raises(TraceError):
            validate_record(["x", 1], "tm")
        with pytest.raises(TraceError):
            validate_record(["l", 1, 2], "tm")

    def test_headers_must_match_the_kind(self):
        for kind in TRACE_KINDS:
            for other, fmt in FORMATS.items():
                row = {"T": ["T", 0], "K": ["K", 0, 0], "E": ["E", 0]}[fmt.tag]
                if other == kind:
                    validate_record(row, kind)
                else:
                    with pytest.raises(TraceError):
                        validate_record(row, kind)

    def test_checkpoint_traces_hold_only_loads_and_stores(self):
        for row in (["c", 1], ["b"], ["e"]):
            with pytest.raises(TraceError):
                validate_record(row, "checkpoint")

    def test_tls_traces_have_no_transaction_markers(self):
        for row in (["b"], ["e"]):
            with pytest.raises(TraceError):
                validate_record(row, "tls")


class TestContentAddressing:
    def test_round_trip_is_lossless(self, tmp_path):
        store = TraceStore(tmp_path)
        rows = tm_rows()
        result = ingest_rows(store, rows)
        assert result.num_records == len(rows)
        assert result.num_streams == 3
        replayed = list(store.reader(result.trace_id).records())
        assert replayed == rows

    def test_trace_id_is_chunk_size_independent(self, tmp_path):
        rows = tm_rows()
        ids = set()
        for chunk_bytes in (64, 512, 4096, 1 << 20):
            store = TraceStore(tmp_path / str(chunk_bytes))
            ids.add(ingest_rows(store, rows, chunk_bytes=chunk_bytes).trace_id)
        assert len(ids) == 1

    def test_reingesting_same_content_deduplicates(self, tmp_path):
        store = TraceStore(tmp_path)
        rows = tm_rows()
        first = ingest_rows(store, rows, chunk_bytes=4096)
        second = ingest_rows(store, rows, chunk_bytes=128, label="other")
        assert second.trace_id == first.trace_id
        assert not first.deduplicated
        assert second.deduplicated
        assert len(store.traces()) == 1

    def test_different_kinds_never_share_an_id(self, tmp_path):
        store = TraceStore(tmp_path)
        rows = [["l", 4], ["s", 8, 1]]
        tm_id = ingest_rows(store, [["T", 0]] + rows).trace_id
        ckpt_id = ingest_rows(store, [["E", 0]] + rows, kind="checkpoint").trace_id
        assert tm_id != ckpt_id

    def test_label_and_meta_do_not_change_the_id(self, tmp_path):
        rows = tm_rows(threads=1, events_per_thread=5)
        a = TraceStore(tmp_path / "a")
        b = TraceStore(tmp_path / "b")
        writer = b.writer("tm", label="zzz", meta={"app": "x"})
        writer.add_all(rows)
        assert ingest_rows(a, rows).trace_id == writer.finish().trace_id


class TestStreamingReads:
    def test_multi_chunk_round_trip(self, tmp_path):
        store = TraceStore(tmp_path)
        rows = tm_rows(threads=4, events_per_thread=200)
        result = ingest_rows(store, rows, chunk_bytes=256)
        assert result.num_chunks > 1
        reader = store.reader(result.trace_id)
        assert list(reader.records()) == rows
        assert reader.records_read == len(rows)
        assert reader.chunks_read == result.num_chunks

    def test_peak_memory_is_bounded_by_the_chunk_budget(self, tmp_path):
        store = TraceStore(tmp_path)
        rows = tm_rows(threads=4, events_per_thread=400)
        chunk_bytes = 512
        result = ingest_rows(store, rows, chunk_bytes=chunk_bytes)
        assert result.encoded_bytes > 20 * chunk_bytes
        reader = store.reader(result.trace_id)
        list(reader.records())
        # One record can overshoot the budget (the flush happens after
        # the add that crossed it), never more.
        longest = max(len(r) for r in
                      (str(row).encode() for row in rows))
        assert reader.peak_resident_bytes <= chunk_bytes + longest + 16
        assert reader.peak_resident_bytes < result.encoded_bytes

    def test_obs_counters_track_the_replay(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        store = TraceStore(tmp_path)
        rows = tm_rows(threads=2, events_per_thread=100)
        result = ingest_rows(store, rows, chunk_bytes=256)
        metrics = MetricsRegistry()
        list(store.reader(result.trace_id, metrics=metrics).records())
        snapshot = metrics.snapshot()["counters"]
        assert snapshot["trace.chunks_read"] == result.num_chunks
        assert snapshot["trace.bytes_streamed"] == result.encoded_bytes
        assert snapshot["trace.records_replayed"] == len(rows)


class TestIntegrity:
    def test_verify_rehashes_to_the_trace_id(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_rows(store, tm_rows(), chunk_bytes=512)
        assert store.reader(result.trace_id).verify() == result.trace_id

    def test_corrupt_chunk_is_detected(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_rows(store, tm_rows(), chunk_bytes=512)
        chunk = next(iter((store.chunks_root / result.trace_id).glob("*.z")))
        chunk.write_bytes(zlib.compress(b'["l",1]\n'))
        with pytest.raises(TraceError, match="corrupt"):
            list(store.reader(result.trace_id).records())

    def test_missing_chunk_is_reported(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_rows(store, tm_rows(), chunk_bytes=512)
        next(iter((store.chunks_root / result.trace_id).glob("*.z"))).unlink()
        with pytest.raises(TraceError, match="missing"):
            list(store.reader(result.trace_id).records())

    def test_schema_mismatch_refuses_to_open(self, tmp_path):
        import sqlite3

        TraceStore(tmp_path)
        with sqlite3.connect(tmp_path / "index.sqlite") as connection:
            connection.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
        with pytest.raises(TraceError, match="schema"):
            TraceStore(tmp_path)


class TestWriterGuards:
    def test_empty_traces_are_refused(self, tmp_path):
        writer = TraceStore(tmp_path).writer("tm")
        with pytest.raises(TraceError, match="empty"):
            writer.finish()

    def test_events_before_any_header_are_refused(self, tmp_path):
        writer = TraceStore(tmp_path).writer("tm")
        with pytest.raises(TraceError, match="before any stream header"):
            writer.add(["l", 4])
        writer.abort()

    def test_unknown_kind_is_refused(self, tmp_path):
        with pytest.raises(TraceError, match="unknown trace kind"):
            TraceStore(tmp_path).writer("gpu")

    def test_unknown_trace_id_raises(self, tmp_path):
        with pytest.raises(TraceError, match="not in the store"):
            TraceStore(tmp_path).info("f" * 64)

    def test_abort_leaves_no_staging_directories(self, tmp_path):
        store = TraceStore(tmp_path)
        writer = store.writer("tm", chunk_bytes=64)
        writer.add(["T", 0])
        for i in range(50):
            writer.add(["l", 4 * i])
        writer.abort()
        assert list(store.chunks_root.iterdir()) == []


class TestVerifyCorruption:
    """``verify()`` pinpoints the damaged chunk, and damage to one trace
    never makes the rest of the store unreadable."""

    def _store_with_two_traces(self, tmp_path):
        store = TraceStore(tmp_path)
        victim = ingest_rows(store, tm_rows(), chunk_bytes=512)
        assert victim.num_chunks >= 2, "need a multi-chunk victim"
        healthy = ingest_rows(
            store, tm_rows(threads=2, events_per_thread=7), label="healthy"
        )
        return store, victim, healthy

    @staticmethod
    def _first_chunk(store, trace_id):
        return min((store.chunks_root / trace_id).glob("*.z"))

    def _assert_rest_of_store_readable(self, store, healthy):
        assert store.reader(healthy.trace_id).verify() == healthy.trace_id
        assert {info.trace_id for info in store.traces()} >= {
            healthy.trace_id
        }

    def test_flipped_byte_names_the_chunk(self, tmp_path):
        store, victim, healthy = self._store_with_two_traces(tmp_path)
        chunk = self._first_chunk(store, victim.trace_id)
        raw = bytearray(chunk.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        chunk.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match=chunk.name):
            store.reader(victim.trace_id).verify()
        self._assert_rest_of_store_readable(store, healthy)

    def test_truncated_chunk_names_the_chunk(self, tmp_path):
        store, victim, healthy = self._store_with_two_traces(tmp_path)
        chunk = self._first_chunk(store, victim.trace_id)
        raw = chunk.read_bytes()
        chunk.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TraceError, match=chunk.name):
            store.reader(victim.trace_id).verify()
        self._assert_rest_of_store_readable(store, healthy)

    def test_truncation_behind_a_tampered_index_still_fails_cleanly(
        self, tmp_path
    ):
        """Even if the index's SHA-256 is doctored to match the truncated
        bytes, the undecompressable chunk surfaces as a TraceError naming
        the chunk — never a raw zlib exception."""
        import hashlib
        import sqlite3

        store, victim, healthy = self._store_with_two_traces(tmp_path)
        chunk = self._first_chunk(store, victim.trace_id)
        truncated = chunk.read_bytes()[:-8]
        chunk.write_bytes(truncated)
        with sqlite3.connect(store.index_path) as connection:
            connection.execute(
                "UPDATE chunks SET sha256 = ? "
                "WHERE trace_id = ? AND filename = ?",
                (
                    hashlib.sha256(truncated).hexdigest(),
                    victim.trace_id,
                    chunk.name,
                ),
            )
        with pytest.raises(TraceError, match=chunk.name):
            store.reader(victim.trace_id).verify()
        self._assert_rest_of_store_readable(store, healthy)

    def test_missing_chunk_row_is_reported(self, tmp_path):
        import sqlite3

        store, victim, healthy = self._store_with_two_traces(tmp_path)
        with sqlite3.connect(store.index_path) as connection:
            connection.execute(
                "DELETE FROM chunks WHERE trace_id = ? AND seq = 0",
                (victim.trace_id,),
            )
        with pytest.raises(TraceError, match="chunks"):
            store.reader(victim.trace_id)
        self._assert_rest_of_store_readable(store, healthy)
