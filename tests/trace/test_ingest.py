"""Ingest: kernel capture and the external-JSONL converter.

Capture must be deterministic (same sizing + seed ⇒ same trace id) and
lossless (what the generators built is exactly what replay reads back);
the JSONL converter must accept the :mod:`repro.sim.traceio` format and
reject anything the replay adapters could not interpret.
"""

import json

import pytest

from repro.errors import TraceError
from repro.sim.traceio import from_records, to_records
from repro.trace import (
    TraceStore,
    import_jsonl,
    ingest_checkpoint,
    ingest_tls,
    ingest_tm,
    load_trace_workload,
)


class TestKernelCapture:
    def test_tm_ingest_is_deterministic(self, tmp_path):
        a = ingest_tm(tmp_path / "a", "mc", num_threads=2, txns_per_thread=3)
        b = ingest_tm(tmp_path / "b", "mc", num_threads=2, txns_per_thread=3)
        assert a.trace_id == b.trace_id

    def test_sizing_and_seed_change_the_id(self, tmp_path):
        store = TraceStore(tmp_path)
        base = ingest_tm(store, "mc", num_threads=2, txns_per_thread=3)
        other_seed = ingest_tm(store, "mc", num_threads=2, txns_per_thread=3,
                               seed=7)
        other_size = ingest_tm(store, "mc", num_threads=2, txns_per_thread=4)
        assert len({base.trace_id, other_seed.trace_id,
                    other_size.trace_id}) == 3

    def test_tm_capture_matches_the_generator(self, tmp_path):
        from repro.workloads.kernels import build_tm_workload

        store = TraceStore(tmp_path)
        result = ingest_tm(store, "cb", num_threads=2, txns_per_thread=2,
                           seed=3)
        replayed = load_trace_workload("tm", store, result.trace_id)
        built = build_tm_workload("cb", num_threads=2, txns_per_thread=2,
                                  seed=3)
        round_trip = from_records("tm", to_records("tm", built))
        for units in (replayed, round_trip):
            assert [(t.thread_id, t.events) for t in units] == (
                [(t.thread_id, t.events) for t in built]
            )

    def test_tls_capture_matches_the_generator(self, tmp_path):
        from repro.workloads.tls_spec import build_tls_workload

        store = TraceStore(tmp_path)
        result = ingest_tls(store, "gzip", num_tasks=12, seed=3)
        replayed = load_trace_workload("tls", store, result.trace_id)
        built = build_tls_workload("gzip", num_tasks=12, seed=3)
        round_trip = from_records("tls", to_records("tls", built))
        for units in (replayed, round_trip):
            assert [(t.task_id, t.spawn_cursor, t.events) for t in units] == (
                [(t.task_id, t.spawn_cursor, t.events) for t in built]
            )

    def test_checkpoint_capture_matches_the_generator(self, tmp_path):
        from repro.checkpoint.workload import build_checkpoint_workload

        store = TraceStore(tmp_path)
        result = ingest_checkpoint(store, "predictor", num_epochs=8)
        replayed = load_trace_workload("checkpoint", store, result.trace_id)
        built = build_checkpoint_workload("predictor", num_epochs=8)
        round_trip = from_records("checkpoint", to_records("checkpoint", built))
        for units in (replayed, round_trip):
            assert [(e.ops, e.mispredicted) for e in units] == (
                [(e.ops, e.mispredicted) for e in built]
            )

    def test_meta_records_the_capture_parameters(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_tls(store, "crafty", num_tasks=9, seed=5)
        info = store.info(result.trace_id)
        assert info.kind == "tls"
        assert info.label == "crafty"
        assert info.meta == {"app": "crafty", "num_tasks": 9, "seed": 5}


class TestJsonlImport:
    def test_traceio_file_imports_to_the_same_id_as_direct_ingest(
        self, tmp_path
    ):
        from repro.sim.traceio import save_tm_traces
        from repro.workloads.kernels import build_tm_workload

        traces = build_tm_workload("mc", num_threads=2, txns_per_thread=2,
                                   seed=42)
        path = tmp_path / "mc.jsonl"
        save_tm_traces(path, traces)
        store = TraceStore(tmp_path / "store")
        imported = import_jsonl(store, path, "tm")
        direct = ingest_tm(store, "mc", num_threads=2, txns_per_thread=2)
        assert imported.trace_id == direct.trace_id
        assert direct.deduplicated  # same content, imported first

    def test_tls_traceio_file_imports(self, tmp_path):
        from repro.sim.traceio import save_tls_tasks
        from repro.workloads.tls_spec import build_tls_workload

        tasks = build_tls_workload("vpr", num_tasks=6, seed=42)
        path = tmp_path / "vpr.jsonl"
        save_tls_tasks(path, tasks)
        store = TraceStore(tmp_path / "store")
        imported = import_jsonl(store, path, "tls")
        assert imported.trace_id == ingest_tls(
            store, "vpr", num_tasks=6
        ).trace_id

    def test_checkpoint_epoch_headers_import(self, tmp_path):
        path = tmp_path / "epochs.jsonl"
        lines = [
            json.dumps({"kind": "epoch", "mispredicted": False}),
            json.dumps(["l", 64]),
            json.dumps(["s", 64, 7]),
            json.dumps({"kind": "epoch", "mispredicted": True}),
            json.dumps(["s", 128, 9]),
        ]
        path.write_text("\n".join(lines) + "\n")
        store = TraceStore(tmp_path / "store")
        result = import_jsonl(store, path, "checkpoint")
        assert result.num_streams == 2
        assert result.num_records == 5

    def test_label_defaults_to_the_file_stem(self, tmp_path):
        path = tmp_path / "external-run.jsonl"
        path.write_text(
            json.dumps({"kind": "thread", "id": 0}) + "\n"
            + json.dumps(["l", 4]) + "\n"
        )
        store = TraceStore(tmp_path / "store")
        result = import_jsonl(store, path, "tm")
        assert store.info(result.trace_id).label == "external-run"

    def test_wrong_header_kind_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "task", "id": 0, "spawn": 0}) + "\n")
        with pytest.raises(TraceError, match="expected a 'thread' header"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "tm")

    def test_event_before_header_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(["l", 4]) + "\n")
        with pytest.raises(TraceError, match="before any header"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "tm")

    def test_garbage_lines_are_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "thread", "id": 0}) + "\n{not json\n"
        )
        with pytest.raises(TraceError, match="bad.jsonl:2"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "tm")

    def test_unknown_kind_is_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="unknown trace kind"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "gpu")

    def test_checkpoint_markers_are_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "epoch", "mispredicted": False}) + "\n"
            + json.dumps(["b"]) + "\n"
        )
        with pytest.raises(TraceError, match="loads and stores"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "checkpoint")

    def test_failed_import_leaves_no_partial_trace(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "thread", "id": 0}) + "\n"
            + json.dumps(["l", 4]) + "\n"
            + "garbage\n"
        )
        store = TraceStore(tmp_path / "store")
        with pytest.raises(TraceError):
            import_jsonl(store, path, "tm")
        assert store.traces() == []
        assert list(store.chunks_root.iterdir()) == []
