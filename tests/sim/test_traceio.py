"""Tests for trace serialisation."""

import json

import pytest

from repro.errors import TraceError
from repro.sim.traceio import (
    load_tls_tasks,
    load_tm_traces,
    save_tls_tasks,
    save_tm_traces,
)
from repro.workloads.kernels import build_tm_workload
from repro.workloads.tls_spec import build_tls_workload


class TestTmRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        traces = build_tm_workload("mc", num_threads=3, txns_per_thread=2)
        path = tmp_path / "mc.jsonl"
        save_tm_traces(path, traces)
        reloaded = load_tm_traces(path)
        assert len(reloaded) == len(traces)
        for a, b in zip(traces, reloaded):
            assert a.thread_id == b.thread_id
            assert a.events == b.events

    def test_reloaded_traces_simulate_identically(self, tmp_path):
        from repro.tm.lazy import LazyScheme
        from repro.tm.system import TmSystem

        traces = build_tm_workload("series", num_threads=2, txns_per_thread=2)
        path = tmp_path / "series.jsonl"
        save_tm_traces(path, traces)
        first = TmSystem(traces, LazyScheme()).run()
        second = TmSystem(load_tm_traces(path), LazyScheme()).run()
        assert first.cycles == second.cycles
        assert first.memory == second.memory

    def test_event_before_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('["l", 64]\n')
        with pytest.raises(TraceError):
            load_tm_traces(path)

    def test_malformed_event_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "thread", "id": 0}\n["zz"]\n')
        with pytest.raises(TraceError):
            load_tm_traces(path)

    def test_wrong_header_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "task", "id": 0, "spawn": 0}\n')
        with pytest.raises(TraceError):
            load_tm_traces(path)


class TestTlsRoundTrip:
    def test_round_trip_preserves_spawn_cursor(self, tmp_path):
        tasks = build_tls_workload("gzip", num_tasks=8)
        path = tmp_path / "gzip.jsonl"
        save_tls_tasks(path, tasks)
        reloaded = load_tls_tasks(path)
        assert len(reloaded) == 8
        for a, b in zip(tasks, reloaded):
            assert a.task_id == b.task_id
            assert a.spawn_cursor == b.spawn_cursor
            assert a.events == b.events

    def test_blank_lines_tolerated(self, tmp_path):
        tasks = build_tls_workload("mcf", num_tasks=2)
        path = tmp_path / "mcf.jsonl"
        save_tls_tasks(path, tasks)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_tls_tasks(path)) == 2


HEADERS = {
    "tm": {"kind": "thread", "id": 0},
    "tls": {"kind": "task", "id": 0, "spawn": 0},
    "checkpoint": {"kind": "epoch", "mispredicted": False},
}


#: Corrupt line builders, given the kind's valid header.
CORRUPT_LINES = {
    "not-json": lambda header: "{not json",
    # A lone surrogate, written below as the invalid UTF-8 byte 0xff.
    "not-utf8": lambda header: "\udcff",
    "scalar-row": lambda header: "7",
    "empty-list": lambda header: "[]",
    "header-without-fields": lambda header: json.dumps(
        {"kind": header["kind"]}
    ),
    # The first field after "kind": the id, or the epoch's flag.
    "non-integer-header-field": lambda header: json.dumps(
        {**header, list(header)[1]: "seven"}
    ),
}


def _import(kind):
    def read(path):
        from repro.trace import TraceStore, import_jsonl

        import_jsonl(TraceStore(path.parent / "store"), path, kind)

    return read


READERS = {
    "load_tm_traces": ("tm", load_tm_traces),
    "load_tls_tasks": ("tls", load_tls_tasks),
    "import_jsonl-tm": ("tm", _import("tm")),
    "import_jsonl-tls": ("tls", _import("tls")),
    "import_jsonl-checkpoint": ("checkpoint", _import("checkpoint")),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("corrupt", sorted(CORRUPT_LINES))
def test_corrupt_line_is_a_trace_error_with_its_location(
    tmp_path, reader, corrupt
):
    kind, read = READERS[reader]
    header = HEADERS[kind]
    path = tmp_path / "corrupt.jsonl"
    text = (
        json.dumps(header) + "\n"
        + json.dumps(["l", 64]) + "\n"
        + CORRUPT_LINES[corrupt](header) + "\n"
    )
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(TraceError, match=r"corrupt\.jsonl:3: "):
        read(path)
