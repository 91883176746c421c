"""The ``repro trace`` command group and the ``--trace-*`` replay flags."""

import json

import pytest

from repro.cli import build_parser, main


def ingest_tls_trace(tmp_path, capsys):
    """Ingest one small TLS trace via the CLI; returns (store, trace_id)."""
    store = str(tmp_path / "store")
    assert main([
        "trace", "ingest", "tls", "gzip", "--tasks", "10", "--store", store,
    ]) == 0
    trace_id = capsys.readouterr().out.strip().splitlines()[-1]
    assert len(trace_id) == 64
    return store, trace_id


class TestParser:
    def test_trace_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_ingest_validates_the_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "ingest", "tm", "doom3", "--store", "s"]
            )

    def test_store_flag_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "ingest", "tm", "mc"])

    def test_replay_flags_parse_on_all_substrates(self):
        for command in ("tm", "tls", "checkpoint"):
            app = {"tm": "mc", "tls": "gzip", "checkpoint": "predictor"}
            args = build_parser().parse_args([
                command, app[command],
                "--trace-store", "dir", "--trace-id", "abc",
            ])
            assert args.trace_store == "dir" and args.trace_id == "abc"


class TestIngestAndInspect:
    def test_ingest_list_info_round_trip(self, tmp_path, capsys):
        store, trace_id = ingest_tls_trace(tmp_path, capsys)
        assert main(["trace", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert trace_id[:16] in out and "gzip" in out
        assert main([
            "trace", "info", trace_id[:12], "--store", store, "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace_id:      {trace_id}" in out
        assert "content verified" in out
        assert "meta.num_tasks: 10" in out

    def test_ingest_is_idempotent(self, tmp_path, capsys):
        store, trace_id = ingest_tls_trace(tmp_path, capsys)
        assert main([
            "trace", "ingest", "tls", "gzip", "--tasks", "10",
            "--store", store,
        ]) == 0
        out = capsys.readouterr().out
        assert "deduplicated" in out
        assert out.strip().splitlines()[-1] == trace_id

    def test_import_jsonl(self, tmp_path, capsys):
        path = tmp_path / "ext.jsonl"
        path.write_text(
            json.dumps({"kind": "thread", "id": 0}) + "\n"
            + json.dumps(["l", 64]) + "\n"
        )
        store = str(tmp_path / "store")
        assert main([
            "trace", "import", str(path), "--kind", "tm", "--store", store,
        ]) == 0
        trace_id = capsys.readouterr().out.strip().splitlines()[-1]
        assert main(["trace", "info", trace_id, "--store", store]) == 0
        assert "label:         ext" in capsys.readouterr().out

    def test_import_of_a_header_without_id_fails_cleanly(
        self, tmp_path, capsys
    ):
        from repro.trace import TraceStore

        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "thread"}) + "\n"
            + json.dumps(["l", 64]) + "\n"
        )
        store = tmp_path / "store"
        assert main([
            "trace", "import", str(path), "--kind", "tm",
            "--store", str(store),
        ]) == 2
        captured = capsys.readouterr()
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("error: ")
        assert "bad.jsonl:1" in err_lines[0]
        assert captured.out == ""
        assert TraceStore(store).traces() == []
        assert list(TraceStore(store).chunks_root.iterdir()) == []

    def test_unknown_id_prefix_errors(self, tmp_path, capsys):
        store, _ = ingest_tls_trace(tmp_path, capsys)
        assert main(["trace", "info", "ffff", "--store", store]) == 2
        assert "error:" in capsys.readouterr().err


class TestReplayFlags:
    def test_tls_replay_runs(self, tmp_path, capsys):
        store, trace_id = ingest_tls_trace(tmp_path, capsys)
        assert main([
            "tls", "gzip", "--trace-store", store, "--trace-id", trace_id,
        ]) == 0
        assert "TLS: gzip" in capsys.readouterr().out

    def test_one_sided_flags_error(self, capsys):
        assert main(["tm", "mc", "--trace-id", "abc"]) == 2
        assert "--trace-store" in capsys.readouterr().err
        assert main(["tls", "gzip", "--trace-store", "somewhere"]) == 2
        assert "--trace-id" in capsys.readouterr().err

    def test_checkpoint_replay_through_the_grid(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "trace", "ingest", "checkpoint", "predictor", "--epochs", "8",
            "--store", store,
        ]) == 0
        trace_id = capsys.readouterr().out.strip().splitlines()[-1]
        assert main([
            "checkpoint", "predictor", "--max-depth", "1", "--jobs", "1",
            "--trace-store", store, "--trace-id", trace_id,
        ]) == 0
        assert "Checkpoint: predictor" in capsys.readouterr().out
