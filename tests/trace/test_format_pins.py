"""The trace format, pinned across versions.

The other trace tests check determinism within one process.  These pin
SHA-256 digests, so a store or a JSONL file written by an older version
still resolves to the same ids and bytes.  The values were computed
before the format code was folded into :mod:`repro.sim.traceio`; a
change here is a format change and needs a schema bump.
"""

import hashlib
import json

import pytest

from repro.checkpoint.workload import build_checkpoint_workload
from repro.sim.traceio import save_tls_tasks, save_tm_traces
from repro.trace import (
    TraceStore,
    import_jsonl,
    ingest_checkpoint,
    ingest_tls,
    ingest_tm,
)
from repro.workloads.kernels import build_tm_workload
from repro.workloads.tls_spec import build_tls_workload

SAVED_BYTES = {
    "tm": "06bcda0af4c4acc7bc55052efda89dae6eddbb50996ffaf562fc322c8dea2921",
    "tls": "2318580e35436b8a76f9444eb44b88989af1d20313af7c31c8f379b99a6bc3e3",
}

INGEST_IDS = {
    "tm": "e995cb496ad41c602dccea60399a68b39a819078a0b4039b7b574acd0eb80df8",
    "tls": "cd7989820581e27912bf11d5713ef575b39189a1cd2baa8c9ae583f8101b8044",
    "checkpoint":
        "5549bc3695b2b06c9a641ed73a567fa0fdda8a6093789177a844a9ea4d9735d5",
}

IMPORT_IDS = {
    "tm": "8fadea42945b480cb489da2cdf010370f14a1fa25eb24fb7b023df875bfcb9fd",
    "tls": "9bc81e5a234ade8c3a6e1870b8a0a797e17d9b246408603fecb3d61c0de910c2",
    "checkpoint":
        "5549bc3695b2b06c9a641ed73a567fa0fdda8a6093789177a844a9ea4d9735d5",
}


def write_file(directory, kind):
    """One small generated workload of ``kind`` as a JSONL file."""
    path = directory / f"{kind}.jsonl"
    if kind == "tm":
        save_tm_traces(path, build_tm_workload(
            "mc", num_threads=3, txns_per_thread=2, seed=42
        ))
    elif kind == "tls":
        save_tls_tasks(path, build_tls_workload("gzip", num_tasks=8, seed=42))
    else:
        # No save_* exists for epochs; write the documented form by hand.
        lines = []
        for epoch in build_checkpoint_workload(
            "predictor", num_epochs=8, seed=42
        ):
            lines.append(json.dumps(
                {"kind": "epoch", "mispredicted": epoch.mispredicted}
            ))
            for op, address, value in epoch.ops:
                row = ["l", address] if op == "load" else ["s", address, value]
                lines.append(json.dumps(row))
        path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("kind", sorted(SAVED_BYTES))
def test_saved_bytes_are_pinned(tmp_path, kind):
    digest = hashlib.sha256(write_file(tmp_path, kind).read_bytes())
    assert digest.hexdigest() == SAVED_BYTES[kind]


@pytest.mark.parametrize("kind", sorted(INGEST_IDS))
def test_ingest_ids_are_pinned(tmp_path, kind):
    store = TraceStore(tmp_path)
    result = {
        "tm": lambda: ingest_tm(store, "mc", num_threads=2, txns_per_thread=3),
        "tls": lambda: ingest_tls(store, "gzip", num_tasks=12),
        "checkpoint": lambda: ingest_checkpoint(
            store, "predictor", num_epochs=8
        ),
    }[kind]()
    assert result.trace_id == INGEST_IDS[kind]


@pytest.mark.parametrize("kind", sorted(IMPORT_IDS))
def test_import_ids_are_pinned(tmp_path, kind):
    path = write_file(tmp_path, kind)
    result = import_jsonl(TraceStore(tmp_path / "store"), path, kind)
    assert result.trace_id == IMPORT_IDS[kind]
