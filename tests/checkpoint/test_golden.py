"""Behaviour pin for the checkpoint substrate.

The 19-artifact golden manifest of ``repro reproduce`` covers TM and TLS
only, so this pin does the same job for checkpointing: one SHA-256 per
(workload, rollback depth, scheme) run, over the per-run statistics a
refactor must not move — cycles, commits, squashes, bus bytes by
category, commit bytes, and rollback (true and false) invalidations.
The sizing is the benchmark's ``ckpt_sweep`` (480 epochs, seed 42).

A refactor leaves every entry unchanged.  A change that is *meant* to
alter behaviour regenerates the manifest with :func:`run_digests` and
names the entries that moved.
"""

import hashlib

import pytest

from repro.checkpoint import (
    CHECKPOINT_DEFAULTS,
    CheckpointSystem,
    build_checkpoint_workload,
)
from repro.coherence.message import BandwidthCategory
from repro.spec import resolve_scheme, scheme_names

APPS = ("hotset", "predictor", "stream")
DEPTHS = (1, 2, 3)
NUM_EPOCHS = 480
SEED = 42

GOLDEN = {
    "hotset/d1/Exact": "ae944a435ab4690a41f56afdadb07aa7e20de525d89d25bb194aa79f59db727f",
    "hotset/d1/Bulk": "6a6ba94baa33d9dc757951e94bacc9b68553a1d515d507cb4b95d31ccb80ede8",
    "hotset/d2/Exact": "0de6730d01433c8216a37c89ecbd1a2adbcc71b6e9c810fe2b04ff3c5631b52e",
    "hotset/d2/Bulk": "49b16c4a318fbf4afc0a87f8d0f61558c0b17d9a713ad30136374d14d426ffa2",
    "hotset/d3/Exact": "1ddafb92a9dc8cefd2c2c4507215b0f7d249ab52fd6335234654b4deb8cbe7a2",
    "hotset/d3/Bulk": "473dc6e43d7dd4a520701a895d16291f404a434a181419491799149c7c846047",
    "predictor/d1/Exact": "7da62e6a88b08fb3bc99ba761ebef5ab05b39f42850fb21f18d8800de08e365e",
    "predictor/d1/Bulk": "58994e189067194b54ff2336465c21d6591a3aeb07e700374bf97d1f2b473772",
    "predictor/d2/Exact": "b100bb0a83a7fa44962401c73e829cf35d8c740f304059b5984c3ebc5144d4b9",
    "predictor/d2/Bulk": "88c6a4a8893933bba24a2e3acf252f9015137739d2c27a7e262b803ac4f726ce",
    "predictor/d3/Exact": "84d49958989bb054b309afa4e109a27b272a2fd9128285c549427c0c46897431",
    "predictor/d3/Bulk": "0c60c6b96a028a1fe8e8439c9a3097f46554309e03b46c07e895400d063528f1",
    "stream/d1/Exact": "30f50fe4cd75b4864df9a2f2d1e5ebfafcc3d4be39f6b068d9c1ea53740f2b0e",
    "stream/d1/Bulk": "268d2ad9e7e15f0ad65e2496f0b2a49710e15bc1b891e834c652d1a0bc35ebeb",
    "stream/d2/Exact": "acb43ad339900cd7742af5b7cd687f0cefa61fe7e539f27826513a73e81b2eb4",
    "stream/d2/Bulk": "e15bbd5eee41b208efabb7da8860588724eb24e70c750790898d9be8f0817240",
    "stream/d3/Exact": "59a58df7ba1fb360a758d60a3ee2f7790c7600aabf415a08f3aacab9334c2456",
    "stream/d3/Bulk": "afceb41fb80869d43294c3c50b8a3ea641dbf478126e0199b6bc0af3034112f6",
}


def stats_line(stats) -> str:
    """The pinned statistics of one run, as one canonical line."""
    bandwidth = stats.bandwidth
    fields = [
        stats.cycles,
        stats.commits,
        stats.squashes,
        *(bandwidth.category_bytes(c) for c in BandwidthCategory),
        bandwidth.commit_bytes,
        stats.commit_invalidations,
        stats.false_commit_invalidations,
    ]
    return ",".join(str(value) for value in fields)


def run_digests():
    """``{"<app>/d<depth>/<scheme>": sha256(stats_line)}`` for every run."""
    digests = {}
    for app in APPS:
        epochs = build_checkpoint_workload(
            app, num_epochs=NUM_EPOCHS, seed=SEED
        )
        for depth in DEPTHS:
            for name in scheme_names("checkpoint"):
                stats = CheckpointSystem(
                    resolve_scheme("checkpoint", name),
                    epochs,
                    CHECKPOINT_DEFAULTS,
                    rollback_depth=depth,
                ).run()
                digests[f"{app}/d{depth}/{name}"] = hashlib.sha256(
                    stats_line(stats).encode()
                ).hexdigest()
    return digests


@pytest.fixture(scope="module")
def digests():
    return run_digests()


def test_manifest_covers_every_run(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_run_matches_pin(digests, key):
    assert digests[key] == GOLDEN[key], f"checkpoint run {key} changed"
