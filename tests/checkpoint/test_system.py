"""The checkpoint substrate's system simulator and comparison driver.

The substrate's contract mirrors TM/TLS:

* identical inputs reproduce every statistic exactly;
* the exact write-log baseline never invalidates an unrelated line
  (zero false invalidations by construction), while Bulk's signature
  rollback may — aliasing costs performance, never correctness;
* every scheme leaves the identical final memory image;
* Bulk's commit packets (RLE signatures) are a small fraction of the
  Exact baseline's enumerated invalidations;
* every load sees the newest checkpoint's view of the word (the
  stale-read oracle), including after a rollback.
"""

import math

import pytest

from repro.analysis.experiments import (
    CheckpointComparison,
    run_checkpoint_comparison,
)
from repro.checkpoint import (
    CHECKPOINT_DEFAULTS,
    CHECKPOINT_WORKLOADS,
    CheckpointEpoch,
    CheckpointSystem,
    build_checkpoint_workload,
)
from repro.checkpoint.logstack import CheckpointLogStack
from repro.errors import ConfigurationError, SimulationError
from repro.spec import resolve_scheme, scheme_names

APPS = sorted(CHECKPOINT_WORKLOADS)


def fingerprint(comparison: CheckpointComparison):
    rows = []
    for scheme in scheme_names("checkpoint"):
        stats = comparison.stats[scheme]
        rows.append(
            (
                scheme,
                comparison.cycles[scheme],
                stats.committed_checkpoints,
                stats.checkpoints_taken,
                stats.rollbacks,
                stats.squashes,
                stats.commit_invalidations,
                stats.false_commit_invalidations,
                stats.bandwidth.total_bytes,
                stats.bandwidth.commit_bytes,
            )
        )
    return tuple(rows)


class TestDeterminism:
    @pytest.mark.parametrize("app", APPS)
    def test_comparison_is_reproducible(self, app):
        first = run_checkpoint_comparison(app, num_epochs=24, seed=7)
        second = run_checkpoint_comparison(app, num_epochs=24, seed=7)
        assert fingerprint(first) == fingerprint(second)

    def test_different_seeds_differ(self):
        first = run_checkpoint_comparison("predictor", num_epochs=24, seed=1)
        second = run_checkpoint_comparison("predictor", num_epochs=24, seed=2)
        assert fingerprint(first) != fingerprint(second)


class TestCorrectness:
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("depth", [1, 2])
    def test_exact_baseline_has_zero_false_invalidations(self, app, depth):
        comparison = run_checkpoint_comparison(
            app, num_epochs=24, seed=7, rollback_depth=depth
        )
        assert comparison.stats["Exact"].false_commit_invalidations == 0
        assert comparison.stats["Exact"].false_positive_squashes == 0

    @pytest.mark.parametrize("app", APPS)
    def test_final_memory_identical_across_schemes(self, app):
        images = []
        for name in scheme_names("checkpoint"):
            epochs = build_checkpoint_workload(app, num_epochs=24, seed=7)
            system = CheckpointSystem(
                resolve_scheme("checkpoint", name), epochs, rollback_depth=2
            )
            system.run()
            images.append(
                {
                    w: v
                    for w, v in system.memory.snapshot().items()
                    if v != 0
                }
            )
        assert images[0] == images[1], f"{app}: schemes diverged"

    def test_every_epoch_commits_exactly_once(self):
        comparison = run_checkpoint_comparison("hotset", num_epochs=24, seed=7)
        for name in scheme_names("checkpoint"):
            stats = comparison.stats[name]
            assert stats.committed_checkpoints == 24
            assert (
                stats.checkpoints_taken
                == stats.committed_checkpoints + stats.squashes
            )


def rollback_over_refilled_line():
    """Epoch 0 stores A=5; mispredicted epoch 1 evicts A's dirty line
    with four same-set loads, then loads A back (its fill overlays the
    live A=5).  Rolling back both epochs must leave no trace of A=5."""
    address = 0x1000
    line = address >> 6
    num_sets = CHECKPOINT_DEFAULTS.geometry.num_sets
    evict = tuple(
        ("load", (line + k * num_sets) << 6, 0)
        for k in range(1, CHECKPOINT_DEFAULTS.geometry.associativity + 1)
    )
    return [
        CheckpointEpoch((("load", address, 0), ("store", address, 5)), False),
        CheckpointEpoch(evict + (("load", address, 0),), True),
    ]


class TestStaleReadOracle:
    @pytest.mark.parametrize("scheme", scheme_names("checkpoint"))
    def test_rollback_discards_an_overlaid_load_fill(self, scheme):
        system = CheckpointSystem(
            resolve_scheme("checkpoint", scheme),
            rollback_over_refilled_line(),
            rollback_depth=2,
        )
        stats = system.run()
        assert stats.committed_checkpoints == 2
        assert system.memory.load(0x1000 >> 2) == 5

    @pytest.mark.parametrize("scheme", scheme_names("checkpoint"))
    def test_oracle_catches_a_clean_overlaid_fill(self, scheme, monkeypatch):
        """Planted bug: install overlaid fills clean again.  The rollback
        then keeps the discarded A=5 cached, and the re-executed load
        of A must trip the oracle."""

        def clean_fill(engine, line_address):
            words = engine.line_view(line_address)
            return engine.cache.fill(line_address, words)

        monkeypatch.setattr(CheckpointLogStack, "fill_line", clean_fill)
        system = CheckpointSystem(
            resolve_scheme("checkpoint", scheme),
            rollback_over_refilled_line(),
            rollback_depth=2,
        )
        with pytest.raises(SimulationError, match="stale read"):
            system.run()


class TestBandwidthStory:
    def test_bulk_commit_packets_are_a_fraction_of_exact(self):
        comparison = run_checkpoint_comparison(
            "predictor", num_epochs=48, seed=7
        )
        percent = comparison.commit_bandwidth_vs_exact()
        assert not math.isnan(percent)
        # The paper's Figure 14 story carries over: RLE signature packets
        # against enumerated per-line invalidations.
        assert 0.0 < percent < 60.0

    def test_slowdown_vs_exact_is_modest(self):
        comparison = run_checkpoint_comparison(
            "predictor", num_epochs=48, seed=7
        )
        assert comparison.slowdown_vs_exact("Exact") == 1.0
        # Aliasing may cost cycles but must stay in the same ballpark.
        assert comparison.slowdown_vs_exact("Bulk") < 1.5


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            build_checkpoint_workload("specjbb")

    @pytest.mark.parametrize("depth", [0, -1])
    def test_non_positive_rollback_depth_rejected(self, depth):
        epochs = build_checkpoint_workload("predictor", num_epochs=4, seed=7)
        with pytest.raises(ConfigurationError):
            CheckpointSystem(
                resolve_scheme("checkpoint", "Bulk"),
                epochs,
                rollback_depth=depth,
            )

    def test_depth_beyond_live_checkpoints_rejected(self):
        epochs = build_checkpoint_workload("predictor", num_epochs=4, seed=7)
        too_deep = CHECKPOINT_DEFAULTS.max_live_checkpoints + 1
        with pytest.raises(ConfigurationError):
            CheckpointSystem(
                resolve_scheme("checkpoint", "Bulk"),
                epochs,
                rollback_depth=too_deep,
            )
