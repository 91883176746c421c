"""The workloads reproduce the experiment functions' statistics, and their checks catch
planted wrong results."""

from dataclasses import replace

import pytest

import phases
from repro.analysis.accuracy import collect_tm_samples, sweep_signature_configs
from repro.analysis.experiments import (
    run_checkpoint_comparison,
    run_tls_comparison,
    run_tm_comparison,
)
from repro.core.signature_config import TABLE8_CONFIGS

NO_SPANS = phases.Timer(calibrate=False)


def _ops(out, group):
    return {op.key[-1]: op for op in out.ops if op.key[:-1] == group}


def test_tm_sweep_matches_run_tm_comparison():
    apps = ["cb", "sjbb2k"]
    out = phases.run_tm_sweep(5, None, NO_SPANS, txns_per_thread=2, apps=apps)
    for app in apps:
        reference = run_tm_comparison(app, txns_per_thread=2, seed=5, include_partial=True)
        ops = _ops(out, (app,))
        assert {name: op.stats for name, op in ops.items()} == reference.stats


def test_tls_sweep_matches_run_tls_comparison():
    apps = ["gap", "mcf"]
    out = phases.run_tls_sweep(43, None, NO_SPANS, num_tasks=16, apps=apps)
    for app in apps:
        reference = run_tls_comparison(app, num_tasks=16, seed=43)
        ops = _ops(out, (app,))
        assert ops.pop("sequential").value == reference.sequential_cycles
        assert {name: op.stats for name, op in ops.items()} == reference.stats


def test_ckpt_sweep_matches_run_checkpoint_comparison():
    out = phases.run_ckpt_sweep(7, None, NO_SPANS, num_epochs=24, depths=(1, 2),
                                apps=["predictor"])
    for depth in (1, 2):
        reference = run_checkpoint_comparison("predictor", num_epochs=24, seed=7,
                                           rollback_depth=depth)
        ops = _ops(out, ("predictor", depth))
        assert {name: op.stats for name, op in ops.items()} == reference.stats


def test_sig_accuracy_matches_collect_and_sweep():
    apps = ["cb", "mc"]
    out = phases.run_sig_accuracy(3, None, NO_SPANS, txns_per_thread=2,
                                  max_samples_per_app=20, apps=apps)
    samples = collect_tm_samples(apps=apps, txns_per_thread=2, seed=3,
                                 max_samples_per_app=20)
    assert out.samples == samples
    rows = sweep_signature_configs(TABLE8_CONFIGS, samples, permutations_per_config=2)
    assert [op.value for op in out.ops if op.key[0] == "config"] == rows


@pytest.fixture(scope="module")
def small_runs():
    return {
        "tm_sweep": lambda: phases.run_tm_sweep(2, None, NO_SPANS, txns_per_thread=2,
                                                apps=["cb"]),
        "tls_sweep": lambda: phases.run_tls_sweep(2, None, NO_SPANS, num_tasks=16,
                                                  apps=["gap"]),
        "sig_accuracy": lambda: phases.run_sig_accuracy(2, None, NO_SPANS, txns_per_thread=2,
                                                        max_samples_per_app=20, apps=["cb"]),
        "ckpt_sweep": lambda: phases.run_ckpt_sweep(2, None, NO_SPANS, num_epochs=16,
                                                    depths=(1,), apps=["hotset"]),
    }


@pytest.mark.parametrize("workload", sorted(phases.RUNNERS))
def test_clean_runs_pass_every_check(small_runs, workload):
    out = small_runs[workload]()
    phases.check(workload, out)
    assert out.failures == []
    assert out.ops


def test_tls_gap_seed_43_memories_agree_at_default_size():
    out = phases.run_tls_sweep(43, None, NO_SPANS, apps=["gap"])
    phases.check("tls_sweep", out)
    assert out.failures == []


def test_planted_lost_commit_fails(small_runs):
    out = small_runs["tm_sweep"]()
    before = phases.digest(out)
    op = out.ops[2]
    op.stats = replace(op.stats, committed_transactions=op.stats.committed_transactions - 1)
    phases.check("tm_sweep", out)
    assert [failed.key for failed in out.ops if failed.error] == [op.key]
    assert phases.digest(out) != before


def test_planted_memory_difference_fails(small_runs):
    out = small_runs["tls_sweep"]()
    op = _ops(out, ("gap",))["Bulk"]
    word = next(iter(op.value))
    op.value = {**op.value, word: op.value[word] ^ 1}
    phases.check("tls_sweep", out)
    assert [failed.key for failed in out.ops if failed.error] == [op.key]


def test_planted_fp_order_fails(small_runs):
    out = small_runs["sig_accuracy"]()
    op = next(op for op in out.ops if op.key[0] == "config")
    op.value = replace(op.value, fp_best=op.value.fp_worst + 0.01)
    phases.check("sig_accuracy", out)
    assert [failed.key for failed in out.ops if failed.error] == [op.key]


def test_missing_config_row_fails(monkeypatch):
    first = phases.CONFIG_NAMES[0]
    monkeypatch.setattr(phases, "sweep_signature_configs",
                        lambda configs, *args, **kwargs: [] if first in configs
                        else sweep_signature_configs(configs, *args, **kwargs))
    out = phases.run_sig_accuracy(2, None, NO_SPANS, txns_per_thread=2,
                                  max_samples_per_app=10, apps=["cb"])
    assert [op.key for op in out.ops if op.error] == [("config", first)]


def test_raising_operation_fails_and_run_goes_on():
    out = phases.run_ckpt_sweep(2, None, NO_SPANS, num_epochs=8, depths=(1,),
                                apps=["no-such-app", "hotset"])
    phases.check("ckpt_sweep", out)
    assert [op.key[0] for op in out.ops if op.error] == ["no-such-app"] * 2
    assert all(not op.error for op in out.ops if op.key[0] == "hotset")


def test_numpy_backend_simulates_identically():
    pytest.importorskip("numpy")
    for workload, sizes in (("tm_sweep", {"txns_per_thread": 2, "apps": ["sjbb2k"]}),
                            ("tls_sweep", {"num_tasks": 16, "apps": ["crafty"]})):
        runner = phases.RUNNERS[workload]
        packed = runner(4, None, NO_SPANS, **sizes)
        vectorised = runner(4, "numpy", NO_SPANS, **sizes)
        assert phases.digest(packed) == phases.digest(vectorised)
        assert (phases.simulated_metrics(workload, packed)
                == phases.simulated_metrics(workload, vectorised))


def test_span_self_time_subtracts_children():
    spans = phases.Timer("r", trace=True)
    spans.records = [["analysis.collect", 0.0, 10.0, None, "r"],
                     ["tm.run.Lazy", 2.0, 5.0, 0, "r"],
                     ["workloads.build", 6.0, 7.0, 0, "r"],
                     ["analysis.sweep", 10.0, 12.0, None, "r"]]
    own = spans.self_times()
    assert own["analysis.collect"] == pytest.approx(6.0)
    assert own["tm.run.Lazy"] == pytest.approx(3.0)
    assert own["tm.run.Eager"] == 0.0
    assert spans.host_seconds() == pytest.approx(12.0)
    assert spans.coverage_pct() == pytest.approx(100.0)


def test_calibration_scales_each_call_by_its_neighbouring_slices():
    timer = phases.Timer("r")
    timer.records = [["tm.run.Eager", 0.0, 2.0, None, "r"], ["tm.run.Lazy", 3.0, 4.0, None, "r"]]
    ref = phases.REFERENCE_SLICE_S
    timer.slices = [ref, 2 * ref, 3 * ref]
    assert timer.calibrated_seconds() == pytest.approx(2.0 / 1.5 + 1.0 / 2.5)


def test_traced_run_records_only_known_spans(small_runs):
    for workload, sizes in (("sig_accuracy", {"txns_per_thread": 2, "apps": ["cb"],
                                              "max_samples_per_app": 10}),
                            ("tls_sweep", {"num_tasks": 8, "apps": ["mcf"]})):
        spans = phases.Timer("r", trace=True, calibrate=False)
        phases.RUNNERS[workload](1, None, spans, **sizes)
        assert {record[0] for record in spans.records} <= set(phases.SPAN_NAMES)
