"""BENCHMARK.json, the metric names the harness produces, the layer map,
and the harness's refusal to run without the program."""

import json
import shutil
import subprocess
import sys

import pytest

import child
import layers
import phases
import run
from conftest import BENCH, ROOT, SRC

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(phases.RUNNERS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_repro_module_has_a_layer():
    modules = [layers.module_name(str(SRC), str(path)) for path in (SRC / "repro").rglob("*.py")]
    assert "repro.tm.system" in modules and "repro.core" in modules
    for module in modules:
        assert layers.layer_of(module) in layers.LAYERS


@pytest.mark.parametrize("module", ["repro.core.newcodec", "repro.newpackage.thing", "repro.x"])
def test_unmapped_module_is_refused(module):
    with pytest.raises(LookupError):
        layers.layer_of(module)


def test_harness_produces_exactly_the_listed_metrics():
    sizes = {"num_epochs": 8, "depths": [1], "apps": ["hotset"]}
    request = {"workload": "ckpt_sweep", "seed": 3, "src": str(SRC), "sizes": sizes}
    plain = child.measure(dict(request, mode="plain"))
    traced = child.measure(dict(request, mode="traced"))
    profiled = child.measure(dict(request, mode="profiled"))
    assert plain["failed"] == 0 and plain["attempted"] == 2
    assert set(run.end_to_end([plain])) == {m["name"] for m in SPEC["end_to_end"]}
    assert (set(run.per_layer([plain], [traced], profiled))
            == {m["name"] for m in SPEC["per_layer"]})
    assert plain["digest"] == traced["digest"] == profiled["digest"]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tm_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
