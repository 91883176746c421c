"""The repo's benchmark: four substrate workloads of ``repro reproduce``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tm_sweep --seed 42 --seconds 20 --trace 0

``--trace 0`` repeats the workload in fresh interpreters (``child.py``)
until ``--seconds`` have passed, at least three times, and prints every
end-to-end metric of ``BENCHMARK.json``: host times as medians over the
repetitions, calibrated to a reference host speed (``phases.Timer``),
and simulated quantities from the (identical) repetitions.
``--trace 1`` alternates untraced and traced repetitions for
``--seconds``, then makes one cProfile repetition, and prints every
per-layer metric; the traced spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

#: Fewest repetitions a run makes, however short ``--seconds`` is.
MIN_REPS = 3
#: A repetition that takes longer than this is a hung child.
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark itself could not run (not an operation failure)."""


def spawn(request: dict) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    request = dict(request, src=str(SRC), launched=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(reps: List[dict]) -> Dict[str, float]:
    """Host metrics as medians over the repetitions, plus the simulated ones."""
    metrics = {
        "wall_s": _median(r["wall_s"] for r in reps),
        "events_per_s": _median(r["units"] / r["wall_s"] for r in reps),
        "setup_s": _median(r["setup_s"] for r in reps),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in reps),
    }
    metrics.update(reps[0]["sim"])
    return metrics


def span_metric(span_name: str) -> str:
    """``tm.run.Eager`` -> ``tm.run_s.Eager``; ``workloads.build`` ->
    ``workloads.build_s``."""
    parts = span_name.split(".")
    parts[1] += "_s"
    return ".".join(parts)


def per_layer(plain: List[dict], traced: List[dict], profiled: dict) -> Dict[str, float]:
    """Span self times (medians over traced repetitions), trace overhead
    and coverage, profile shares and call counts, and layer counts."""
    metrics: Dict[str, float] = dict(traced[0]["counts"])
    for name in traced[0]["span_self_s"]:
        metrics[span_metric(name)] = _median(rep["span_self_s"][name] for rep in traced)
    metrics["trace.span_coverage_pct"] = _median(r["span_coverage_pct"] for r in traced)
    untraced = _median(r["wall_s"] for r in plain)
    metrics["trace.overhead_pct"] = 100.0 * (_median(r["wall_s"] for r in traced) / untraced - 1.0)
    metrics.update(profiled["prof"])
    return metrics


def write_spans(workload: str, seed: int, traced: List[dict]) -> Path:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for rep in traced:
            for name, start, end, parent, run_id in rep["spans"]:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run_id": run_id}) + "\n")
    return path


def git_rev() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(backend: str) -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return (f"python {sys.version.split()[0]}  numpy {numpy}  nproc {os.cpu_count()}  "
            f"backend {backend}  git {git_rev()}")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            backend: Optional[str]):
    """Run the repetitions; return (metrics, all records, traced records)."""
    base = {"workload": workload, "seed": seed, "backend": backend}
    start = time.monotonic()
    if not trace:
        reps: List[dict] = []
        while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
            reps.append(spawn(dict(base, mode="plain")))
        return end_to_end(reps), reps, []
    plain: List[dict] = []
    traced: List[dict] = []
    while not traced or time.monotonic() - start < seconds:
        plain.append(spawn(dict(base, mode="plain")))
        traced.append(spawn(dict(base, mode="traced", run_id=f"{workload}-{seed}-{len(traced)}")))
    profiled = spawn(dict(base, mode="profiled"))
    return per_layer(plain, traced, profiled), plain + traced + [profiled], traced


def main(argv: Optional[List[str]] = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sig-backend", default=None,
                        help="signature backend (default: the program's, packed)")
    args = parser.parse_args(argv)

    try:
        metrics, reps, traced = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace), args.sig_backend)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = {r["digest"] for r in reps}
    sims = {json.dumps(r["sim"], sort_keys=True) for r in reps}
    correct = failed == 0 and len(digests) == 1 and len(sims) == 1

    print(f"perfbench {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}")
    print(environment(reps[0]["backend"]))
    for digest in sorted(digests):
        print(f"sim digest {digest}")
    for rep in reps:
        for failure in rep["failures"]:
            print(f"FAILED {failure}")
    if len(digests) > 1 or len(sims) > 1:
        print("FAILED repetitions of one seed simulated different results")
    print(f"{'metric':<40} {'value':>16}  {'unit':<8} better")
    for m in listed:
        print(f"{m['name']:<40} {metrics[m['name']]:>16.6g}  {m['unit']:<8} {m['better']}")
    if not args.trace:
        for name in ("wall_host_s", "setup_host_s"):
            value = _median(r[name] for r in reps)
            print(f"{name:<40} {value:>16.6g}  {'s':<8} (uncalibrated host seconds)")
    print(f"{'failed_frac':<40} {failed / attempted:>16.6g}  {'ratio':<8} lower"
          f"  ({failed} of {attempted} operations)")
    if traced:
        print(f"spans written to {write_spans(args.workload, args.seed, traced)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
