"""The benchmark's four workloads: three phases of ``repro reproduce`` plus
the checkpoint substrate.

Each ``run_*`` function mirrors the experiment function it is named
after, call for call: the same workload generator, the same system
class, the same parameters, in the same order.  Unlike those it keeps
every run's full result, so the benchmark can time each public call
(through :class:`Timer`), check the outputs afterwards and fingerprint
the simulation.  Sizes default to ``repro reproduce``'s defaults; the
checkpoint sweep runs 480 epochs, ten times the CLI default.

An *operation* is one (app, scheme) simulation or one signature-config
row.  It fails if it raises or if a check in :func:`check` rejects it.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.accuracy import sweep_signature_configs
from repro.checkpoint.params import CHECKPOINT_DEFAULTS
from repro.checkpoint.system import CheckpointSystem
from repro.checkpoint.workload import CHECKPOINT_WORKLOADS, build_checkpoint_workload
from repro.coherence.message import HEADER_BYTES, BandwidthCategory, MessageKind
from repro.core.backend.codec import codec_stats
from repro.core.memo import memo_stats
from repro.core.signature_config import TABLE8_CONFIGS
from repro.spec import resolve_scheme, scheme_entries, scheme_names
from repro.tls.params import TLS_DEFAULTS
from repro.tls.system import TlsSystem, simulate_sequential
from repro.tm.lazy import LazyScheme
from repro.tm.params import TM_DEFAULTS
from repro.tm.system import TmSystem
from repro.workloads.kernels import TM_KERNELS, build_tm_workload
from repro.workloads.tls_spec import TLS_APPLICATIONS, build_tls_workload

#: Memo caches reported under ``core.memo.<label>``.
MEMO_LABELS = ("flat_mask", "decode", "rle", "line_mask")

#: Schemes reported under ``spec.useful_ratio.<scheme>`` (all substrates).
USEFUL_SCHEMES = ("Eager", "Lazy", "Bulk", "Bulk-Partial", "BulkNoOverlap", "Exact")

#: Every span a traced repetition can record (``tm.run.<scheme>`` and
#: friends become the ``tm.run_s.<scheme>`` per-layer metrics).
SPAN_NAMES = (
    "workloads.build",
    "tm.run.Eager", "tm.run.Lazy", "tm.run.Bulk", "tm.run.Bulk-Partial",
    "tls.sequential",
    "tls.run.Eager", "tls.run.Lazy", "tls.run.Bulk", "tls.run.BulkNoOverlap",
    "checkpoint.run.Exact", "checkpoint.run.Bulk",
    "analysis.collect", "analysis.sweep",
)

#: The Table 8 rows every sig_accuracy repetition must produce.
CONFIG_NAMES = tuple(sorted(TABLE8_CONFIGS, key=lambda n: (len(n), n)))


# ----------------------------------------------------------------------
# Timing: spans calibrated against the host's speed
# ----------------------------------------------------------------------

#: Iterations of the calibration kernel in one slice (about 2.5 ms).
CALIBRATION_ITERATIONS = 15_000

#: What one calibration slice takes on the reference host (a quiet
#: 2-vCPU Intel Xeon VM, Python 3.11).  Calibrated seconds are host
#: seconds scaled by ``REFERENCE_SLICE_S / measured slice``.
REFERENCE_SLICE_S = 0.0025


def calibration_slice() -> float:
    """Seconds a fixed pure-Python kernel (dict reads and writes, integer
    arithmetic; no ``repro`` code) takes right now, best of two."""
    best = math.inf
    for _ in range(2):
        table: Dict[int, int] = {}
        start = time.perf_counter()
        for i in range(CALIBRATION_ITERATIONS):
            key = i & 1023
            table[key] = table.get(key, 0) + (i * 7 >> 3)
        best = min(best, time.perf_counter() - start)
    return best


class Timer:
    """Times the public calls of one repetition.

    On a host shared with other work the same code can run half again as
    slow for minutes at a time, CPU time included.
    So before each top-level call, and once at the end, the timer runs a
    calibration slice.  A call's *calibrated* time is its host time times
    ``REFERENCE_SLICE_S`` over the mean of the slices on either side of
    it: the seconds the call would take at the reference host's speed.

    Every top-level call is kept as a span record ``[name, start, end,
    parent_index, run_id]`` (``perf_counter`` times).  With ``trace``,
    nested calls are kept too, their ``parent_index`` pointing at the
    enclosing record.  ``calibrate=False`` skips the slices (profiled
    repetitions, which only count).
    """

    def __init__(self, run_id: str = "0", trace: bool = False, calibrate: bool = True) -> None:
        self.run_id = run_id
        self.trace = trace
        self.calibrate = calibrate
        self.records: List[list] = []
        #: Slice before each top-level call, then one after the last.
        self.slices: List[float] = []
        #: Host seconds the slices between the first and last call took.
        self.slice_overhead_s = 0.0
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._open and not self.trace:
            yield
            return
        if not self._open:
            self._slice(between_calls=bool(self.records))
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, self.run_id]
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def finish(self) -> None:
        """Take the closing calibration slice."""
        self._slice(between_calls=False)

    def _slice(self, between_calls: bool) -> None:
        if self.calibrate:
            start = time.perf_counter()
            self.slices.append(calibration_slice())
            if between_calls:
                self.slice_overhead_s += time.perf_counter() - start

    def _top_level(self) -> List[float]:
        return [end - start for _, start, end, parent, _ in self.records if parent is None]

    def host_seconds(self) -> float:
        """Host seconds inside the top-level calls."""
        return sum(self._top_level())

    def calibrated_seconds(self) -> float:
        """:meth:`host_seconds` at the reference host's speed."""
        slices = self.slices
        return sum(seconds * 2 * REFERENCE_SLICE_S / (slices[i] + slices[i + 1])
                   for i, seconds in enumerate(self._top_level()))

    def coverage_pct(self) -> float:
        """Share of the time from the first call to the last (slices
        excluded) that the top-level spans cover."""
        last_end = max(end for _, _, end, _, _ in self.records)
        window = last_end - self.records[0][1] - self.slice_overhead_s
        return 100.0 * self.host_seconds() / window

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name (every name in :data:`SPAN_NAMES`), each
        span minus its direct children."""
        own = [end - start for _, start, end, _, _ in self.records]
        for _, start, end, parent, _ in self.records:
            if parent is not None:
                own[parent] -= end - start
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, *_), seconds in zip(self.records, own):
            totals[name] += seconds
        return totals


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One simulation or config row, and what became of it."""

    key: Tuple
    #: The run's ``SpecStats`` (simulations of a speculative scheme).
    stats: Any = None
    #: Extra output: final memory snapshot (TLS), sequential cycles, or
    #: an ``AccuracyRow``.
    value: Any = None
    error: str = ""


@dataclass
class Outcome:
    """Everything one repetition of a workload produced."""

    ops: List[Op] = field(default_factory=list)
    #: Generated inputs by ``op.key[:-1]`` (traces, tasks or epochs).
    inputs: Dict[Tuple, Any] = field(default_factory=dict)
    #: sig_accuracy only: the collected disambiguation samples.
    samples: List = field(default_factory=list)

    @contextmanager
    def op(self, key: Tuple) -> Iterator[Op]:
        """Record one operation; an exception inside fails it, and the
        repetition goes on with the next one."""
        op = Op(key)
        self.ops.append(op)
        try:
            yield op
        except Exception as exc:  # the operation is counted as failed
            op.error = f"raised {type(exc).__name__}: {exc}"

    def fail(self, keys: Sequence[Tuple], exc: Exception) -> None:
        for key in keys:
            self.ops.append(Op(key, error=f"input build raised {type(exc).__name__}: {exc}"))

    @property
    def failures(self) -> List[str]:
        return [f"{'/'.join(map(str, op.key))}: {op.error}" for op in self.ops if op.error]


def _with_backend(params, backend: Optional[str]):
    return params if backend is None else replace(params, sig_backend=backend)


# ----------------------------------------------------------------------
# The four workloads
# ----------------------------------------------------------------------


def run_tm_sweep(seed: int, backend: Optional[str], timer: Timer, txns_per_thread: int = 10,
                 apps: Optional[Sequence[str]] = None) -> Outcome:
    """``run_tm_comparison(app, include_partial=True)`` for every kernel."""
    params = _with_backend(TM_DEFAULTS, backend)
    entries = scheme_entries("tm", include_variants=True)
    out = Outcome()
    for app in apps or sorted(TM_KERNELS):
        try:
            with timer.span("workloads.build"):
                traces = build_tm_workload(app, num_threads=params.num_processors,
                                           txns_per_thread=txns_per_thread, seed=seed)
        except Exception as exc:
            out.fail([(app, entry.name) for entry in entries], exc)
            continue
        out.inputs[(app,)] = traces
        for entry in entries:
            run_params = replace(params, **entry.params) if entry.params else params
            with out.op((app, entry.name)) as op, timer.span("tm.run." + entry.name):
                op.stats = TmSystem(traces, entry.factory(), run_params).run().stats
    return out


def run_tls_sweep(seed: int, backend: Optional[str], timer: Timer, num_tasks: int = 120,
                  apps: Optional[Sequence[str]] = None) -> Outcome:
    """``run_tls_comparison(app)`` for every SPECint profile."""
    params = _with_backend(TLS_DEFAULTS, backend)
    schemes = list(scheme_names("tls"))
    out = Outcome()
    for app in apps or sorted(TLS_APPLICATIONS):
        try:
            with timer.span("workloads.build"):
                tasks = build_tls_workload(app, num_tasks=num_tasks, seed=seed)
        except Exception as exc:
            out.fail([(app, name) for name in ["sequential"] + schemes], exc)
            continue
        out.inputs[(app,)] = tasks
        sequential = 0
        with out.op((app, "sequential")) as op, timer.span("tls.sequential"):
            op.value = sequential = simulate_sequential(tasks, params)
        for name in schemes:
            with out.op((app, name)) as op, timer.span("tls.run." + name):
                result = TlsSystem(tasks, resolve_scheme("tls", name), params).run()
                result.stats.sequential_cycles = sequential
                op.stats = result.stats
                op.value = result.memory.snapshot()
    return out


def run_sig_accuracy(seed: int, backend: Optional[str], timer: Timer, txns_per_thread: int = 5,
                     max_samples_per_app: int = 200,
                     apps: Optional[Sequence[str]] = None) -> Outcome:
    """``collect_tm_samples`` then ``sweep_signature_configs(TABLE8_CONFIGS,
    samples, permutations_per_config=2)``, as ``repro reproduce`` calls them.

    The sweep is called once per config, which yields the very rows of
    the single call (each config's permutations come from a stream keyed
    by its name) and lets the timer calibrate around calls of about
    0.1 s instead of one 3-s call.
    """
    params = _with_backend(TM_DEFAULTS, backend)
    out = Outcome()
    with timer.span("analysis.collect"):
        for app in apps or sorted(TM_KERNELS):
            try:
                with timer.span("workloads.build"):
                    traces = build_tm_workload(app, num_threads=params.num_processors,
                                               txns_per_thread=txns_per_thread, seed=seed)
            except Exception as exc:
                out.fail([(app, "Lazy")], exc)
                continue
            out.inputs[(app,)] = traces
            with out.op((app, "Lazy")) as op:
                with timer.span("tm.run.Lazy"):
                    result = TmSystem(traces, LazyScheme(), params, collect_samples=True,
                                      max_samples=max_samples_per_app).run()
                op.stats = result.stats
                out.samples.extend(sample for sample in result.samples if sample[0])
    for name in CONFIG_NAMES:
        with out.op(("config", name)) as op, timer.span("analysis.sweep"):
            (op.value,) = sweep_signature_configs({name: TABLE8_CONFIGS[name]}, out.samples,
                                                  permutations_per_config=2)
    return out


def run_ckpt_sweep(seed: int, backend: Optional[str], timer: Timer, num_epochs: int = 480,
                   depths: Sequence[int] = (1, 2, 3),
                   apps: Optional[Sequence[str]] = None) -> Outcome:
    """``run_checkpoint_comparison(app, num_epochs, rollback_depth=d)`` for
    every checkpoint workload and depth."""
    params = _with_backend(CHECKPOINT_DEFAULTS, backend)
    schemes = list(scheme_names("checkpoint"))
    out = Outcome()
    for app in apps or sorted(CHECKPOINT_WORKLOADS):
        for depth in depths:
            try:
                with timer.span("workloads.build"):
                    epochs = build_checkpoint_workload(app, num_epochs=num_epochs, seed=seed)
            except Exception as exc:
                out.fail([(app, depth, name) for name in schemes], exc)
                continue
            out.inputs[(app, depth)] = epochs
            for name in schemes:
                with out.op((app, depth, name)) as op, timer.span("checkpoint.run." + name):
                    op.stats = CheckpointSystem(resolve_scheme("checkpoint", name), epochs,
                                                params, rollback_depth=depth).run()
    return out


RUNNERS: Dict[str, Callable[..., Outcome]] = {
    "tm_sweep": run_tm_sweep,
    "tls_sweep": run_tls_sweep,
    "sig_accuracy": run_sig_accuracy,
    "ckpt_sweep": run_ckpt_sweep,
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _expected_commits(workload: str, inputs: Any) -> int:
    if workload in ("tm_sweep", "sig_accuracy"):
        return sum(trace.transaction_count() for trace in inputs)
    return len(inputs)  # TLS tasks or checkpoint epochs


def check(workload: str, out: Outcome) -> None:
    """Fail every operation whose output is wrong.

    * every scheme commits every input transaction, task or epoch;
    * all TLS schemes of one app end with the same final memory;
    * each Table 8 row has ``0 <= fp_best <= fp_nominal <= fp_worst <= 1``.
    """
    reference_memory: Dict[Tuple, Tuple[str, Any]] = {}
    for op in out.ops:
        if op.error:
            continue
        if op.stats is not None:
            expected = _expected_commits(workload, out.inputs[op.key[:-1]])
            if op.stats.commits != expected:
                op.error = f"committed {op.stats.commits} of {expected}"
                continue
        if workload == "tls_sweep" and op.stats is not None:
            group = op.key[:-1]
            scheme, memory = reference_memory.setdefault(group, (op.key[-1], op.value))
            if op.value != memory:
                op.error = f"final memory differs from {scheme}'s"
        elif workload == "tls_sweep" and not op.value > 0:
            op.error = f"sequential run took {op.value} cycles"
        elif workload == "sig_accuracy" and op.key[0] == "config":
            row = op.value
            if not 0.0 <= row.fp_best <= row.fp_nominal <= row.fp_worst <= 1.0:
                op.error = (f"fp out of order: best {row.fp_best}, nominal "
                            f"{row.fp_nominal}, worst {row.fp_worst}")


# ----------------------------------------------------------------------
# Input units, simulated metrics, digest, layer counts
# ----------------------------------------------------------------------


def _events(workload: str, inputs: Any) -> int:
    if workload == "ckpt_sweep":
        return sum(len(epoch.ops) for epoch in inputs)
    return sum(len(item.events) for item in inputs)  # thread traces or TLS tasks


def input_units(workload: str, out: Outcome) -> int:
    """The ``events_per_s`` numerator.

    tm, tls and ckpt: input events x simulations run over them (the TLS
    sequential baseline counts as one).  sig_accuracy: sample addresses x
    config evaluations (nominal + 2 permutations per config).
    """
    if workload == "sig_accuracy":
        addresses = sum(len(a) + len(b) + len(c) for a, b, c in out.samples)
        return addresses * 3 * len(CONFIG_NAMES)
    return sum(_events(workload, out.inputs[op.key[:-1]]) for op in out.ops
               if op.key[:-1] in out.inputs)


def _gmean(values: Sequence[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values)) if values else 0.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _by_group(out: Outcome) -> Dict[Tuple, Dict[str, Op]]:
    groups: Dict[Tuple, Dict[str, Op]] = {}
    for op in out.ops:
        if not op.error:
            groups.setdefault(op.key[:-1], {})[op.key[-1]] = op
    return groups


#: Per substrate: (cycle baseline, commit-bandwidth baseline) of Bulk.
BASELINES = {"tm_sweep": ("Eager", "Lazy"), "tls_sweep": ("sequential", "Lazy"),
             "ckpt_sweep": ("Exact", "Exact"), "sig_accuracy": (None, "Lazy")}


def _cycles(op: Op) -> int:
    return op.value if op.stats is None else op.stats.cycles


def simulated_metrics(workload: str, out: Outcome) -> Dict[str, float]:
    """``bulk_speedup_gmean``, ``bulk_commit_bw_pct`` and ``rle_bits_mean``.

    sig_accuracy simulates no Bulk timing, so its speedup reads 1.0
    (parity); its bandwidth is Table 8's compressed size as a percentage
    of the full signature size, and its RLE size is Table 8's mean.
    Elsewhere the RLE size is the mean payload of Bulk's commit
    signature messages.
    """
    if workload == "sig_accuracy":
        rows = [op.value for op in out.ops if op.key[0] == "config" and not op.error]
        return {
            "bulk_speedup_gmean": 1.0,
            "bulk_commit_bw_pct": _mean([100.0 * r.avg_compressed_bits / r.full_size_bits
                                         for r in rows]),
            "rle_bits_mean": _mean([r.avg_compressed_bits for r in rows]),
        }
    speed_base, bw_base = BASELINES[workload]
    speedups, bandwidth = [], []
    payload_bytes = messages = 0
    for ops in _by_group(out).values():
        bulk = ops.get("Bulk")
        if bulk is None:
            continue
        if speed_base in ops:
            speedups.append(_cycles(ops[speed_base]) / bulk.stats.cycles)
        if bw_base in ops and ops[bw_base].stats.bandwidth.commit_bytes > 0:
            bandwidth.append(100.0 * bulk.stats.bandwidth.commit_bytes
                             / ops[bw_base].stats.bandwidth.commit_bytes)
        count = bulk.stats.bandwidth.message_counts[MessageKind.COMMIT_SIGNATURE]
        payload_bytes += bulk.stats.bandwidth.commit_bytes - HEADER_BYTES * count
        messages += count
    return {
        "bulk_speedup_gmean": _gmean(speedups),
        "bulk_commit_bw_pct": _mean(bandwidth),
        "rle_bits_mean": 8.0 * payload_bytes / messages if messages else 0.0,
    }


def digest(out: Outcome) -> str:
    """SHA-256 over the simulated statistics of every operation: cycles,
    commits, squashes and bus bytes per (app, scheme), and each config's
    FP / RLE row.  Equal digests mean an unchanged simulation."""
    entries = []
    for op in out.ops:
        entry: List[Any] = [list(op.key), op.error]
        if op.stats is not None:
            bandwidth = op.stats.bandwidth
            entry += [op.stats.cycles, op.stats.commits, op.stats.squashes,
                      [bandwidth.by_category[c] for c in BandwidthCategory],
                      bandwidth.commit_bytes]
        elif op.key[0] == "config" and op.value is not None:
            row = op.value
            entry += [row.full_size_bits, row.avg_compressed_bits, row.fp_nominal,
                      row.fp_best, row.fp_worst]
        else:
            entry.append(op.value)
        entries.append(entry)
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def layer_counts(workload: str, out: Outcome) -> Dict[str, float]:
    """Deterministic per-layer counts read from the public API.

    Zero where the workload does not exercise the counter (for example
    ``spec.useful_ratio.Exact`` outside ckpt_sweep).
    """
    counts: Dict[str, float] = {}
    for label, stats in memo_stats().items():
        if label in MEMO_LABELS:
            lookups = stats["hits"] + stats["misses"]
            counts[f"core.memo.{label}.hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
            counts[f"core.memo.{label}.evictions"] = stats["evictions"]
    for label in MEMO_LABELS:
        counts.setdefault(f"core.memo.{label}.hit_ratio", 0.0)
        counts.setdefault(f"core.memo.{label}.evictions", 0)
    for path, count in codec_stats().items():
        counts[f"core.codec.{path}"] = count

    runs: Dict[str, List] = {}
    for op in out.ops:
        if op.stats is not None and not op.error:
            runs.setdefault(op.key[-1], []).append(op.stats)
    for scheme in USEFUL_SCHEMES:
        commits = sum(s.commits for s in runs.get(scheme, ()))
        attempts = commits + sum(s.squashes for s in runs.get(scheme, ()))
        counts[f"spec.useful_ratio.{scheme}"] = commits / attempts if attempts else 0.0

    base = BASELINES[workload][1]
    for who, scheme in (("Bulk", "Bulk"), ("base", base)):
        for category in BandwidthCategory:
            counts[f"coherence.bytes.{who}.{category.value}"] = sum(
                s.bandwidth.by_category[category] for s in runs.get(scheme, ()))
    bulk = runs.get("Bulk", ())
    counts["cache.false_commit_invalidations"] = sum(
        s.false_commit_invalidations for s in bulk)
    squashes = sum(s.squash_denominator for s in bulk)
    counts["spec.false_squash_pct"] = (
        100.0 * sum(s.false_positive_squashes for s in bulk) / squashes if squashes else 0.0)
    rows = [op.value for op in out.ops if op.key[0] == "config" and not op.error]
    counts["analysis.fp_pct_mean"] = _mean([100.0 * r.fp_nominal for r in rows])
    return counts
