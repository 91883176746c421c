"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro list
    python -m repro tm sjbb2k --txns 10
    python -m repro tls crafty --tasks 120
    python -m repro checkpoint predictor --epochs 48
    python -m repro accuracy --samples 300
    python -m repro fig12

Each subcommand prints the same rows the corresponding benchmark module
regenerates; the CLI is a thin, scriptable wrapper over
:mod:`repro.analysis`.  Scheme names and their order come from the
:mod:`repro.spec` registry — nothing here hard-codes a scheme list.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, List, Optional, Tuple

from repro.analysis.accuracy import collect_tm_samples, sweep_signature_configs
from repro.analysis.experiments import run_tls_comparison, run_tm_comparison
from repro.analysis.report import (
    bandwidth_reconciliation_rows,
    reconciliation_ok,
    render_bandwidth_reconciliation,
    render_bars,
    render_contention,
    render_csv,
    render_table,
)
from repro.checkpoint.workload import CHECKPOINT_WORKLOADS
from repro.core.signature_config import TABLE8_CONFIGS
from repro.interconnect import BUS_MODELS, POLICIES, InterconnectConfig
from repro.spec import scheme_names
from repro.workloads.kernels import TM_KERNELS
from repro.workloads.tls_spec import TLS_APPLICATIONS


def _warn_stderr(message: str) -> None:
    """The CLI's warning sink (kept separate so tests can capture it)."""
    print(f"warning: {message}", file=sys.stderr)


def _add_bus_arguments(parser: argparse.ArgumentParser) -> None:
    """The interconnect flags, shared by every simulation subcommand."""
    group = parser.add_argument_group("interconnect")
    group.add_argument(
        "--bus-model", choices=BUS_MODELS, default="legacy",
        help="bus timing model (default: legacy synchronous bus; any "
        "non-default --bus-* knob implies 'timed')",
    )
    group.add_argument(
        "--bus-latency", type=int, default=0, metavar="CYCLES",
        help="request-to-grant arbitration latency (timed model)",
    )
    group.add_argument(
        "--bus-policy", choices=sorted(POLICIES), default="fifo",
        help="arbitration policy for simultaneously pending requests",
    )
    group.add_argument(
        "--bus-window", type=int, default=0, metavar="N",
        help="max in-flight non-commit messages (0 = unbounded)",
    )


def _add_sig_backend_argument(parser: argparse.ArgumentParser) -> None:
    """The ``--sig-backend`` flag, shared by every simulation subcommand.

    Choices come from the backend registry, never a literal list.
    """
    from repro.core.backend import DEFAULT_BACKEND_NAME, backend_names

    parser.add_argument(
        "--sig-backend", choices=backend_names(), default=DEFAULT_BACKEND_NAME,
        help="signature storage backend (all are bit-identical; 'numpy' "
        "vectorises batch operations and falls back to 'packed' when "
        "numpy is unavailable)",
    )


def _sig_backend_spec(args: argparse.Namespace) -> Optional[str]:
    """The non-default ``--sig-backend`` choice, or ``None`` at default.

    ``None`` means callers pass *no* backend knob at all, keeping grid
    cache keys and the golden artifacts byte-identical to builds that
    predate the flag (the :func:`_bus_spec` contract).
    """
    from repro.core.backend import DEFAULT_BACKEND_NAME

    name = getattr(args, "sig_backend", DEFAULT_BACKEND_NAME)
    if name == DEFAULT_BACKEND_NAME:
        return None
    return name


def _add_scheme_policy_argument(parser: argparse.ArgumentParser) -> None:
    """The ``--scheme-policy`` flag, shared by the simulation subcommands.

    The grammar lives in :mod:`repro.spec.policy` (``static``,
    ``threshold:<metric><op><value>[,window=N]``, ``hysteresis:...``).
    """
    parser.add_argument(
        "--scheme-policy", default="static", metavar="SPEC",
        help="scheme hot-swap policy consulted at commit boundaries "
        "('static' never swaps; e.g. 'threshold:squash_rate>0.2,"
        "window=64' migrates Eager<->Bulk under contention)",
    )


def _scheme_policy_spec(args: argparse.Namespace) -> Optional[str]:
    """The non-default ``--scheme-policy`` spec, or ``None`` at default.

    ``None`` means callers pass *no* policy knob at all, keeping grid
    cache keys and the golden artifacts byte-identical to builds that
    predate the flag (the :func:`_sig_backend_spec` contract).  The
    spec is validated here so a typo fails before any simulation work.
    """
    spec = getattr(args, "scheme_policy", "static")
    if spec is None or spec == "static":
        return None
    from repro.spec.policy import parse_policy

    parse_policy(spec)
    return spec


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """The trace-replay flags, shared by the simulation subcommands.

    Both or neither: a trace id only means something inside one store,
    and a store alone does not select a trace.
    """
    group = parser.add_argument_group("trace replay")
    group.add_argument(
        "--trace-store", default=None, metavar="DIR",
        help="on-disk trace store directory (see 'repro trace')",
    )
    group.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="replay this stored trace instead of generating the workload",
    )


def _trace_spec(
    args: argparse.Namespace,
) -> Tuple[Optional[str], Optional[str], Optional[str]]:
    """The ``(trace_id, store_dir, error)`` of the replay flags.

    ``(None, None, None)`` when replay was not requested; an error
    message as the third member when exactly one of the two flags was
    given.  Both-``None`` callers pass no trace knob at all, keeping
    cache keys and golden artifacts byte-identical to pre-trace builds.
    """
    trace = getattr(args, "trace_id", None)
    store = getattr(args, "trace_store", None)
    if (trace is None) != (store is None):
        missing = "--trace-store" if store is None else "--trace-id"
        return None, None, f"trace replay needs both flags; missing {missing}"
    return trace, store, None


def _bus_spec(args: argparse.Namespace) -> Optional[str]:
    """The canonical interconnect spec of the ``--bus-*`` flags.

    ``None`` when every flag is at its default — callers then pass *no*
    bus knob at all, keeping grid-point keys, cache keys, and therefore
    the golden artifacts byte-identical to pre-interconnect builds.  Any
    non-default knob implies the timed model.
    """
    model = getattr(args, "bus_model", "legacy")
    latency = getattr(args, "bus_latency", 0)
    policy = getattr(args, "bus_policy", "fifo")
    window = getattr(args, "bus_window", 0)
    if model == "legacy" and latency == 0 and policy == "fifo" and window == 0:
        return None
    return InterconnectConfig(
        model="timed",
        arbitration_latency=latency,
        policy=policy,
        max_in_flight=window,
    ).spec()


def _open_observability(args: argparse.Namespace) -> Tuple[Any, Any]:
    """An :class:`~repro.obs.Observability` bundle for ``--trace-out`` /
    ``--metrics-out``, or ``(None, None)`` when neither flag was given.

    The second member is the owned :class:`~repro.obs.tracer.JsonlWriter`
    (or ``None``); the caller closes it via :func:`_finish_observability`.
    """
    if not getattr(args, "trace_out", None) and not getattr(args, "metrics_out", None):
        return None, None
    from repro.obs import Observability
    from repro.obs.tracer import JsonlWriter

    writer = JsonlWriter.open(args.trace_out) if args.trace_out else None
    obs = Observability()
    if writer is not None:
        obs.tracer.sink = writer.write
    return obs, writer


def _finish_observability(
    args: argparse.Namespace, obs: Any, writer: Any, stats_by_scheme: Any
) -> int:
    """Flush observability outputs after a single-run subcommand.

    Writes the metrics snapshot, closes the trace writer, and prints the
    trace-vs-:class:`~repro.coherence.bus.BandwidthBreakdown`
    reconciliation; a mismatch is an internal accounting bug and turns
    into a non-zero exit code.
    """
    if writer is not None:
        writer.close()
        print(f"wrote {writer.lines} trace events to {args.trace_out}")
    if args.metrics_out:
        snapshot = obs.metrics.snapshot()
        with open(args.metrics_out, "w", encoding="utf-8") as stream:
            json.dump(snapshot, stream, sort_keys=True, indent=2)
            stream.write("\n")
        print(f"wrote metrics to {args.metrics_out}")
    breakdowns = {
        scheme: stats.bandwidth for scheme, stats in stats_by_scheme.items()
    }
    trace_bus = obs.tracer.summary()["bus"]
    print()
    print(render_bandwidth_reconciliation(trace_bus, breakdowns))
    if not reconciliation_ok(
        bandwidth_reconciliation_rows(trace_bus, breakdowns)
    ):
        print("error: traced bytes do not reconcile with the simulator's "
              "bandwidth accounting", file=sys.stderr)
        return 3
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("TM workloads (Table 4):   " + " ".join(sorted(TM_KERNELS)))
    print("TLS workloads (Table 6):  " + " ".join(sorted(TLS_APPLICATIONS)))
    print("Checkpoint workloads:     " + " ".join(sorted(CHECKPOINT_WORKLOADS)))
    print("Signatures (Table 8):     S1 .. S23")
    return 0


def _cmd_tm(args: argparse.Namespace) -> int:
    trace, trace_store, trace_error = _trace_spec(args)
    if trace_error:
        print(f"error: {trace_error}", file=sys.stderr)
        return 2
    obs, writer = _open_observability(args)
    bus = _bus_spec(args)
    comparison = run_tm_comparison(
        args.app,
        txns_per_thread=args.txns,
        seed=args.seed,
        include_partial=args.partial,
        obs=obs,
        bus=bus,
        sig_backend=_sig_backend_spec(args),
        trace=trace,
        trace_store=trace_store,
        policy=_scheme_policy_spec(args),
    )
    rows = []
    for scheme in scheme_names("tm", include_variants=args.partial):
        stats = comparison.stats[scheme]
        rows.append(
            [
                scheme,
                comparison.cycles[scheme],
                comparison.speedup_over_eager(scheme),
                stats.committed_transactions,
                stats.squashes,
                stats.false_positive_squashes,
                stats.bandwidth.commit_bytes,
            ]
        )
    print(
        render_table(
            ["Scheme", "Cycles", "vs Eager", "Commits", "Squashes",
             "FalseSq", "CommitB"],
            rows,
            title=f"TM: {args.app}",
        )
    )
    ratio = comparison.commit_bandwidth_vs_lazy()
    print("\ncommit bandwidth Bulk/Lazy: "
          + ("n/a" if math.isnan(ratio) else f"{ratio:.1f}%"))
    if bus is not None:
        print()
        print(render_contention(comparison.stats,
                                title=f"Interconnect contention ({bus})"))
    if obs is not None:
        return _finish_observability(args, obs, writer, comparison.stats)
    return 0


def _cmd_tls(args: argparse.Namespace) -> int:
    trace, trace_store, trace_error = _trace_spec(args)
    if trace_error:
        print(f"error: {trace_error}", file=sys.stderr)
        return 2
    obs, writer = _open_observability(args)
    bus = _bus_spec(args)
    comparison = run_tls_comparison(
        args.app,
        num_tasks=args.tasks,
        seed=args.seed,
        obs=obs,
        bus=bus,
        sig_backend=_sig_backend_spec(args),
        trace=trace,
        trace_store=trace_store,
        policy=_scheme_policy_spec(args),
    )
    rows = []
    for scheme in scheme_names("tls"):
        stats = comparison.stats[scheme]
        rows.append(
            [
                scheme,
                comparison.cycles[scheme],
                comparison.speedup(scheme),
                stats.squashes,
                stats.false_positive_squashes,
                stats.merged_lines,
            ]
        )
    print(
        render_table(
            ["Scheme", "Cycles", "Speedup", "Squashes", "FalseSq", "Merged"],
            rows,
            title=(
                f"TLS: {args.app} "
                f"(sequential {comparison.sequential_cycles} cycles)"
            ),
        )
    )
    if bus is not None:
        print()
        print(render_contention(comparison.stats,
                                title=f"Interconnect contention ({bus})"))
    if obs is not None:
        return _finish_observability(args, obs, writer, comparison.stats)
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Run one checkpoint workload across rollback depths.

    Every depth in ``1..--max-depth`` is one grid point (Bulk vs the
    exact-log baseline inside), executed through the same
    :class:`~repro.runner.GridRunner` as ``reproduce`` — ``--jobs``,
    caching, and per-point observability behave identically.
    """
    from repro.checkpoint.params import CHECKPOINT_DEFAULTS
    from repro.runner import GridRunner, checkpoint_point

    if args.max_depth > CHECKPOINT_DEFAULTS.max_live_checkpoints:
        print(
            f"error: --max-depth {args.max_depth} exceeds the "
            f"{CHECKPOINT_DEFAULTS.max_live_checkpoints} live checkpoints",
            file=sys.stderr,
        )
        return 2
    observability = bool(args.trace_out or args.metrics_out)
    try:
        runner = GridRunner(
            jobs=args.jobs, cache_dir=args.cache_dir,
            observability=observability,
        )
    except (FileExistsError, NotADirectoryError):
        print(f"error: cache directory {args.cache_dir} is not a directory",
              file=sys.stderr)
        return 2
    bus = _bus_spec(args)
    extra_knobs = {} if bus is None else {"bus": bus}
    sig_backend = _sig_backend_spec(args)
    if sig_backend is not None:
        extra_knobs["sig_backend"] = sig_backend
    policy = _scheme_policy_spec(args)
    if policy is not None:
        extra_knobs["policy"] = policy
    trace, trace_store, trace_error = _trace_spec(args)
    if trace_error:
        print(f"error: {trace_error}", file=sys.stderr)
        return 2
    if trace is not None:
        extra_knobs["trace"] = trace
        extra_knobs["trace_store"] = trace_store
    points = {
        depth: checkpoint_point(
            args.app,
            seed=args.seed,
            num_epochs=args.epochs,
            rollback_depth=depth,
            **extra_knobs,
        )
        for depth in range(1, args.max_depth + 1)
    }
    merged = runner.run(list(points.values()))
    if merged.cached_keys:
        print(f"{len(merged.cached_keys)} grid point(s) served from cache")

    rows = []
    for depth, point in points.items():
        comparison = merged.comparison(point)
        for scheme in scheme_names("checkpoint"):
            stats = comparison.stats[scheme]
            rows.append(
                [
                    depth,
                    scheme,
                    comparison.cycles[scheme],
                    comparison.slowdown_vs_exact(scheme),
                    stats.committed_checkpoints,
                    stats.rollbacks,
                    stats.squashes,
                    stats.rollback_invalidations,
                    stats.false_rollback_invalidations,
                    stats.bandwidth.commit_bytes,
                ]
            )
    print(
        render_table(
            ["Depth", "Scheme", "Cycles", "vsExact", "Commits", "Rollbacks",
             "Squashes", "Inval", "FalseInv", "CommitB"],
            rows,
            title=f"Checkpoint: {args.app} ({args.epochs} epochs)",
        )
    )
    for depth, point in points.items():
        ratio = merged.comparison(point).commit_bandwidth_vs_exact()
        print(f"depth {depth}: commit bandwidth Bulk/Exact: "
              + ("n/a" if math.isnan(ratio) else f"{ratio:.1f}%"))
    if bus is not None:
        for depth, point in points.items():
            print()
            print(render_contention(
                merged.comparison(point).stats,
                title=f"Interconnect contention (depth {depth}, {bus})",
            ))

    if observability:
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as stream:
                stream.write(merged.metrics_json() + "\n")
            print(f"wrote merged metrics to {args.metrics_out}")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as stream:
                stream.write(merged.trace_jsonl())
            print(f"wrote {len(merged.traces)} trace summaries to "
                  f"{args.trace_out}")
        comparisons = merged.comparisons()
        all_ok = True
        for key in sorted(merged.traces):
            breakdowns = {
                scheme: stats.bandwidth
                for scheme, stats in comparisons[key].stats.items()
            }
            trace_bus = merged.traces[key]["bus"]
            all_ok = all_ok and reconciliation_ok(
                bandwidth_reconciliation_rows(trace_bus, breakdowns)
            )
            print()
            print(render_bandwidth_reconciliation(trace_bus, breakdowns,
                                                  title=key))
        if not all_ok:
            print("error: traced bytes do not reconcile with the "
                  "simulator's bandwidth accounting", file=sys.stderr)
            return 3
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    sig_backend = _sig_backend_spec(args)
    samples = collect_tm_samples(
        txns_per_thread=args.txns,
        seed=args.seed,
        max_samples_per_app=args.samples,
        backend=sig_backend,
    )
    print(f"{len(samples)} dependence-free disambiguation samples")
    rows = sweep_signature_configs(
        TABLE8_CONFIGS, samples, permutations_per_config=args.permutations,
        backend=sig_backend,
    )
    series = {row.name: 100.0 * row.fp_nominal for row in rows}
    print(render_bars(series, title="false positives (%)", unit="%"))
    return 0


def _cmd_fig12(_args: argparse.Namespace) -> int:
    # Reuse the benchmark module's scenario builder.
    sys.path.insert(0, "benchmarks")
    try:
        from bench_fig12_eager_pathologies import run_all_cases
    except ImportError:
        print("run from the repository root (benchmarks/ must be present)",
              file=sys.stderr)
        return 1
    results, *_ = run_all_cases()
    for case, outcome in results.items():
        print(f"{case:24s} {outcome}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run the whole evaluation and archive tables + CSVs to a directory.

    The (application × scheme) sweeps behind Figures 10-15 and Tables
    6-8 execute through the parallel :class:`~repro.runner.GridRunner`:
    ``--jobs`` controls the worker count, and finished grid points are
    cached under ``<out>/.cache`` (disable with ``--no-cache``) so an
    interrupted or repeated run only recomputes what changed.
    """
    import pathlib

    from repro.runner import GridRunner, tls_point, tm_point

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (out / name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out / name}")

    cache_dir = None if args.no_cache else (args.cache_dir or out / ".cache")
    observability = bool(args.trace_out or args.metrics_out)
    try:
        runner = GridRunner(
            jobs=args.jobs, cache_dir=cache_dir, observability=observability
        )
    except (FileExistsError, NotADirectoryError):
        print(f"error: cache directory {cache_dir} is not a directory",
              file=sys.stderr)
        return 2
    bus = _bus_spec(args)
    extra_knobs = {} if bus is None else {"bus": bus}
    sig_backend = _sig_backend_spec(args)
    if sig_backend is not None:
        extra_knobs["sig_backend"] = sig_backend
    policy = _scheme_policy_spec(args)
    if policy is not None:
        extra_knobs["policy"] = policy
    tls_points = {
        app: tls_point(
            app, seed=args.seed, num_tasks=args.tls_tasks, **extra_knobs
        )
        for app in sorted(TLS_APPLICATIONS)
    }
    tm_points = {
        app: tm_point(
            app,
            seed=args.seed,
            txns_per_thread=args.tm_txns,
            include_partial=True,
            **extra_knobs,
        )
        for app in sorted(TM_KERNELS)
    }
    merged = runner.run(list(tls_points.values()) + list(tm_points.values()))
    if merged.cached_keys:
        print(f"{len(merged.cached_keys)} grid point(s) served from cache")

    # Figure 10 / Table 6 --------------------------------------------------
    tls = {app: merged.comparison(point) for app, point in tls_points.items()}
    fig10_headers = ["App"] + list(scheme_names("tls"))
    fig10_rows = [
        [app] + [c.speedup(s) for s in fig10_headers[1:]]
        for app, c in tls.items()
    ]
    write("fig10.txt", render_table(fig10_headers, fig10_rows,
                                    "Figure 10: TLS speedups"))
    write("fig10.csv", render_csv(fig10_headers, fig10_rows))
    t6_headers = ["App", "RdSet", "WrSet", "DepSet", "SqFP%", "FalseInv",
                  "SafeWB", "WrWr1k"]
    t6_rows = [
        [app, s.avg_read_set, s.avg_write_set, s.avg_dependence_set,
         s.false_squash_percent, s.false_invalidations_per_commit,
         s.safe_writebacks_per_task, s.wr_wr_conflicts_per_1k_tasks]
        for app, s in ((a, c.stats["Bulk"]) for a, c in tls.items())
    ]
    write("table6.txt", render_table(t6_headers, t6_rows,
                                     "Table 6: Bulk in TLS"))
    write("table6.csv", render_csv(t6_headers, t6_rows))

    # Figure 11 / 13 / 14 / Table 7 ---------------------------------------
    tm = {app: merged.comparison(point) for app, point in tm_points.items()}
    fig11_headers = ["App"] + list(scheme_names("tm", include_variants=True))
    fig11_rows = [
        [app] + [c.speedup_over_eager(s) for s in fig11_headers[1:]]
        for app, c in tm.items()
    ]
    write("fig11.txt", render_table(fig11_headers, fig11_rows,
                                    "Figure 11: TM speedups over Eager"))
    write("fig11.csv", render_csv(fig11_headers, fig11_rows))

    fig13_headers = ["App", "Scheme", "Inv", "Coh", "UB", "WB", "Fill",
                     "Total"]
    fig13_rows = []
    for app, c in tm.items():
        for scheme in scheme_names("tm"):
            # A degenerate Eager baseline (no bus traffic) cannot be
            # normalised against; the row is skipped with one warning on
            # stderr, emitted inside normalized_breakdown.
            b = c.bandwidth_vs_eager(scheme, warn=_warn_stderr)
            if b is None:
                continue
            fig13_rows.append([app, scheme, b["Inv"], b["Coh"], b["UB"],
                               b["WB"], b["Fill"], b["Total"]])
    write("fig13.txt", render_table(fig13_headers, fig13_rows,
                                    "Figure 13: bandwidth vs Eager (%)"))
    write("fig13.csv", render_csv(fig13_headers, fig13_rows))

    fig14 = {app: c.commit_bandwidth_vs_lazy() for app, c in tm.items()}
    write("fig14.txt", render_bars(fig14,
                                   title="Figure 14: Bulk commit bandwidth "
                                   "(% of Lazy)", unit="%"))
    write("fig14.csv", render_csv(["App", "BulkPctOfLazy"],
                                  [[a, v] for a, v in fig14.items()]))

    t7_headers = ["App", "RdSet", "WrSet", "DepSet", "SqFP%", "FalseInv",
                  "SafeWB"]
    t7_rows = [
        [app, s.avg_read_set, s.avg_write_set, s.avg_dependence_set,
         s.false_squash_percent, s.false_invalidations_per_commit,
         s.safe_writebacks_per_txn]
        for app, s in ((a, c.stats["Bulk"]) for a, c in tm.items())
    ]
    write("table7.txt", render_table(t7_headers, t7_rows,
                                     "Table 7: Bulk in TM"))
    write("table7.csv", render_csv(t7_headers, t7_rows))

    # Figure 15 / Table 8 --------------------------------------------------
    samples = collect_tm_samples(
        txns_per_thread=max(4, args.tm_txns // 2), seed=args.seed,
        max_samples_per_app=args.samples, backend=sig_backend,
    )
    rows = sweep_signature_configs(TABLE8_CONFIGS, samples,
                                   permutations_per_config=2,
                                   backend=sig_backend)
    f15_headers = ["Config", "Bits", "FPpct", "FPbest", "FPworst"]
    f15_rows = [
        [r.name, r.full_size_bits, 100 * r.fp_nominal, 100 * r.fp_best,
         100 * r.fp_worst]
        for r in rows
    ]
    write("fig15.txt", render_table(f15_headers, f15_rows,
                                    f"Figure 15 ({len(samples)} samples)"))
    write("fig15.csv", render_csv(f15_headers, f15_rows))
    t8_headers = ["Config", "FullBits", "AvgRLEBits"]
    t8_rows = [[r.name, r.full_size_bits, r.avg_compressed_bits]
               for r in rows]
    write("table8.txt", render_table(t8_headers, t8_rows,
                                     "Table 8: signature catalogue"))
    write("table8.csv", render_csv(t8_headers, t8_rows))

    # Interconnect contention (timed bus model only) -----------------------
    if bus is not None:
        sections = []
        for app in sorted(tls):
            sections.append(render_contention(
                tls[app].stats, title=f"tls:{app} ({bus})"
            ))
        for app in sorted(tm):
            sections.append(render_contention(
                tm[app].stats, title=f"tm:{app} ({bus})"
            ))
        write("contention.txt", "\n\n".join(sections))

    # Observability artifacts ----------------------------------------------
    if observability:
        if args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as stream:
                stream.write(merged.metrics_json() + "\n")
            print(f"wrote merged metrics to {args.metrics_out}")
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as stream:
                stream.write(merged.trace_jsonl())
            print(f"wrote {len(merged.traces)} trace summaries to "
                  f"{args.trace_out}")
        comparisons = merged.comparisons()
        sections = []
        all_ok = True
        for key in sorted(merged.traces):
            breakdowns = {
                scheme: stats.bandwidth
                for scheme, stats in comparisons[key].stats.items()
            }
            trace_bus = merged.traces[key]["bus"]
            rows = bandwidth_reconciliation_rows(trace_bus, breakdowns)
            all_ok = all_ok and reconciliation_ok(rows)
            sections.append(
                render_bandwidth_reconciliation(trace_bus, breakdowns,
                                                title=key)
            )
        write("reconciliation.txt", "\n\n".join(sections))
        if not all_ok:
            print("error: traced bytes do not reconcile with the "
                  "simulator's bandwidth accounting", file=sys.stderr)
            return 3

    print(f"\nfull evaluation archived under {out}/")
    return 0


def _print_ingest_result(result: Any) -> None:
    """One ingest's receipt, ending with the id on its own line so shell
    scripts can ``tail -n1`` it."""
    if result.deduplicated:
        print("store already holds this content (deduplicated)")
    print(
        f"{result.num_streams} stream(s), {result.num_records} record(s), "
        f"{result.num_chunks} chunk(s), {result.encoded_bytes} encoded bytes"
    )
    print(result.trace_id)


def _cmd_trace_ingest(args: argparse.Namespace) -> int:
    """Capture one instrumented workload into the trace store."""
    from repro.errors import TraceError
    from repro.trace import INGESTERS, TraceStore

    sizing = {
        "tm": lambda a: {
            "num_threads": a.threads, "txns_per_thread": a.txns,
        },
        "tls": lambda a: {"num_tasks": a.tasks},
        "checkpoint": lambda a: {"num_epochs": a.epochs},
    }[args.kind](args)
    try:
        store = TraceStore(args.store)
        result = INGESTERS[args.kind](
            store, args.app, seed=args.seed,
            chunk_bytes=args.chunk_kb * 1024, **sizing,
        )
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_ingest_result(result)
    return 0


def _cmd_trace_import(args: argparse.Namespace) -> int:
    """Convert an external JSONL trace file into the store."""
    from repro.errors import TraceError
    from repro.trace import TraceStore, import_jsonl

    try:
        store = TraceStore(args.store)
        result = import_jsonl(
            store, args.file, args.kind, label=args.label or "",
            chunk_bytes=args.chunk_kb * 1024,
        )
    except (TraceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_ingest_result(result)
    return 0


def _cmd_trace_list(args: argparse.Namespace) -> int:
    """List every stored trace."""
    from repro.errors import TraceError
    from repro.trace import TraceStore

    try:
        infos = TraceStore(args.store).traces()
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not infos:
        print(f"no traces in {args.store}")
        return 0
    rows = [
        [info.trace_id[:16], info.kind, info.label, info.num_streams,
         info.num_records, info.num_chunks, info.encoded_bytes]
        for info in infos
    ]
    print(
        render_table(
            ["Id (prefix)", "Kind", "Label", "Streams", "Records", "Chunks",
             "Bytes"],
            rows,
            title=f"Trace store: {args.store}",
        )
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    """Show (and optionally verify) one stored trace."""
    from repro.errors import TraceError
    from repro.trace import TraceStore

    try:
        store = TraceStore(args.store)
        # Accept unambiguous id prefixes, mirroring the list output.
        matches = [
            info for info in store.traces()
            if info.trace_id.startswith(args.trace_id)
        ]
        if not matches:
            raise TraceError(
                f"trace {args.trace_id!r} is not in the store at {args.store}"
            )
        if len(matches) > 1:
            raise TraceError(
                f"trace id prefix {args.trace_id!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        info = matches[0]
        if args.verify:
            store.reader(info.trace_id).verify()
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"trace_id:      {info.trace_id}")
    print(f"kind:          {info.kind}")
    print(f"label:         {info.label}")
    print(f"streams:       {info.num_streams}")
    print(f"records:       {info.num_records}")
    print(f"chunks:        {info.num_chunks}")
    print(f"encoded bytes: {info.encoded_bytes}")
    for key in sorted(info.meta):
        print(f"meta.{key}: {info.meta[key]}")
    if args.verify:
        print("content verified: SHA-256 matches the trace id")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation job service (HTTP front end + worker tier)."""
    from repro.errors import ServiceError
    from repro.service import run_service

    try:
        run_service(
            args.store,
            cache_dir=args.cache_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            executor=args.executor,
            quiet=args.quiet,
        )
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a grid-job spec to a running service."""
    import json as json_module

    from repro.errors import ServiceError
    from repro.service import ServiceClient

    try:
        if args.spec_file == "-":
            spec = json_module.load(sys.stdin)
        else:
            with open(args.spec_file, "r", encoding="utf-8") as stream:
                spec = json_module.load(stream)
    except (OSError, ValueError) as error:
        print(f"error: cannot read spec: {error}", file=sys.stderr)
        return 2

    client = ServiceClient(args.url)
    try:
        view = client.submit(spec)
        job_id = view["job_id"]
        print(f"submitted {job_id} "
              f"({view['progress']['total']} point(s), "
              f"status: {view['status']})")
        if not (args.wait or args.out):
            return 0
        on_event = (
            (lambda line: print(f"  {line}")) if args.show_events else None
        )
        view = client.wait(
            job_id, timeout=args.timeout, on_event=on_event
        )
        status = view["status"]
        print(f"{job_id}: {status}")
        for warning in view.get("failure_log_warnings", []):
            print(f"warning: {warning}", file=sys.stderr)
        if status != "done":
            if view.get("error"):
                print(f"error: {view['error']}", file=sys.stderr)
            return 2
        if args.out:
            body = client.result_bytes(job_id)
            with open(args.out, "wb") as stream:
                stream.write(body)
            print(f"result written to {args.out} ({len(body)} bytes)")
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    """List service jobs, or inspect / cancel one."""
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.job_id is None:
            if args.cancel:
                print("error: --cancel needs a job id", file=sys.stderr)
                return 2
            jobs = client.jobs()
            if not jobs:
                print(f"no jobs at {args.url}")
                return 0
            rows = [
                [job["job_id"], job["status"], job["label"],
                 f"{job['points_done']}/{job['points_total']}",
                 job["spec_hash"][:12]]
                for job in jobs
            ]
            print(
                render_table(
                    ["Job", "Status", "Label", "Done", "Spec"],
                    rows,
                    title=f"Jobs at {args.url}",
                )
            )
            return 0
        view = (
            client.cancel(args.job_id) if args.cancel
            else client.job(args.job_id)
        )
        print(f"job:    {view['job_id']}")
        print(f"status: {view['status']}"
              + (" (cancel requested)" if view["cancel_requested"] else ""))
        if view["label"]:
            print(f"label:  {view['label']}")
        if view["error"]:
            print(f"error:  {view['error']}")
        progress = view["progress"]
        print(
            f"points: {progress['done']}/{progress['total']} done "
            f"({progress['computed']} computed, {progress['cached']} cached, "
            f"{progress['deduped']} deduped, {progress['failed']} failed)"
        )
        for point in view["points"]:
            marker = point["outcome"] or point["status"]
            line = f"  {point['key']}: {marker}"
            if point["error"]:
                line += f" ({point['error']})"
            print(line)
        for entry in view["failure_log"]:
            print(f"failure log: {entry['key']} attempt {entry['attempt']}: "
                  f"{entry['error']}")
        for warning in view["failure_log_warnings"]:
            print(f"warning: {warning}", file=sys.stderr)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bulk Disambiguation (ISCA 2006) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads").set_defaults(
        func=_cmd_list
    )

    tm = sub.add_parser("tm", help="run one TM workload under every scheme")
    tm.add_argument("app", choices=sorted(TM_KERNELS))
    tm.add_argument("--txns", type=int, default=10,
                    help="transactions per thread")
    tm.add_argument("--seed", type=int, default=42)
    tm.add_argument("--partial", action="store_true",
                    help="also run Bulk with partial rollback")
    tm.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write the full event trace as JSONL")
    tm.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the metrics snapshot as JSON")
    _add_bus_arguments(tm)
    _add_sig_backend_argument(tm)
    _add_scheme_policy_argument(tm)
    _add_trace_arguments(tm)
    tm.set_defaults(func=_cmd_tm)

    tls = sub.add_parser("tls", help="run one TLS workload under every scheme")
    tls.add_argument("app", choices=sorted(TLS_APPLICATIONS))
    tls.add_argument("--tasks", type=int, default=120)
    tls.add_argument("--seed", type=int, default=42)
    tls.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write the full event trace as JSONL")
    tls.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the metrics snapshot as JSON")
    _add_bus_arguments(tls)
    _add_sig_backend_argument(tls)
    _add_scheme_policy_argument(tls)
    _add_trace_arguments(tls)
    tls.set_defaults(func=_cmd_tls)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run one checkpoint workload: Bulk vs the exact-log baseline",
    )
    checkpoint.add_argument("app", choices=sorted(CHECKPOINT_WORKLOADS))
    checkpoint.add_argument("--epochs", type=_positive_int, default=48,
                            help="epochs per run")
    checkpoint.add_argument("--max-depth", type=_positive_int, default=3,
                            help="sweep rollback depths 1..N")
    checkpoint.add_argument("--seed", type=int, default=42)
    checkpoint.add_argument("--jobs", type=_positive_int, default=None,
                            help="worker processes for the depth sweep "
                            "(default: one per CPU)")
    checkpoint.add_argument("--cache-dir", default=None,
                            help="result cache directory (default: no cache)")
    checkpoint.add_argument("--trace-out", default=None, metavar="PATH",
                            help="write per-point trace summaries as JSONL "
                            "(enables instrumentation)")
    checkpoint.add_argument("--metrics-out", default=None, metavar="PATH",
                            help="write merged + per-point metrics as JSON "
                            "(enables instrumentation)")
    _add_bus_arguments(checkpoint)
    _add_sig_backend_argument(checkpoint)
    _add_scheme_policy_argument(checkpoint)
    _add_trace_arguments(checkpoint)
    checkpoint.set_defaults(func=_cmd_checkpoint)

    accuracy = sub.add_parser(
        "accuracy", help="the Figure 15 signature accuracy sweep"
    )
    accuracy.add_argument("--samples", type=int, default=250,
                          help="samples per application")
    accuracy.add_argument("--txns", type=int, default=6)
    accuracy.add_argument("--seed", type=int, default=7)
    accuracy.add_argument("--permutations", type=int, default=2)
    _add_sig_backend_argument(accuracy)
    accuracy.set_defaults(func=_cmd_accuracy)

    sub.add_parser(
        "fig12", help="demonstrate the Figure 12 Eager pathologies"
    ).set_defaults(func=_cmd_fig12)

    trace = sub.add_parser(
        "trace", help="capture, import, and inspect on-disk traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    def _add_store_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", required=True, metavar="DIR",
                       help="trace store directory (created if missing)")
        p.add_argument("--chunk-kb", type=_positive_int, default=256,
                       metavar="KB", help="encoded bytes per chunk file "
                       "(does not change the trace id)")

    ingest = trace_sub.add_parser(
        "ingest", help="capture an instrumented workload into the store"
    )
    ingest_sub = ingest.add_subparsers(dest="kind", required=True)
    ingest_tm = ingest_sub.add_parser("tm", help="a Table 4 TM kernel")
    ingest_tm.add_argument("app", choices=sorted(TM_KERNELS))
    ingest_tm.add_argument("--threads", type=_positive_int, default=8)
    ingest_tm.add_argument("--txns", type=_positive_int, default=12,
                           help="transactions per thread")
    ingest_tls = ingest_sub.add_parser("tls", help="a Table 6 TLS task stream")
    ingest_tls.add_argument("app", choices=sorted(TLS_APPLICATIONS))
    ingest_tls.add_argument("--tasks", type=_positive_int, default=160)
    ingest_ckpt = ingest_sub.add_parser(
        "checkpoint", help="a checkpoint epoch stream"
    )
    ingest_ckpt.add_argument("app", choices=sorted(CHECKPOINT_WORKLOADS))
    ingest_ckpt.add_argument("--epochs", type=_positive_int, default=64)
    for p in (ingest_tm, ingest_tls, ingest_ckpt):
        p.add_argument("--seed", type=int, default=42)
        _add_store_flags(p)
        p.set_defaults(func=_cmd_trace_ingest)

    trace_import = trace_sub.add_parser(
        "import", help="convert an external JSONL trace into the store"
    )
    trace_import.add_argument("file", help="JSON-lines trace file "
                              "(repro.sim.traceio format)")
    trace_import.add_argument("--kind", required=True,
                              choices=["tm", "tls", "checkpoint"])
    trace_import.add_argument("--label", default=None,
                              help="store label (default: the file stem)")
    _add_store_flags(trace_import)
    trace_import.set_defaults(func=_cmd_trace_import)

    trace_list = trace_sub.add_parser("list", help="list stored traces")
    trace_list.add_argument("--store", required=True, metavar="DIR")
    trace_list.set_defaults(func=_cmd_trace_list)

    trace_info = trace_sub.add_parser(
        "info", help="show one stored trace (id prefixes accepted)"
    )
    trace_info.add_argument("trace_id")
    trace_info.add_argument("--store", required=True, metavar="DIR")
    trace_info.add_argument("--verify", action="store_true",
                            help="re-hash the content against the id")
    trace_info.set_defaults(func=_cmd_trace_info)

    serve = sub.add_parser(
        "serve",
        help="run the simulation job service (HTTP + worker pool)",
    )
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="service state directory (SQLite job store; "
                       "the shared result cache defaults to DIR/cache)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared result-cache directory "
                       "(default: <store>/cache)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8742,
                       help="listen port (0 picks an ephemeral one)")
    serve.add_argument("--workers", type=_positive_int, default=None,
                       help="worker threads (default: one per usable CPU)")
    serve.add_argument("--executor", choices=("thread", "process"),
                       default="process",
                       help="how workers execute points (default: process)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the startup banner and access log")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a grid-job spec to a running service"
    )
    submit.add_argument("spec_file",
                        help="JSON job spec ('-' reads standard input)")
    submit.add_argument("--url", default="http://127.0.0.1:8742",
                        help="service base URL")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job reaches a terminal state")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up waiting after this many seconds")
    submit.add_argument("--out", default=None, metavar="PATH",
                        help="download the merged result here (implies "
                        "--wait; byte-identical to a direct GridRunner run)")
    submit.add_argument("--show-events", action="store_true",
                        help="stream the job's progress events while "
                        "waiting")
    submit.set_defaults(func=_cmd_submit)

    jobs = sub.add_parser(
        "jobs", help="list service jobs, or inspect/cancel one"
    )
    jobs.add_argument("job_id", nargs="?", default=None,
                      help="show this job instead of listing all")
    jobs.add_argument("--url", default="http://127.0.0.1:8742",
                      help="service base URL")
    jobs.add_argument("--cancel", action="store_true",
                      help="request cancellation of the given job")
    jobs.set_defaults(func=_cmd_jobs)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the full evaluation and archive tables + CSVs",
    )
    reproduce.add_argument("--out", default="results",
                           help="output directory")
    reproduce.add_argument("--tm-txns", type=int, default=10)
    reproduce.add_argument("--tls-tasks", type=int, default=120)
    reproduce.add_argument("--samples", type=int, default=200)
    reproduce.add_argument("--seed", type=int, default=42)
    reproduce.add_argument("--jobs", type=_positive_int, default=None,
                           help="worker processes for the sweeps "
                           "(default: one per CPU)")
    reproduce.add_argument("--cache-dir", default=None,
                           help="result cache directory "
                           "(default: <out>/.cache)")
    reproduce.add_argument("--no-cache", action="store_true",
                           help="recompute every grid point")
    reproduce.add_argument("--trace-out", default=None, metavar="PATH",
                           help="write per-point trace summaries as JSONL "
                           "(enables instrumentation)")
    reproduce.add_argument("--metrics-out", default=None, metavar="PATH",
                           help="write merged + per-point metrics as JSON "
                           "(enables instrumentation)")
    _add_bus_arguments(reproduce)
    _add_sig_backend_argument(reproduce)
    _add_scheme_policy_argument(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
