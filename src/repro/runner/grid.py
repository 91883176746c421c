"""Parallel execution of experiment grids.

The evaluation sweeps are embarrassingly parallel: every (application ×
seed × knob) grid point is an independent, deterministic simulation.
:class:`GridRunner` resolves each point through the point-resolution
engine (:mod:`repro.runner.engine`) on ``jobs`` threads, executing on a
warm :class:`concurrent.futures.ProcessPoolExecutor`, and merges the
results deterministically — the merged output is **byte-identical** for
any worker count, because

* each point's result is reduced to its canonical JSON form
  (:mod:`repro.runner.serialize`) inside the worker, and
* the merge orders points by their canonical keys, never by completion
  order.

Failures are retried per point; whatever still fails after the retry
budget lands in the runner's :attr:`~GridRunner.failure_log` instead of
poisoning the whole sweep.  With a cache directory configured
(:mod:`repro.runner.cache`), finished points are persisted, re-running a
sweep only recomputes points whose parameters or simulator code changed,
and in-flight claims make concurrent runners and the job service
sharing the directory compute each point exactly once.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import SimulationError
from repro.runner.cache import DEFAULT_CLAIM_TTL, ResultCache
from repro.runner.engine import FailureRecord, Resolution, resolve_point
from repro.runner.serialize import (
    canonical_json,
    comparison_from_dict,
    comparison_to_dict,
)

Knobs = Tuple[Tuple[str, Any], ...]

#: Knobs that select an implementation strategy, not an experiment: the
#: signature-backend contract (pinned by the cross-backend conformance
#: suite) guarantees bit-identical results for every backend, so these
#: knobs are excluded from a point's canonical *label* — which names
#: artifacts (trace keys, per-point metrics, reconciliation headers) that
#: must stay byte-identical across backends.  The execution/cache payload
#: still carries them, so cached results never leak across backends.
#: ``policy`` (the scheme hot-swap policy) is deliberately NOT here: an
#: adaptive policy changes simulation results, so it must stay visible in
#: both the label and the cache key.
_LABEL_INVISIBLE_KNOBS = frozenset({"sig_backend"})


class GridExecutionError(SimulationError):
    """A grid point kept failing after exhausting its retry budget."""


@dataclass(frozen=True)
class GridPoint:
    """One cell of an experiment grid.

    ``knobs`` are the extra keyword arguments of the underlying
    comparison driver (``txns_per_thread``, ``num_tasks``,
    ``include_partial``, …), restricted to JSON-serialisable values so
    the point can be hashed into a stable cache key.
    """

    kind: str  # "tm", "tls", or "checkpoint"
    app: str
    seed: int = 42
    knobs: Knobs = ()

    def __post_init__(self) -> None:
        if self.kind not in ("tm", "tls", "checkpoint"):
            raise ValueError(f"unknown grid point kind {self.kind!r}")

    @property
    def key(self) -> str:
        """Canonical identity of the point: kind, app, seed, knobs.

        Implementation-strategy knobs (:data:`_LABEL_INVISIBLE_KNOBS`)
        are omitted — they cannot change results, and artifact labels
        must not depend on them.
        """
        knob_text = ",".join(
            f"{name}={value!r}"
            for name, value in self.knobs
            if name not in _LABEL_INVISIBLE_KNOBS
        )
        return f"{self.kind}:{self.app}:seed={self.seed}:{knob_text}"

    def payload(self) -> Dict[str, Any]:
        """The JSON payload workers execute and caches hash."""
        return {
            "kind": self.kind,
            "app": self.app,
            "seed": self.seed,
            "knobs": dict(self.knobs),
        }


def tm_point(app: str, seed: int = 42, **knobs: Any) -> GridPoint:
    """A TM grid point (extra knobs go to ``run_tm_comparison``)."""
    return GridPoint("tm", app, seed, tuple(sorted(knobs.items())))


def tls_point(app: str, seed: int = 42, **knobs: Any) -> GridPoint:
    """A TLS grid point (extra knobs go to ``run_tls_comparison``)."""
    return GridPoint("tls", app, seed, tuple(sorted(knobs.items())))


def checkpoint_point(app: str, seed: int = 42, **knobs: Any) -> GridPoint:
    """A checkpoint grid point (knobs go to ``run_checkpoint_comparison``)."""
    return GridPoint("checkpoint", app, seed, tuple(sorted(knobs.items())))


#: Relative cost per workload unit of one grid point, by substrate kind.
#: TM runs every scheme over ``num_processors`` interleaved trace streams
#: (and Bulk-Partial on top), TLS runs four schemes over one task list,
#: and a checkpoint point is a single in-order processor — so at default
#: workload sizes tm > tls > checkpoint, which is what the submission
#: order must reflect.
_KIND_WEIGHT = {"tm": 40.0, "tls": 2.0, "checkpoint": 1.0}

#: The knob that scales each kind's work, with the driver's default.
_KIND_UNITS = {
    "tm": ("txns_per_thread", 12),
    "tls": ("num_tasks", 160),
    "checkpoint": ("num_epochs", 64),
}


def execution_cost(point: GridPoint) -> float:
    """Heuristic execution cost of one grid point.

    Longest-processing-time-first submission needs only a *ranking*, not
    cycle-accurate predictions: expensive TM sweeps must enter the pool
    before cheap checkpoint points so the tail of a grid run is not one
    long TM point executing alone after everything else drained.
    """
    knobs = dict(point.knobs)
    unit_knob, default_units = _KIND_UNITS[point.kind]
    cost = _KIND_WEIGHT[point.kind] * knobs.get(unit_knob, default_units)
    if point.kind == "checkpoint":
        # Rollbacks re-execute epochs, multiplying the work.
        cost *= knobs.get("rollback_depth", 1)
    return cost


def submission_order(points: Sequence[GridPoint]) -> List[GridPoint]:
    """Points ordered for execution: costliest first, key as tiebreak.

    Only the *submission* order changes — the merge is always by sorted
    canonical key, so results stay byte-identical for any worker count
    and any ordering policy.
    """
    return sorted(
        points, key=lambda point: (-execution_cost(point), point.key)
    )


def _execute_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one grid point and reduce it to its canonical result dict.

    Module-level so it pickles into pool workers; imports the drivers
    lazily to keep worker start-up importing only what it runs.

    With ``payload["obs"]`` set, the point runs under a fresh
    :class:`~repro.obs.Observability` bundle and the return value is a
    wrapper ``{"comparison": ..., "metrics": ..., "trace": ...}`` whose
    extra members are the point's metrics snapshot and deterministic
    trace summary.  The instrumentation never feeds back into the
    simulation, so the ``"comparison"`` member is identical to the bare
    result of an uninstrumented run.
    """
    from repro.analysis.experiments import (
        run_checkpoint_comparison,
        run_tls_comparison,
        run_tm_comparison,
    )

    drivers = {
        "tm": run_tm_comparison,
        "tls": run_tls_comparison,
        "checkpoint": run_checkpoint_comparison,
    }
    knobs = dict(payload["knobs"])
    obs = None
    if payload.get("obs"):
        from repro.obs import Observability

        obs = Observability()
        knobs["obs"] = obs
    comparison = drivers[payload["kind"]](
        payload["app"], seed=payload["seed"], **knobs
    )
    encoded = comparison_to_dict(comparison)
    if obs is None:
        return encoded
    return {
        "comparison": encoded,
        "metrics": obs.metrics.snapshot(),
        "trace": obs.tracer.summary(),
    }


def point_executor(
    pool: Optional[ProcessPoolExecutor] = None,
) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """The ``execute`` callable of the resolution engine: run
    :func:`_execute_point` inline, or on ``pool`` and wait for it.

    The function is looked up at call time, so a substituted module
    attribute (the tests' fake simulations) takes effect inline.
    """
    if pool is None:
        return lambda payload: _execute_point(payload)
    return lambda payload: pool.submit(_execute_point, payload).result()


def _warm_worker() -> None:
    """Pool-worker initializer: pre-import and pre-build the hot state.

    Every grid point pays the same start-up costs inside a fresh worker
    process: importing the experiment drivers, materialising the Table 8
    signature catalogue (each config builds its permutation and layout),
    the two paper-default configs, and the scheme registry.  Doing it
    once per *worker* instead of once per *point* removes that cost from
    every point after the first.  Warming touches only process-local
    caches — it computes nothing a point's simulation depends on — so
    results, merge order, and cache keys are byte-identical with or
    without it.
    """
    import repro.analysis.experiments  # noqa: F401 - imported for side effect
    from repro.core.backend import suppress_fallback_warnings
    from repro.core.signature_config import (  # noqa: F401
        TABLE8_CONFIGS,
        default_tls_config,
        default_tm_config,
    )
    from repro.spec import scheme_entries

    # The parent pre-resolves every backend the grid names and emits the
    # single user-facing degradation warning; each fresh worker would
    # otherwise repeat it (once per process x jobs workers).
    suppress_fallback_warnings()
    default_tm_config()
    default_tls_config()
    for substrate in ("tm", "tls", "checkpoint"):
        list(scheme_entries(substrate, include_variants=True))


@dataclass
class GridResult:
    """The deterministic merge of one grid execution."""

    #: Canonical point key -> canonical result dictionary, in key order.
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Keys that were served from the on-disk cache.
    cached_keys: List[str] = field(default_factory=list)
    #: Keys whose results a *concurrent* runner (or the job service)
    #: computed while this one waited on its claim.
    deduped_keys: List[str] = field(default_factory=list)
    #: Every failed attempt (including ones whose point later succeeded).
    failures: List[FailureRecord] = field(default_factory=list)
    #: Point key -> metrics snapshot (observability runs only).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Point key -> deterministic trace summary (observability runs only).
    traces: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_json(self) -> str:
        """The merged results as canonical JSON (byte-identical for any
        worker count)."""
        return canonical_json(self.results)

    def merged_metrics(self) -> Dict[str, Any]:
        """All points' metrics merged in canonical key order.

        :func:`repro.obs.metrics.merge_snapshots` is associative and
        commutative, and the inputs are iterated in sorted-key order, so
        the merge is byte-identical for any worker count.
        """
        from repro.obs.metrics import merge_snapshots

        return merge_snapshots(
            self.metrics[key] for key in sorted(self.metrics)
        )

    def metrics_json(self) -> str:
        """Canonical JSON of the merged and per-point metrics."""
        return canonical_json(
            {"merged": self.merged_metrics(), "per_point": self.metrics}
        )

    def trace_jsonl(self) -> str:
        """One canonical-JSON trace-summary line per point, in key order."""
        return "".join(
            canonical_json({"key": key, "summary": self.traces[key]}) + "\n"
            for key in sorted(self.traces)
        )

    def comparison(self, point: GridPoint) -> Any:
        """The reconstructed comparison object of one point."""
        return comparison_from_dict(self.results[point.key])

    def comparisons(self) -> Dict[str, Any]:
        """Every result reconstructed, keyed by point key."""
        return {
            key: comparison_from_dict(data) for key, data in self.results.items()
        }


def default_jobs() -> int:
    """Auto-detected worker count: one per *available* CPU.

    Containerised and pinned deployments (the job service's worker tier
    in particular) usually run with a CPU affinity mask far smaller than
    the host's core count; ``os.cpu_count()`` reports the host and would
    oversubscribe the mask.  Where the platform exposes it, the
    scheduling affinity of this process is the honest answer.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


class GridRunner:
    """Executes experiment grids, serially or across worker processes.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` auto-detects (:func:`default_jobs`);
        ``1`` runs in-process with no pool at all.
    retries:
        How many times one point is *re*-tried after a failure (so each
        point runs at most ``retries + 1`` times).
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
        The directory may be shared with concurrent runners and the job
        service: every point is claimed before it executes, and points
        another claimer holds are awaited instead of recomputed, so
        each point is computed exactly once between them.  Results are
        byte-identical either way — simulations are deterministic, so
        dedupe only changes *who* computes, never *what*.
    observability:
        Instrument every point with a per-worker metrics registry and
        event tracer; snapshots/summaries land on the
        :class:`GridResult` (``metrics`` / ``traces``), merged in
        canonical key order.  Instrumented and uninstrumented runs use
        distinct cache keys, and the simulation results themselves are
        unaffected either way.
    poll_interval:
        Seconds between cache polls while awaiting a point another
        claimer holds.
    claim_ttl:
        Seconds after which a claim whose owner cannot be checked
        (another host's) is presumed dead and broken; a same-host
        claim whose process is gone is broken at once.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        retries: int = 1,
        cache_dir: "Optional[str | os.PathLike[str]]" = None,
        observability: bool = False,
        poll_interval: float = 0.05,
        claim_ttl: float = DEFAULT_CLAIM_TTL,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        self.jobs = default_jobs() if jobs is None else jobs
        self.retries = retries
        if cache_dir is not None:
            from repro.obs.metrics import MetricsRegistry

            # Parent-side registry: cache hygiene (stale-temporary sweeps,
            # corrupt-entry evictions) happens in this process, before any
            # worker exists, so it cannot ride the per-point snapshots.
            self.cache_metrics: Optional[Any] = MetricsRegistry()
            self.cache: Optional[ResultCache] = ResultCache(
                cache_dir, metrics=self.cache_metrics
            )
        else:
            self.cache_metrics = None
            self.cache = None
        self.observability = observability
        self.poll_interval = poll_interval
        self.claim_ttl = claim_ttl
        self.failure_log: List[FailureRecord] = []

    def _payload(self, point: GridPoint) -> Dict[str, Any]:
        """The point's execution/cache payload.  Only observability runs
        gain the extra ``"obs"`` member, so plain runs keep their cache
        keys (and cached results) from before instrumentation existed."""
        payload = point.payload()
        if self.observability:
            payload["obs"] = True
        return payload

    def run(
        self, points: Iterable[GridPoint], allow_failures: bool = False
    ) -> GridResult:
        """Execute every point and return the deterministic merge.

        Raises :class:`GridExecutionError` if any point exhausts its
        retry budget, unless ``allow_failures`` is set — then failed
        points are simply absent from the results and recorded in the
        failure log.
        """
        ordered = sorted(set(points), key=lambda point: point.key)
        if len(ordered) != len({point.key for point in ordered}):
            raise ValueError("grid contains points with duplicate keys")

        result = GridResult()
        resolutions = self._resolve_all(submission_order(ordered))
        dead: List[str] = []
        for point in ordered:
            resolution = resolutions[point.key]
            result.failures.extend(resolution.failures)
            entry = resolution.value
            if entry is None:
                dead.append(point.key)
                continue
            if self.observability:
                result.results[point.key] = entry["comparison"]
                result.metrics[point.key] = entry["metrics"]
                result.traces[point.key] = entry["trace"]
            else:
                result.results[point.key] = entry
            if resolution.outcome == "cached":
                result.cached_keys.append(point.key)
            elif resolution.outcome == "deduped":
                result.deduped_keys.append(point.key)
            if self.cache_metrics is not None:
                self.cache_metrics.counter(
                    f"cache.points_{resolution.outcome}"
                ).inc()

        self.failure_log.extend(result.failures)
        if dead and not allow_failures:
            raise GridExecutionError(
                f"{len(dead)} grid point(s) failed after "
                f"{self.retries + 1} attempt(s): {', '.join(dead)}"
            )
        return result

    def _resolve_all(
        self, points: Sequence[GridPoint]
    ) -> Dict[str, Resolution]:
        """Resolve every point, ``jobs`` at a time, in the given
        (longest-processing-time-first) order.

        With one worker, points resolve and execute inline; otherwise
        ``jobs`` threads run the engine and execute on a warm process
        pool, so only the first point of a run, not every worker's
        first point, pays Python start-up costs.
        """
        workers = min(self.jobs, len(points))
        if workers <= 1:
            execute = point_executor()
            return {point.key: self._resolve(point, execute) for point in points}
        self._preresolve_backends(points)
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_warm_worker
        ) as pool:
            # The first submit forks every worker; do it while this is
            # the only thread, since a fork taken while other threads run
            # can deadlock the child on a lock one of them held.
            pool.submit(int).result()
            execute = point_executor(pool)
            with ThreadPoolExecutor(max_workers=workers) as threads:
                resolved = threads.map(
                    lambda point: self._resolve(point, execute), points
                )
                return dict(zip((point.key for point in points), resolved))

    def _resolve(
        self,
        point: GridPoint,
        execute: Callable[[Dict[str, Any]], Dict[str, Any]],
    ) -> Resolution:
        return resolve_point(
            point.key,
            self._payload(point),
            execute,
            cache=self.cache,
            retries=self.retries,
            poll_interval=self.poll_interval,
            claim_ttl=self.claim_ttl,
        )

    @staticmethod
    def _preresolve_backends(points: Sequence[GridPoint]) -> None:
        """Resolve every backend the grid names, in the parent process.

        A degraded backend (``numpy`` without numpy installed) then
        warns exactly once — here — instead of once per pool worker;
        :func:`_warm_worker` silences the workers' copies.  Resolution
        is cached and stateless, so this does not change results.
        """
        from repro.core.backend import resolve_backend

        names = {
            value
            for point in points
            for name, value in point.knobs
            if name == "sig_backend" and isinstance(value, str)
        }
        for backend in sorted(names):
            resolve_backend(backend)
