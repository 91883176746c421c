"""GridRunners (and the job service) sharing one ResultCache directory.

The contract: N runners sweeping the same grid against one
``cache_dir`` compute every point **exactly once** between them —
in-flight points are claimed, concurrent runners await the claim
instead of recomputing — and every runner's merged output is
byte-identical to a solo run.  A claim whose owner died on this host
never blocks anyone.
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import repro.runner.grid as grid_module
from repro.runner import GridRunner, ResultCache, tls_point, tm_point
from repro.service import JobService, points_to_spec

POINTS = [
    tm_point("mc", txns_per_thread=2),
    tm_point("cb", txns_per_thread=2),
    tls_point("gzip", num_tasks=4),
    tls_point("bzip2", num_tasks=4),
]


class CountingExecute:
    """Deterministic fake simulation that tallies executions per key."""

    def __init__(self, delay=0.05):
        self.delay = delay
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, payload):
        with self.lock:
            self.calls.append(payload["app"])
        time.sleep(self.delay)
        return {"echo": dict(payload)}


def counter_value(runner, name):
    return (
        runner.cache_metrics.snapshot()["counters"].get(name, 0)
        if runner.cache_metrics is not None
        else 0
    )


class TestSharedMode:
    def test_two_concurrent_runners_compute_each_point_exactly_once(
        self, tmp_path, monkeypatch
    ):
        counting = CountingExecute()
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        barrier = threading.Barrier(2)
        results = {}
        errors = []

        def sweep(name):
            runner = GridRunner(
                jobs=1, cache_dir=tmp_path, poll_interval=0.005,
            )
            barrier.wait()
            try:
                results[name] = (runner, runner.run(POINTS))
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=sweep, args=(name,))
            for name in ("left", "right")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        # Exactly once: 4 points, 4 executions across both runners.
        assert sorted(counting.calls) == sorted(
            point.app for point in POINTS
        )

        (left_runner, left), (right_runner, right) = (
            results["left"], results["right"]
        )
        assert left.to_json() == right.to_json()
        assert set(left.results) == {point.key for point in POINTS}

        # Dedupe accounting: every point was computed by exactly one
        # side; the other side saw it as a dedupe (await on the claim)
        # or a cache hit (published before its initial lookup).
        computed = sum(
            counter_value(runner, "cache.points_computed")
            for runner in (left_runner, right_runner)
        )
        deduped = sum(
            counter_value(runner, "cache.points_deduped")
            for runner in (left_runner, right_runner)
        )
        cached = len(left.cached_keys) + len(right.cached_keys)
        assert computed == len(POINTS)
        assert computed + deduped + cached == 2 * len(POINTS)
        assert deduped == len(left.deduped_keys) + len(right.deduped_keys)

        # No claim files survive a completed sweep.
        assert list(tmp_path.glob("*.claim")) == []

    def test_solo_shared_run_matches_unshared_byte_for_byte(
        self, tmp_path, monkeypatch
    ):
        """A claiming run (cache directory) and a claim-free run (no
        cache) merge to the same bytes."""
        counting = CountingExecute(delay=0)
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        shared = GridRunner(jobs=1, cache_dir=tmp_path).run(POINTS)
        plain = GridRunner(jobs=1).run(POINTS)
        assert shared.to_json() == plain.to_json()
        assert list(tmp_path.glob("*.claim")) == []

    def test_stale_claim_is_broken_and_the_point_computed(
        self, tmp_path, monkeypatch
    ):
        counting = CountingExecute(delay=0)
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        point = POINTS[0]
        cache = ResultCache(tmp_path)
        runner = GridRunner(
            jobs=1, cache_dir=tmp_path, poll_interval=0.005,
            claim_ttl=0.01,
        )
        key = cache.key_for(point.payload())
        assert cache.try_claim(key)  # a dead runner's leftover
        time.sleep(0.05)
        result = runner.run([point])
        assert point.key in result.results
        assert counting.calls == [point.app]
        assert not cache.claimed(key)

    def test_released_claim_of_a_failed_runner_lets_waiters_retry(
        self, tmp_path, monkeypatch
    ):
        """A runner whose point fails permanently must release the
        claim so a concurrent waiter retries with its own budget."""
        point = POINTS[0]
        first_started = threading.Event()
        finish_first = threading.Event()
        calls = []
        lock = threading.Lock()

        def flaky(payload):
            with lock:
                calls.append(payload["app"])
                mine = len(calls)
            if mine == 1:
                first_started.set()
                assert finish_first.wait(timeout=10)
                raise RuntimeError("dead runner")
            return {"echo": dict(payload)}

        monkeypatch.setattr(grid_module, "_execute_point", flaky)
        outcome = {}

        def failing_sweep():
            runner = GridRunner(
                jobs=1, retries=0, cache_dir=tmp_path,
                poll_interval=0.005,
            )
            outcome["failing"] = runner.run([point], allow_failures=True)

        def waiting_sweep():
            first_started.wait(timeout=10)
            runner = GridRunner(
                jobs=1, retries=0, cache_dir=tmp_path,
                poll_interval=0.005,
            )
            outcome["waiting"] = runner.run([point])

        threads = [
            threading.Thread(target=failing_sweep),
            threading.Thread(target=waiting_sweep),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # let the waiter reach the claim-wait loop
        finish_first.set()
        for thread in threads:
            thread.join(timeout=30)
        assert outcome["failing"].results == {}
        assert point.key in outcome["waiting"].results
        assert calls == [point.app, point.app]

    def test_a_claim_that_cannot_be_written_falls_back_to_computing(
        self, tmp_path, monkeypatch
    ):
        """A directory that refuses claim files must cost the claim, not
        hang the run waiting for a claimer that does not exist."""
        counting = CountingExecute(delay=0)
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        runner = GridRunner(jobs=1, cache_dir=tmp_path, poll_interval=0.005)
        real_open = os.open

        def refuse_claims(path, *args, **kwargs):
            if str(path).endswith(".claim"):
                raise PermissionError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse_claims)
        thread, outcome = run_in_thread(lambda: runner.run(POINTS[:1]))
        thread.join(timeout=5)
        assert not thread.is_alive(), "an unclaimable key hung the run"
        assert set(outcome["result"].results) == {POINTS[0].key}
        assert counting.calls == [POINTS[0].app]


def dead_pid():
    """The pid of a process that has exited and been reaped."""
    process = subprocess.Popen([sys.executable, "-c", "pass"])
    process.wait()
    return process.pid


def plant_claim(cache, key, host, pid):
    """A claim file as another owner would have left it."""
    owner = {"host": host, "pid": pid}
    (cache.directory / f"{key}.claim").write_text(json.dumps(owner) + "\n")


def run_in_thread(target):
    outcome = {}
    thread = threading.Thread(
        target=lambda: outcome.setdefault("result", target()), daemon=True
    )
    thread.start()
    return thread, outcome


class TestDeadClaimOwners:
    """A claim records its owner's host and pid: a same-host owner that
    no longer exists is broken at once, not after the one-hour TTL."""

    def test_claim_records_host_and_pid(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.try_claim("k" * 64)
        owner = json.loads((tmp_path / ("k" * 64 + ".claim")).read_text())
        assert owner == {"host": socket.gethostname(), "pid": os.getpid()}

    def test_dead_same_host_claim_is_broken_without_waiting(self, tmp_path):
        cache = ResultCache(tmp_path)
        plant_claim(cache, "a" * 64, socket.gethostname(), dead_pid())
        assert cache.break_stale_claim("a" * 64, ttl=3600)
        assert not cache.claimed("a" * 64)

    def test_live_same_host_claim_keeps_the_ttl_rule(self, tmp_path):
        cache = ResultCache(tmp_path)
        plant_claim(cache, "b" * 64, socket.gethostname(), os.getpid())
        assert not cache.break_stale_claim("b" * 64, ttl=3600)
        assert cache.break_stale_claim("b" * 64, ttl=-1)

    def test_foreign_host_and_legacy_claims_keep_the_ttl_rule(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        plant_claim(cache, "c" * 64, "another-host.invalid", dead_pid())
        (tmp_path / ("d" * 64 + ".claim")).write_text(f"{dead_pid()}\n")
        for key in ("c" * 64, "d" * 64):
            assert not cache.break_stale_claim(key, ttl=3600)
            assert cache.break_stale_claim(key, ttl=-1)

    def test_opening_a_cache_sweeps_dead_claims_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        plant_claim(cache, "e" * 64, socket.gethostname(), dead_pid())
        plant_claim(cache, "f" * 64, socket.gethostname(), os.getpid())
        plant_claim(cache, "0" * 64, "another-host.invalid", dead_pid())
        ResultCache(tmp_path)
        assert sorted(path.stem for path in tmp_path.glob("*.claim")) == [
            "0" * 64, "f" * 64,
        ]

    def test_grid_runner_breaks_a_dead_owners_claim_at_once(
        self, tmp_path, monkeypatch
    ):
        counting = CountingExecute(delay=0)
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        point = POINTS[0]
        runner = GridRunner(jobs=1, cache_dir=tmp_path, poll_interval=0.005)
        key = runner.cache.key_for(point.payload())
        plant_claim(runner.cache, key, socket.gethostname(), dead_pid())
        thread, outcome = run_in_thread(lambda: runner.run([point]))
        thread.join(timeout=5)
        assert not thread.is_alive(), "a dead owner's claim blocked the run"
        assert point.key in outcome["result"].results
        assert counting.calls == [point.app]
        assert counter_value(runner, "cache.claims_broken") == 1
        assert list(tmp_path.glob("*.claim")) == []

    def test_grid_runner_waits_on_a_live_owners_claim(
        self, tmp_path, monkeypatch
    ):
        counting = CountingExecute(delay=0)
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        point = POINTS[0]
        runner = GridRunner(jobs=1, cache_dir=tmp_path, poll_interval=0.005)
        cache = runner.cache
        key = cache.key_for(point.payload())
        assert cache.try_claim(key)  # a live claimer: this process
        thread, outcome = run_in_thread(lambda: runner.run([point]))
        thread.join(timeout=0.3)
        assert thread.is_alive(), "a live owner's claim was not awaited"
        cache.put(key, point.payload(), {"published": "by the owner"})
        cache.release_claim(key)
        thread.join(timeout=5)
        assert outcome["result"].deduped_keys == [point.key]
        assert outcome["result"].results[point.key] == {
            "published": "by the owner"
        }
        assert counting.calls == []

    def test_restarted_service_breaks_a_dead_owners_claim_at_once(
        self, tmp_path, monkeypatch
    ):
        counting = CountingExecute(delay=0)
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        point = POINTS[0]
        first = JobService(tmp_path / "svc", executor="thread", workers=1)
        job_id = first.submit(points_to_spec([point]))["job_id"]
        first.stop()  # never started: the job is left queued
        second = JobService(
            tmp_path / "svc", executor="thread", workers=1,
            poll_interval=0.005,
        )
        key = second.cache.key_for(point.payload())
        plant_claim(second.cache, key, socket.gethostname(), dead_pid())
        second.start()
        try:
            assert second.wait(job_id, timeout=5) == "done"
        finally:
            second.stop()
        assert counting.calls == [point.app]
        assert list(second.cache.directory.glob("*.claim")) == []


class TestRunnerAndService:
    def test_runner_and_service_compute_each_point_exactly_once(
        self, tmp_path, monkeypatch
    ):
        """A direct GridRunner and a JobService resolving the same grid
        on one cache directory share the work: each point executes once,
        and both merge to the same bytes."""
        counting = CountingExecute()
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        service = JobService(
            tmp_path / "svc", cache_dir=tmp_path / "cache",
            executor="thread", workers=2, poll_interval=0.005,
        )
        service.start()
        barrier = threading.Barrier(2)
        outcome = {}

        def direct():
            runner = GridRunner(
                jobs=1, cache_dir=tmp_path / "cache", poll_interval=0.005
            )
            barrier.wait()
            outcome["runner"] = runner.run(POINTS)

        def served():
            barrier.wait()
            job_id = service.submit(points_to_spec(POINTS))["job_id"]
            outcome["status"] = service.wait(job_id, timeout=30)
            outcome["body"] = service.result_bytes(job_id)

        threads = [threading.Thread(target=fn) for fn in (direct, served)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            service.stop()
        assert outcome["status"] == "done"
        assert sorted(counting.calls) == sorted(
            point.app for point in POINTS
        )
        assert outcome["runner"].to_json().encode("utf-8") == outcome["body"]
        assert list((tmp_path / "cache").glob("*.claim")) == []
