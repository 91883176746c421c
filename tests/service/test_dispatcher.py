"""The dispatcher and service facade: lifecycle, dedupe, byte-identity.

Most tests monkeypatch ``repro.runner.grid._execute_point`` (the same
seam the runner tests use) so they exercise the orchestration — claims,
retries, cancellation, timeouts, finalisation — without paying for real
simulations.  One test runs a real point to pin byte-identity against a
direct :class:`~repro.runner.GridRunner` end to end.
"""

import json
import threading
import time

import pytest

import repro.runner.grid as grid_module
from repro.errors import JobSpecError
from repro.runner import GridRunner, canonical_json, tls_point, tm_point
from repro.service import JobService, points_to_spec


POINTS = [
    {"kind": "tm", "app": "mc", "seed": 7, "knobs": {"txns_per_thread": 2}},
    {"kind": "tls", "app": "gzip", "seed": 7, "knobs": {"num_tasks": 4}},
]


def fake_execute(payload):
    """Deterministic stand-in result derived from the payload alone."""
    return {"echo": dict(payload), "score": len(canonical_json(payload))}


class CountingExecute:
    def __init__(self, delay=0.0):
        self.delay = delay
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, payload):
        with self.lock:
            self.calls.append(canonical_json(payload))
        if self.delay:
            time.sleep(self.delay)
        return fake_execute(payload)


@pytest.fixture
def service(tmp_path):
    service = JobService(
        tmp_path / "svc", executor="thread", workers=2, poll_interval=0.01
    )
    service.start()
    yield service
    service.stop()


def counters(service):
    return service.metrics_snapshot()["counters"]


class TestHappyPath:
    def test_job_runs_to_done_with_computed_outcomes(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(grid_module, "_execute_point", fake_execute)
        view = service.submit({"points": POINTS})
        assert view["status"] in ("queued", "running")
        assert service.wait(view["job_id"], timeout=10) == "done"
        final = service.job_view(view["job_id"])
        assert final["progress"]["done"] == 2
        assert final["progress"]["computed"] == 2
        assert all(p["outcome"] == "computed" for p in final["points"])
        assert counters(service)["service.points_computed"] == 2

    def test_result_is_canonical_json_in_key_order(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(grid_module, "_execute_point", fake_execute)
        view = service.submit({"points": POINTS})
        service.wait(view["job_id"], timeout=10)
        body = service.result_bytes(view["job_id"])
        points = [
            tm_point("mc", seed=7, txns_per_thread=2),
            tls_point("gzip", seed=7, num_tasks=4),
        ]
        expected = canonical_json(
            {p.key: fake_execute(p.payload()) for p in points}
        ).encode("utf-8")
        assert body == expected

    def test_second_submission_is_served_from_cache(
        self, service, monkeypatch
    ):
        counting = CountingExecute()
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        first = service.submit({"points": POINTS})
        service.wait(first["job_id"], timeout=10)
        second = service.submit({"points": POINTS})
        service.wait(second["job_id"], timeout=10)
        assert len(counting.calls) == 2  # two unique points, once each
        final = service.job_view(second["job_id"])
        assert final["progress"]["cached"] + final["progress"]["deduped"] == 2
        assert (
            service.result_bytes(first["job_id"])
            == service.result_bytes(second["job_id"])
        )

    def test_events_stream_tells_the_whole_story(self, service, monkeypatch):
        monkeypatch.setattr(grid_module, "_execute_point", fake_execute)
        view = service.submit({"points": POINTS})
        service.wait(view["job_id"], timeout=10)
        kinds = [
            json.loads(line)["kind"]
            for line in service.events_lines(view["job_id"])
        ]
        assert kinds[0] == "job.queued"
        assert kinds[-1] == "job.done"
        assert kinds.count("point.done") == 2


class TestConcurrentDedupe:
    def test_identical_concurrent_jobs_cost_one_simulation(
        self, service, monkeypatch
    ):
        counting = CountingExecute(delay=0.05)
        monkeypatch.setattr(grid_module, "_execute_point", counting)
        barrier = threading.Barrier(2)
        job_ids = []
        lock = threading.Lock()

        def submit():
            barrier.wait()
            view = service.submit({"points": POINTS})
            with lock:
                job_ids.append(view["job_id"])

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for job_id in job_ids:
            assert service.wait(job_id, timeout=20) == "done"

        # The headline invariant: 2 jobs x 2 points, 2 executions.
        assert len(counting.calls) == 2
        snapshot = counters(service)
        assert snapshot["service.points_computed"] == 2
        assert (
            snapshot["service.points_computed"]
            + snapshot.get("service.points_cached", 0)
            + snapshot.get("service.points_deduped", 0)
        ) == 4
        first, second = (
            service.result_bytes(job_id) for job_id in job_ids
        )
        assert first == second


class TestFailureHandling:
    def test_flaky_point_retries_within_budget(self, service, monkeypatch):
        attempts = {}
        lock = threading.Lock()

        def flaky(payload):
            with lock:
                n = attempts[payload["kind"]] = (
                    attempts.get(payload["kind"], 0) + 1
                )
            if payload["kind"] == "tm" and n == 1:
                raise RuntimeError("transient")
            return fake_execute(payload)

        monkeypatch.setattr(grid_module, "_execute_point", flaky)
        view = service.submit({"points": POINTS, "retries": 1})
        assert service.wait(view["job_id"], timeout=10) == "done"
        final = service.job_view(view["job_id"])
        by_kind = {
            p["key"].split(":")[0]: p for p in final["points"]
        }
        assert by_kind["tm"]["attempts"] == 2
        assert counters(service)["service.point_retries"] == 1
        # The shared failure log records the transient attempt, and the
        # job view surfaces it.
        assert any(
            entry["error"] == "RuntimeError: transient"
            for entry in final["failure_log"]
        )

    def test_exhausted_budget_fails_the_job(self, service, monkeypatch):
        def broken(payload):
            if payload["kind"] == "tm":
                raise RuntimeError("boom")
            return fake_execute(payload)

        monkeypatch.setattr(grid_module, "_execute_point", broken)
        view = service.submit({"points": POINTS, "retries": 0})
        assert service.wait(view["job_id"], timeout=10) == "failed"
        final = service.job_view(view["job_id"])
        assert "grid point(s) failed" in final["error"]
        failed = [p for p in final["points"] if p["status"] == "failed"]
        assert len(failed) == 1
        assert failed[0]["error"] == "RuntimeError: boom"
        assert failed[0]["attempts"] == 1

    def test_allow_failures_omits_the_dead_point(self, service, monkeypatch):
        def broken(payload):
            if payload["kind"] == "tm":
                raise RuntimeError("boom")
            return fake_execute(payload)

        monkeypatch.setattr(grid_module, "_execute_point", broken)
        view = service.submit(
            {"points": POINTS, "retries": 0, "allow_failures": True}
        )
        assert service.wait(view["job_id"], timeout=10) == "done"
        body = service.result_bytes(view["job_id"])
        tls = tls_point("gzip", seed=7, num_tasks=4)
        expected = canonical_json(
            {tls.key: fake_execute(tls.payload())}
        ).encode("utf-8")
        assert body == expected

    def test_malformed_failure_log_lines_surface_as_warnings(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(grid_module, "_execute_point", fake_execute)
        log = service.cache.directory / "failures.jsonl"
        log.write_text('{"not": "a failure record"}\n[5]\n')
        view = service.submit({"points": POINTS})
        service.wait(view["job_id"], timeout=10)
        final = service.job_view(view["job_id"])
        assert len(final["failure_log_warnings"]) == 2
        assert "not a failure record" in final["failure_log_warnings"][0]


class TestCancelAndTimeout:
    def test_cancel_drops_pending_points_gracefully(
        self, tmp_path, monkeypatch
    ):
        gate = threading.Event()
        started = threading.Event()

        def gated(payload):
            started.set()
            assert gate.wait(timeout=10)
            return fake_execute(payload)

        monkeypatch.setattr(grid_module, "_execute_point", gated)
        service = JobService(
            tmp_path / "svc", executor="thread", workers=1,
            poll_interval=0.01,
        )
        service.start()
        try:
            view = service.submit({"points": POINTS})
            assert started.wait(timeout=10)
            cancelled = service.cancel(view["job_id"])
            assert cancelled["cancel_requested"]
            gate.set()
            assert service.wait(view["job_id"], timeout=10) == "cancelled"
            final = service.job_view(view["job_id"])
            # The in-flight point finished; the queued one was dropped.
            assert final["progress"]["done"] == 1
            assert final["progress"]["cancelled"] == 1
        finally:
            gate.set()
            service.stop()

    def test_wall_clock_timeout_fails_the_job(self, tmp_path, monkeypatch):
        def slow(payload):
            time.sleep(0.2)
            return fake_execute(payload)

        monkeypatch.setattr(grid_module, "_execute_point", slow)
        service = JobService(
            tmp_path / "svc", executor="thread", workers=1,
            poll_interval=0.01,
        )
        service.start()
        try:
            view = service.submit(
                {"points": POINTS, "timeout_seconds": 0.05}
            )
            assert service.wait(view["job_id"], timeout=10) == "failed"
            final = service.job_view(view["job_id"])
            assert "timeout" in final["error"]
        finally:
            service.stop()


class TestRecovery:
    def test_unstarted_jobs_resume_on_the_next_service(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(grid_module, "_execute_point", fake_execute)
        first = JobService(
            tmp_path / "svc", executor="thread", workers=1,
            poll_interval=0.01,
        )
        # Never started: the job is persisted but no worker exists.
        view = first.submit({"points": POINTS})
        assert first.store.job(view["job_id"]).status == "queued"
        first.stop()

        second = JobService(
            tmp_path / "svc", executor="thread", workers=1,
            poll_interval=0.01,
        )
        second.start()
        try:
            assert second.wait(view["job_id"], timeout=10) == "done"
            kinds = [
                json.loads(line)["kind"]
                for line in second.events_lines(view["job_id"])
            ]
            assert "job.requeued" in kinds
        finally:
            second.stop()


class TestValidationAndByteIdentity:
    def test_bad_spec_is_rejected_before_any_work(self, service):
        with pytest.raises(JobSpecError):
            service.submit({"points": [{"kind": "warp", "app": "x"}]})
        assert service.jobs_view() == []

    def test_real_point_matches_a_direct_grid_runner_byte_for_byte(
        self, tmp_path
    ):
        points = [tm_point("mc", txns_per_thread=2)]
        service = JobService(
            tmp_path / "svc", executor="thread", workers=1,
            poll_interval=0.01,
        )
        service.start()
        try:
            view = service.submit(points_to_spec(points))
            assert service.wait(view["job_id"], timeout=120) == "done"
            body = service.result_bytes(view["job_id"])
        finally:
            service.stop()
        direct = GridRunner(jobs=1, cache_dir=tmp_path / "direct")
        assert body == direct.run(points).to_json().encode("utf-8")

    def test_process_executor_matches_a_direct_grid_runner(self, tmp_path):
        """Points executed on the service's warm process pool merge to
        the same bytes as a direct multi-worker GridRunner run."""
        points = [
            tm_point("mc", txns_per_thread=2),
            tls_point("gzip", num_tasks=8),
        ]
        service = JobService(
            tmp_path / "svc", executor="process", workers=2,
            poll_interval=0.01,
        )
        service.start()
        try:
            view = service.submit(points_to_spec(points))
            assert service.wait(view["job_id"], timeout=120) == "done"
            body = service.result_bytes(view["job_id"])
        finally:
            service.stop()
        direct = GridRunner(jobs=2, cache_dir=tmp_path / "direct")
        assert body == direct.run(points).to_json().encode("utf-8")
