"""The job store: persisted specs, lifecycle, progress, and events.

One SQLite database (``jobs.sqlite`` inside the service directory) holds
everything the HTTP front end serves and everything the dispatcher needs
to recover after a restart:

``jobs``
    one row per submitted job — spec JSON, lifecycle status, error text,
    and (once done) the merged result JSON;
``points``
    one row per (job, grid point) — per-point status, outcome
    (``computed`` / ``cached`` / ``deduped``), attempt count, error;
``events``
    an append-only per-job progress stream (``job.queued``,
    ``point.done``, …) with a dense per-job sequence number, which is
    what ``GET /jobs/{id}/events`` pages through.

Discipline follows :class:`~repro.trace.store.TraceStore`: the schema is
versioned (a mismatched store refuses to open with a typed error rather
than limping), every failure mode raises from the
:class:`~repro.errors.ServiceError` family, and all writes are
transactional so a crashed service never leaves a half-recorded state —
at worst a job is re-dispatched on restart, and the shared result cache
makes re-dispatch cheap.

The store is single-writer by construction (one service process owns the
directory); a process-wide lock serialises the connection across the
dispatcher's worker threads and the HTTP handler threads.

Job lifecycle::

    queued -> running -> done
                      -> failed      (point failures / wall-clock timeout)
           ->         -> cancelled   (DELETE /jobs/{id})
"""

from __future__ import annotations

import json
import os
import pathlib
import sqlite3
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import JobStateError, ServiceError, UnknownJobError
from repro.runner import canonical_json
from repro.service.spec import JobSpec, parse_job_spec

#: Bump to refuse opening stores written by an incompatible build.
SERVICE_SCHEMA_VERSION = 1

#: Job lifecycle states and the legal transitions between them.
JOB_STATUSES = ("queued", "running", "done", "failed", "cancelled")
_JOB_TRANSITIONS = {
    "queued": {"running", "done", "failed", "cancelled"},
    "running": {"done", "failed", "cancelled"},
    "done": set(),
    "failed": set(),
    "cancelled": set(),
}

#: Per-point states.  ``done`` rows carry an outcome saying *how* the
#: result materialised: computed here, served from the cache at enqueue,
#: or deduplicated against another job's in-flight claim.
POINT_STATUSES = ("pending", "running", "done", "failed", "cancelled")
POINT_OUTCOMES = ("computed", "cached", "deduped")

TERMINAL_JOB_STATUSES = frozenset({"done", "failed", "cancelled"})
TERMINAL_POINT_STATUSES = frozenset({"done", "failed", "cancelled"})


@dataclass(frozen=True)
class JobRecord:
    """One job's row, spec decoded."""

    seq: int
    job_id: str
    label: str
    status: str
    error: str
    cancel_requested: bool
    num_points: int
    spec: JobSpec
    has_result: bool


@dataclass(frozen=True)
class PointRecord:
    """One (job, point) row."""

    job_id: str
    key: str
    cache_key: str
    status: str
    outcome: str
    attempts: int
    error: str


class JobStore:
    """A directory-owned SQLite database of jobs, points, and events."""

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "jobs.sqlite"
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            str(self.path), check_same_thread=False, timeout=30.0
        )
        self._connection.row_factory = sqlite3.Row
        self._init_schema()

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------

    def _init_schema(self) -> None:
        with self._lock, self._connection as connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS jobs ("
                " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
                " job_id TEXT NOT NULL UNIQUE,"
                " label TEXT NOT NULL,"
                " spec_json TEXT NOT NULL,"
                " status TEXT NOT NULL,"
                " error TEXT NOT NULL DEFAULT '',"
                " cancel_requested INTEGER NOT NULL DEFAULT 0,"
                " num_points INTEGER NOT NULL,"
                " result_json TEXT)"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS points ("
                " job_id TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " cache_key TEXT NOT NULL,"
                " status TEXT NOT NULL,"
                " outcome TEXT NOT NULL DEFAULT '',"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " error TEXT NOT NULL DEFAULT '',"
                " PRIMARY KEY (job_id, key))"
            )
            connection.execute(
                "CREATE TABLE IF NOT EXISTS events ("
                " job_id TEXT NOT NULL,"
                " seq INTEGER NOT NULL,"
                " payload_json TEXT NOT NULL,"
                " PRIMARY KEY (job_id, seq))"
            )
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                connection.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SERVICE_SCHEMA_VERSION)),
                )
            elif int(row["value"]) != SERVICE_SCHEMA_VERSION:
                raise ServiceError(
                    f"job store {self.directory} has schema "
                    f"{row['value']}, this build speaks "
                    f"{SERVICE_SCHEMA_VERSION}"
                )

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def create_job(
        self, spec: JobSpec, cache_keys: Dict[str, str]
    ) -> str:
        """Persist a new ``queued`` job and its pending points.

        ``cache_keys`` maps each point's canonical key to its shared
        result-cache key (the dispatcher computes them once, here they
        are recorded so the failure view and recovery paths never need a
        live :class:`~repro.runner.ResultCache` to re-derive them).
        Returns the new job id.
        """
        missing = [p.key for p in spec.points if p.key not in cache_keys]
        if missing:
            raise ServiceError(
                f"no cache key recorded for point(s): {', '.join(missing)}"
            )
        spec_hash = spec.spec_hash()
        with self._lock, self._connection as connection:
            cursor = connection.execute(
                "INSERT INTO jobs (job_id, label, spec_json, status,"
                " num_points) VALUES (?, ?, ?, 'queued', ?)",
                (
                    f"pending-{spec_hash[:12]}",  # placeholder until seq known
                    spec.label,
                    canonical_json(spec.to_dict()),
                    len(spec.points),
                ),
            )
            seq = cursor.lastrowid
            job_id = f"job-{seq:06d}-{spec_hash[:12]}"
            connection.execute(
                "UPDATE jobs SET job_id = ? WHERE seq = ?", (job_id, seq)
            )
            connection.executemany(
                "INSERT INTO points (job_id, key, cache_key, status)"
                " VALUES (?, ?, ?, 'pending')",
                [
                    (job_id, point.key, cache_keys[point.key])
                    for point in spec.points
                ],
            )
        self.append_event(job_id, "job.queued", points=len(spec.points))
        return job_id

    def _job_row(self, job_id: str) -> sqlite3.Row:
        with self._lock:
            row = self._connection.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise UnknownJobError(job_id)
        return row

    @staticmethod
    def _record(row: sqlite3.Row) -> JobRecord:
        return JobRecord(
            seq=row["seq"],
            job_id=row["job_id"],
            label=row["label"],
            status=row["status"],
            error=row["error"],
            cancel_requested=bool(row["cancel_requested"]),
            num_points=row["num_points"],
            spec=parse_job_spec(json.loads(row["spec_json"])),
            has_result=row["result_json"] is not None,
        )

    def job(self, job_id: str) -> JobRecord:
        """One job's record (unknown ids raise)."""
        return self._record(self._job_row(job_id))

    def jobs(self) -> List[JobRecord]:
        """Every job, in submission order."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT * FROM jobs ORDER BY seq"
            ).fetchall()
        return [self._record(row) for row in rows]

    def set_job_status(
        self,
        job_id: str,
        status: str,
        error: str = "",
        result_json: Optional[str] = None,
    ) -> None:
        """Transition a job's lifecycle state (illegal moves raise)."""
        if status not in JOB_STATUSES:
            raise ServiceError(f"unknown job status {status!r}")
        with self._lock, self._connection as connection:
            row = connection.execute(
                "SELECT status FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise UnknownJobError(job_id)
            current = row["status"]
            if status != current and status not in _JOB_TRANSITIONS[current]:
                raise JobStateError(
                    job_id, current,
                    f"job {job_id} cannot move {current!r} -> {status!r}",
                )
            connection.execute(
                "UPDATE jobs SET status = ?, error = ?,"
                " result_json = COALESCE(?, result_json) WHERE job_id = ?",
                (status, error, result_json, job_id),
            )

    def request_cancel(self, job_id: str) -> str:
        """Flag a job for cancellation; returns the status seen.

        Queued/running jobs get the flag (the dispatcher notices it at
        the next point boundary); terminal jobs raise
        :class:`~repro.errors.JobStateError` — there is nothing left to
        cancel.
        """
        with self._lock, self._connection as connection:
            row = connection.execute(
                "SELECT status FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is None:
                raise UnknownJobError(job_id)
            status = row["status"]
            if status in TERMINAL_JOB_STATUSES:
                raise JobStateError(
                    job_id, status,
                    f"job {job_id} is already {status}; nothing to cancel",
                )
            connection.execute(
                "UPDATE jobs SET cancel_requested = 1 WHERE job_id = ?",
                (job_id,),
            )
        self.append_event(job_id, "job.cancel_requested")
        return status

    def cancel_requested(self, job_id: str) -> bool:
        return bool(self._job_row(job_id)["cancel_requested"])

    def result_json(self, job_id: str) -> str:
        """The merged result of a finished job (byte-exact as stored)."""
        row = self._job_row(job_id)
        if row["status"] != "done" or row["result_json"] is None:
            raise JobStateError(
                job_id, row["status"],
                f"job {job_id} has no result (status: {row['status']})",
            )
        return row["result_json"]

    # ------------------------------------------------------------------
    # Points
    # ------------------------------------------------------------------

    def points(self, job_id: str) -> List[PointRecord]:
        """Every point of one job, in canonical key order."""
        self._job_row(job_id)  # raise UnknownJobError for unknown ids
        with self._lock:
            rows = self._connection.execute(
                "SELECT * FROM points WHERE job_id = ? ORDER BY key",
                (job_id,),
            ).fetchall()
        return [
            PointRecord(
                job_id=row["job_id"],
                key=row["key"],
                cache_key=row["cache_key"],
                status=row["status"],
                outcome=row["outcome"],
                attempts=row["attempts"],
                error=row["error"],
            )
            for row in rows
        ]

    def update_point(
        self,
        job_id: str,
        key: str,
        status: str,
        outcome: str = "",
        attempts: Optional[int] = None,
        error: str = "",
    ) -> None:
        if status not in POINT_STATUSES:
            raise ServiceError(f"unknown point status {status!r}")
        if outcome and outcome not in POINT_OUTCOMES:
            raise ServiceError(f"unknown point outcome {outcome!r}")
        with self._lock, self._connection as connection:
            cursor = connection.execute(
                "UPDATE points SET status = ?, outcome = ?,"
                " attempts = COALESCE(?, attempts), error = ?"
                " WHERE job_id = ? AND key = ?",
                (status, outcome, attempts, error, job_id, key),
            )
            if cursor.rowcount == 0:
                raise ServiceError(
                    f"job {job_id} has no point with key {key!r}"
                )

    def progress(self, job_id: str) -> Dict[str, int]:
        """Point counts by status plus outcome tallies for one job."""
        counts = {status: 0 for status in POINT_STATUSES}
        outcomes = {outcome: 0 for outcome in POINT_OUTCOMES}
        for point in self.points(job_id):
            counts[point.status] += 1
            if point.outcome:
                outcomes[point.outcome] += 1
        total = sum(counts.values())
        return {
            "total": total,
            **counts,
            **outcomes,
        }

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def append_event(self, job_id: str, kind: str, **fields: Any) -> int:
        """Append one progress event; returns its per-job sequence."""
        with self._lock, self._connection as connection:
            row = connection.execute(
                "SELECT COALESCE(MAX(seq), 0) AS top FROM events"
                " WHERE job_id = ?",
                (job_id,),
            ).fetchone()
            seq = row["top"] + 1
            payload = {"seq": seq, "kind": kind}
            payload.update(fields)
            connection.execute(
                "INSERT INTO events (job_id, seq, payload_json)"
                " VALUES (?, ?, ?)",
                (job_id, seq, canonical_json(payload)),
            )
        return seq

    def events_after(self, job_id: str, since: int = 0) -> List[str]:
        """Event JSON lines with ``seq > since``, in order."""
        self._job_row(job_id)
        with self._lock:
            rows = self._connection.execute(
                "SELECT payload_json FROM events"
                " WHERE job_id = ? AND seq > ? ORDER BY seq",
                (job_id, since),
            ).fetchall()
        return [row["payload_json"] for row in rows]

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def unfinished_jobs(self) -> List[JobRecord]:
        """Jobs a previous service run left non-terminal, oldest first.

        A restarted dispatcher re-enqueues these; the shared result
        cache turns any already-computed points into instant hits, so
        recovery costs only the points that never finished.
        """
        return [
            record for record in self.jobs()
            if record.status not in TERMINAL_JOB_STATUSES
        ]
