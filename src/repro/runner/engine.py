"""The point-resolution engine: hit, claim and compute, or wait.

Every consumer of the result cache — :class:`~repro.runner.GridRunner`
and the job service's dispatcher — resolves a grid point the same way:

1. **hit** — the result is already cached: served as-is;
2. **claim** — the caller wins the key's in-flight claim, executes the
   point with its retry budget, publishes the result, releases;
3. **wait** — another claimer (any thread, any process) holds the key:
   poll until the entry appears, take the point over if the claim
   disappears without one (the claimer failed), or break the claim once
   it is provably dead or stale (:meth:`ResultCache.break_stale_claim`).

Because simulations are deterministic and cache keys hash the full point
payload plus the code fingerprint, every caller sharing a directory
computes each point exactly once between them, and who computes never
changes what is computed.

Failed attempts become :class:`FailureRecord` rows; :func:`append_failure`
is the one writer of a cache directory's ``failures.jsonl``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.runner.cache import DEFAULT_CLAIM_TTL, ResultCache


@dataclass
class FailureRecord:
    """One failed execution attempt of one grid point."""

    key: str
    attempt: int
    error: str
    traceback: str


def append_failure(
    directory: "str | os.PathLike[str]", record: FailureRecord
) -> None:
    """Append one failure row to ``<directory>/failures.jsonl``.

    The log is append-only JSONL because cache directories are shared:
    one buffered ``write`` of a complete line appends atomically at line
    granularity on POSIX, so concurrent writers never drop each other's
    rows, and the tolerant reader (:func:`load_failure_records`) skips a
    killed writer's torn tail instead of losing the whole log.
    """
    line = json.dumps(
        {
            "key": record.key,
            "attempt": record.attempt,
            "error": record.error,
            "traceback": record.traceback,
        },
        sort_keys=True,
    )
    path = pathlib.Path(directory) / "failures.jsonl"
    with open(path, "a", encoding="utf-8") as stream:
        stream.write(line + "\n")


def _failure_from_dict(row: Any) -> Optional[FailureRecord]:
    """A persisted failure row as a record, or ``None`` if malformed."""
    if not isinstance(row, dict):
        return None
    try:
        return FailureRecord(
            key=str(row["key"]),
            attempt=int(row["attempt"]),
            error=str(row["error"]),
            traceback=str(row.get("traceback", "")),
        )
    except (KeyError, TypeError, ValueError):
        return None


def load_failure_records(
    directory: "str | os.PathLike[str]",
    warn: Optional[Callable[[str], None]] = None,
) -> List[FailureRecord]:
    """Every failure record persisted under a cache directory.

    Reads the append-only ``failures.jsonl`` (one JSON object per line).
    Malformed lines are *reported*, not silently dropped: each one is
    described (``file:line`` plus the reason) through ``warn``, which
    defaults to :func:`warnings.warn` — a corrupted failure log hiding
    real failure history is itself a failure worth surfacing.  The one
    expected exception is a killed writer's torn tail: an unterminated
    final line is normal crash residue and stays silent.
    """
    if warn is None:
        warn = lambda message: warnings.warn(message, stacklevel=3)  # noqa: E731
    path = pathlib.Path(directory) / "failures.jsonl"
    records: List[FailureRecord] = []
    if not path.exists():
        return records
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        warn(f"{path}: unreadable failure log ({error})")
        return records
    torn_tail = bool(text) and not text.endswith("\n")
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = json.loads(stripped)
        except json.JSONDecodeError as error:
            if not (torn_tail and number == len(lines)):
                warn(f"{path}:{number}: malformed failure record ({error})")
            continue  # a killed writer's torn tail stays silent
        record = _failure_from_dict(row)
        if record is None:
            warn(f"{path}:{number}: not a failure record")
        else:
            records.append(record)
    return records


@dataclass
class Resolution:
    """How one point resolved.

    ``status`` is ``"done"`` (``value`` holds the result and ``outcome``
    says how: ``"cached"``, ``"deduped"`` or ``"computed"``),
    ``"failed"`` (the retry budget ran out) or ``"aborted"`` (the abort
    predicate fired; ``aborted`` holds its reason).
    """

    status: str
    outcome: str = ""
    value: Optional[Dict[str, Any]] = None
    #: Execution attempts this caller made (0 unless it computed).
    attempts: int = 0
    #: ``"Type: message"`` of the last failed attempt, if any.
    error: str = ""
    aborted: str = ""
    failures: List[FailureRecord] = field(default_factory=list)


def resolve_point(
    label: str,
    payload: Dict[str, Any],
    execute: Callable[[Dict[str, Any]], Dict[str, Any]],
    cache: Optional[ResultCache] = None,
    cache_key: Optional[str] = None,
    retries: int = 1,
    abort: Optional[Callable[[], Optional[str]]] = None,
    on_failure: Optional[Callable[[FailureRecord], None]] = None,
    poll_interval: float = 0.05,
    claim_ttl: float = DEFAULT_CLAIM_TTL,
) -> Resolution:
    """Resolve one grid point: hit, claim and compute, or wait.

    ``label`` names the point in failure records; ``cache_key``
    defaults to ``cache.key_for(payload)``.  Without a cache the point
    is simply computed.  ``abort`` is polled before every cache probe
    and every attempt; a non-empty return stops resolution with that
    reason (an in-flight attempt always finishes).  Each failed attempt
    is appended to the cache's failure log and passed to
    ``on_failure``.
    """
    if cache is not None and cache_key is None:
        cache_key = cache.key_for(payload)
    waited = False
    while cache is not None:
        reason = abort() if abort is not None else None
        if reason:
            return Resolution("aborted", aborted=reason)
        value = cache.get(cache_key)
        if value is not None:
            return Resolution(
                "done", "deduped" if waited else "cached", value
            )
        if cache.try_claim(cache_key):
            # The holder we may have just missed publishes before it
            # releases, so a claimed key can already have its entry.
            value = cache.get(cache_key)
            if value is not None:
                cache.release_claim(cache_key)
                return Resolution("done", "deduped", value)
            break
        waited = True
        cache.break_stale_claim(cache_key, claim_ttl)
        if cache.claimed(cache_key):
            time.sleep(poll_interval)
    try:
        return _compute(
            label, payload, execute, cache, cache_key, retries, abort,
            on_failure,
        )
    finally:
        if cache is not None:
            # Also on exhausted retries: a waiter then takes the key
            # over with its own budget instead of waiting forever.
            cache.release_claim(cache_key)


def _compute(
    label: str,
    payload: Dict[str, Any],
    execute: Callable[[Dict[str, Any]], Dict[str, Any]],
    cache: Optional[ResultCache],
    cache_key: Optional[str],
    retries: int,
    abort: Optional[Callable[[], Optional[str]]],
    on_failure: Optional[Callable[[FailureRecord], None]],
) -> Resolution:
    """Execute a (claimed) point with ``retries`` re-tries."""
    failures: List[FailureRecord] = []
    for attempt in range(1, retries + 2):
        reason = abort() if abort is not None else None
        if reason:
            return Resolution(
                "aborted", attempts=attempt - 1,
                error=failures[-1].error if failures else "",
                aborted=reason, failures=failures,
            )
        try:
            value = execute(payload)
        except Exception as error:  # noqa: BLE001 - recorded, retried
            record = FailureRecord(
                key=label,
                attempt=attempt,
                error=f"{type(error).__name__}: {error}",
                traceback=traceback.format_exc(),
            )
            failures.append(record)
            if cache is not None:
                append_failure(cache.directory, record)
            if on_failure is not None:
                on_failure(record)
            continue
        if cache is not None:
            cache.put(cache_key, payload, value)
        return Resolution(
            "done", "computed", value, attempts=attempt, failures=failures
        )
    return Resolution(
        "failed", attempts=retries + 1, error=failures[-1].error,
        failures=failures,
    )
