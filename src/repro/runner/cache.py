"""On-disk result cache for the parallel experiment runner.

A cache entry is one JSON file per grid point, named by a SHA-256 key
over

* the point's canonical payload (kind, application, seed, knobs), and
* a **code fingerprint** — a hash of every ``repro`` source file that can
  affect simulation results.

Editing any simulator source therefore invalidates every entry
automatically (stale results can never be served), while re-running a
sweep after an interrupted or partial run only recomputes what is
missing.  The runner's own modules are excluded from the fingerprint:
orchestration changes do not change simulation outcomes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import socket
import tempfile
import time
from functools import lru_cache
from typing import Any, Dict, Optional

from repro.runner.serialize import canonical_json

#: Bump to invalidate every existing cache entry (format changes).
#: 2: stats grew interconnect-contention fields and bandwidth
#: deserialization became tolerant of enum skew — entries written by
#: schema-1 builds must not be served into the new result shape.
CACHE_SCHEMA_VERSION = 2

#: Top-level ``repro`` subpackages whose sources are *excluded* from the
#: code fingerprint — they orchestrate runs but cannot change results.
_FINGERPRINT_EXCLUDED = ("runner", "service")

#: How old (seconds) an in-flight claim may grow before another opener is
#: allowed to break it.  A claim this stale belongs to a process that was
#: killed without releasing — no single grid point runs for an hour.
#: Claims whose owner is provably dead (same host, pid gone) are broken
#: at once instead; the TTL covers owners that cannot be checked.
DEFAULT_CLAIM_TTL = 3600.0


def _claim_owner_is_dead(text: str) -> bool:
    """Whether a claim's recorded owner is a process known to be gone.

    Only a claim written on *this* host can be checked (``os.kill(pid,
    0)``); another host's claim, a legacy pid-only claim, or one whose
    owner is still mid-write proves nothing and is left to the TTL.
    """
    try:
        owner = json.loads(text)
        host, pid = owner["host"], int(owner["pid"])
    except (ValueError, TypeError, KeyError):
        return False
    if host != socket.gethostname() or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False  # exists but belongs to another user
    return False


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every result-relevant ``repro`` source file."""
    import repro

    package_root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        if relative.parts and relative.parts[0] in _FINGERPRINT_EXCLUDED:
            continue
        digest.update(str(relative).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class ResultCache:
    """A directory of JSON result files, one per grid point."""

    def __init__(
        self,
        directory: "str | os.PathLike[str]",
        metrics: Optional[Any] = None,
    ) -> None:
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        #: present the cache's hygiene actions are counted under
        #: ``cache.swept_tmp`` and ``cache.corrupt_evicted``.
        self.metrics = metrics
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._sweep_crash_leftovers()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _sweep_crash_leftovers(self) -> None:
        """Remove what killed writers left behind.

        Every writer uses a unique temporary name, so any ``*.tmp`` is
        either an orphan or an *in-flight* write from a live process —
        deleting the latter is tolerated too, because :meth:`put`
        retries once when its temporary vanishes.

        A ``*.claim`` is *supposed* to be visible to concurrent openers
        (it is what makes them wait instead of recompute), so only claims
        whose owner is provably dead are swept here — a process killed
        between publishing an entry and releasing its claim would
        otherwise leave a claim that no later lookup ever touches.
        """
        for stale in self.directory.glob("*.tmp"):
            try:
                stale.unlink()
            except OSError:
                continue  # concurrently published or swept by another opener
            self._count("cache.swept_tmp")
        for claim in self.directory.glob("*.claim"):
            self.break_stale_claim(claim.stem, ttl=float("inf"))

    def key_for(self, payload: Dict[str, Any]) -> str:
        """The cache key of a grid-point payload under the current code."""
        digest = hashlib.sha256()
        digest.update(code_fingerprint().encode())
        digest.update(b"\0")
        digest.update(canonical_json(payload).encode())
        return digest.hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    # ------------------------------------------------------------------
    # In-flight claims (shared-directory coordination)
    # ------------------------------------------------------------------
    #
    # A claim marks one key as "being computed right now" so concurrent
    # runners (other processes, the job service's workers) wait for the
    # entry instead of recomputing it.  Claims are advisory: correctness
    # never depends on them — a simulation is deterministic, so a missed
    # claim only costs duplicate work, and the atomic ``put`` keeps the
    # published entry well-formed either way.

    def _claim_path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.claim"

    def try_claim(self, key: str) -> bool:
        """Atomically claim a key for computation.

        Returns ``False`` when another claimer already holds it.
        ``O_CREAT | O_EXCL`` makes the race winner unambiguous even
        across processes sharing the directory.  The claim records its
        owner's host and pid, so a dead owner's claim can be broken
        without waiting out the TTL (:meth:`break_stale_claim`).
        """
        try:
            handle = os.open(
                self._claim_path(key),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            return False
        except OSError:
            return True  # unwritable directory: compute unclaimed
        owner = {"host": socket.gethostname(), "pid": os.getpid()}
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(canonical_json(owner) + "\n")
        self._count("cache.claims_acquired")
        return True

    def release_claim(self, key: str) -> None:
        """Drop a claim (idempotent; missing files are fine)."""
        try:
            os.unlink(self._claim_path(key))
        except OSError:
            pass

    def claimed(self, key: str) -> bool:
        """Whether some claimer currently holds this key."""
        return self._claim_path(key).exists()

    def break_stale_claim(
        self, key: str, ttl: float = DEFAULT_CLAIM_TTL
    ) -> bool:
        """Remove a dead claimer's claim.

        A claim is dead when its owner is a process on this host that no
        longer exists, or — for owners that cannot be checked (another
        host, a legacy pid-only claim) — once it is older than ``ttl``
        seconds.  Returns ``True`` if a claim was removed — the caller
        may then :meth:`try_claim` the key itself.
        """
        path = self._claim_path(key)
        try:
            age = time.time() - path.stat().st_mtime
            owner = path.read_text(encoding="utf-8")
        except OSError:
            return False  # already released
        if age <= ttl and not _claim_owner_is_dead(owner):
            return False
        try:
            os.unlink(path)
        except OSError:
            return False  # a concurrent waiter broke it first
        self._count("cache.claims_broken")
        return True

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached result for a key, or ``None`` on a miss.

        Truncated or garbage entries (a crashed pre-atomic-write build,
        disk corruption) count as misses *and* are unlinked, so the next
        :meth:`put` repairs the slot instead of the corpse shadowing it
        forever.
        """
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except OSError:
            return None
        except json.JSONDecodeError:
            try:
                path.unlink()
            except OSError:
                return None  # another process repaired or removed it first
            self._count("cache.corrupt_evicted")
            return None
        if not isinstance(entry, dict) or entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        return entry.get("result")

    def put(self, key: str, payload: Dict[str, Any], result: Dict[str, Any]) -> None:
        """Store one point's result (atomically, via rename).

        The temporary file name is unique per writer — a fixed name let
        two processes computing the same key interleave ``write`` and
        ``replace`` and publish a torn entry.  ``os.replace`` keeps the
        publish atomic; if a concurrent opener's stale-temporary sweep
        raced us and removed the temporary first, one retry with a fresh
        name suffices (the sweep runs only at cache open).
        """
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "point": payload,
            "result": result,
        }
        path = self._path(key)
        text = canonical_json(entry)
        for attempt in (0, 1):
            handle, temporary = tempfile.mkstemp(
                dir=self.directory, prefix=f"{key}.", suffix=".tmp"
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    stream.write(text)
                os.replace(temporary, path)
                return
            except FileNotFoundError:
                if attempt:
                    raise
            finally:
                try:
                    os.unlink(temporary)
                except OSError:
                    pass  # the normal case: already renamed into place

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
