"""Exact Eager conflict detection.

Disambiguation happens as each access is performed: the coherence protocol
propagates the request and the remote processors compare it against their
exact read/write sets (Section 2, "Eager schemes").  Conflicts are
resolved requester-wins — the thread that already *holds* the datum in its
speculative sets is squashed — which restarts offenders early (the source
of Eager's slight performance edge in TLS) but is vulnerable to the
Figure 12 pathologies:

* (a) two threads that read-modify-write the same location keep squashing
  each other forever — no forward progress;
* (b) a reader is squashed by a later writer even though committing the
  reader first would have been serialisable.

The paper's footnote 2 mitigation for (a) is implemented: when a pair of
threads squash each other repeatedly, the longer-running one proceeds and
the other stalls until it commits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.coherence.message import MessageKind
from repro.mem.address import byte_to_line
from repro.tm.conflict import TmScheme
from repro.tm.processor import TmProcessor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tm.system import TmSystem

# Members as globals: record_store charges one per first store to a line.
_INVALIDATION, _UPGRADE = MessageKind.INVALIDATION, MessageKind.UPGRADE


class EagerScheme(TmScheme):
    """Exact, access-time disambiguation with livelock mitigation."""

    name = "Eager"

    def __init__(self) -> None:
        #: Consecutive squashes per (aggressor pid, victim pid) pair,
        #: reset when either side commits.  Feeds the mitigation trigger.
        self._pair_squashes: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Access-time disambiguation
    # ------------------------------------------------------------------

    def eager_check(
        self,
        system: "TmSystem",
        proc: TmProcessor,
        byte_address: int,
        is_store: bool,
    ) -> Optional[int]:
        line = byte_to_line(byte_address)
        assert proc.txn is not None
        # Coherence-driven detection only fires on a *request*: once this
        # transaction owns the line (wrote it) or holds it shared (read
        # it), repeat accesses are cache hits and cannot conflict — any
        # intervening remote access would have squashed us first.
        if is_store:
            if line in proc.txn.all_write_granules():
                return None
        elif line in proc.txn.all_read_granules() or (
            line in proc.txn.all_write_granules()
        ):
            return None
        for other in system.processors:
            if other is proc or other.txn is None:
                continue
            writes = other.txn.all_write_granules()
            conflict = line in writes
            if is_store and not conflict:
                conflict = line in other.txn.all_read_granules()
            if not conflict:
                continue
            if self._should_stall(system, proc, other):
                system.stats.mitigation_stalls += 1
                return other.pid
            self._note_squash(proc, other)
            dep = self._dependence_size(proc, other, line)
            system.squash(
                victim=other,
                from_section=0,
                now=proc.clock,
                dependence_granules=dep,
                false_positive=False,
                cause="eager-conflict",
            )
            if other.has_overflow():
                self.overflow_disambiguation_cost(system, proc, other)
        return None

    def _dependence_size(
        self, proc: TmProcessor, other: TmProcessor, line: int
    ) -> int:
        """Eager detects one address at a time; the dependence set of the
        squash is that single granule."""
        return 1

    def _should_stall(
        self, system: "TmSystem", proc: TmProcessor, other: TmProcessor
    ) -> bool:
        """Footnote-2 mitigation: stall ``proc`` instead of squashing
        ``other`` when forward progress is in doubt — the pair has been
        squashing each other repeatedly, or ``other``'s transaction has
        already been restarted several times (a many-readers-vs-writer
        storm) — and ``other`` is the longer-running thread.  The strict
        longer-running order makes stall cycles impossible."""
        if not system.params.eager_livelock_mitigation:
            return False
        mutual = (
            self._pair_squashes.get((proc.pid, other.pid), 0)
            + self._pair_squashes.get((other.pid, proc.pid), 0)
        )
        struggling = (
            other.txn is not None
            and other.txn.attempts >= system.params.livelock_threshold
        )
        if mutual < system.params.livelock_threshold and not struggling:
            return False
        return self._run_length(other) > self._run_length(proc) or (
            self._run_length(other) == self._run_length(proc)
            and other.pid < proc.pid
        )

    @staticmethod
    def _run_length(proc: TmProcessor) -> int:
        if proc.txn is None:
            return 0
        return proc.cursor - proc.txn.start_cursor

    def _note_squash(self, aggressor: TmProcessor, victim: TmProcessor) -> None:
        key = (aggressor.pid, victim.pid)
        self._pair_squashes[key] = self._pair_squashes.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Hot-swap lifecycle
    # ------------------------------------------------------------------

    def teardown_processor(self, system: "TmSystem", proc: TmProcessor) -> None:
        proc.scheme_state.pop("owned_lines", None)

    def import_processor_state(
        self, system: "TmSystem", proc: TmProcessor, state: object
    ) -> None:
        """Adopt a live transaction begun under another exact scheme.

        Eager's invariants are re-established as if every recorded access
        were replayed through its own hooks: written lines become owned
        (remote copies invalidated — under Lazy they survive until
        commit, but Eager commits silently, so stale copies must go now),
        and overlaps with other live transactions — which Lazy would
        have caught at commit time — are resolved immediately, this
        processor winning (the requester-wins rule).
        """
        txn = proc.txn
        if txn is None:
            return
        owned = set(txn.all_write_lines())
        proc.scheme_state["owned_lines"] = owned
        for line in sorted(owned):
            if system.invalidate_remote_copies(proc.cache, line):
                system.bus.record(MessageKind.INVALIDATION)
        reads = txn.all_read_granules()
        for other in system.processors:
            if other is proc or other.txn is None:
                continue
            other_writes = other.txn.all_write_granules()
            conflict = not owned.isdisjoint(other_writes) or not (
                owned.isdisjoint(other.txn.all_read_granules())
            ) or not reads.isdisjoint(other_writes)
            if conflict:
                self._note_squash(proc, other)
                system.squash(
                    victim=other,
                    from_section=0,
                    now=system._swap_clock(),
                    dependence_granules=1,
                    false_positive=False,
                    cause="swap",
                )

    def record_store(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        """Eager schemes gain ownership as they write: the first store of
        this transaction to a line invalidates remote copies immediately."""
        line = byte_to_line(byte_address)
        owned = proc.scheme_state.setdefault("owned_lines", set())
        if line in owned:
            return
        owned.add(line)
        if system.invalidate_remote_copies(proc.cache, line):
            system.bus.record(_INVALIDATION)
        else:
            # Gaining exclusivity still costs an upgrade request.
            system.bus.record(_UPGRADE)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TmSystem", proc: TmProcessor) -> int:
        """Eager commits are quiet: conflicts were resolved at access time
        and ownership was claimed store by store."""
        self._reset_pairs_of(proc.pid)
        return 0

    def commit_cleanup(self, system: "TmSystem", proc: TmProcessor) -> None:
        proc.scheme_state.pop("owned_lines", None)

    def squash_cleanup(
        self, system: "TmSystem", proc: TmProcessor, from_section: int
    ) -> None:
        # Drop the speculative dirty lines this transaction created.
        assert proc.txn is not None
        for line_address in proc.txn.all_write_lines():
            line = proc.cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                proc.cache.invalidate(line_address)
        proc.scheme_state.pop("owned_lines", None)
        # NOTE: the pair-squash counters deliberately survive squashes —
        # they only reset on commit.  Resetting them here would disarm
        # the livelock mitigation, which is triggered precisely by
        # *consecutive* mutual squashes.

    def _reset_pairs_of(self, pid: int) -> None:
        for key in [k for k in self._pair_squashes if pid in k]:
            del self._pair_squashes[key]

    # ------------------------------------------------------------------
    # Overflow
    # ------------------------------------------------------------------

    def overflow_disambiguation_cost(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Conventional schemes must consult overflowed addresses when a
        receiver with spilled state is disambiguated."""
        if receiver.overflow_area is None or not receiver.overflow_area.allocated:
            return
        walked = receiver.overflow_area.line_count
        if not walked:
            return
        receiver.overflow_area.accesses += walked
        system.charge_overflow_access(walked)
