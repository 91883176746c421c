"""Exact Eager TLS conflict detection.

Stores propagate immediately through the coherence protocol; any
more-speculative active task that has already read or written the word is
squashed on the spot (together with its children).  Because violations
restart offenders as early as possible, Eager wastes the least work —
Figure 10 shows it as the fastest scheme, and the paper attributes most
of the Eager→Lazy gap to exactly this.

Eager needs no Partial Overlap machinery: a parent's pre-spawn store
cannot conflict with a child that does not exist yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.coherence.message import MessageKind
from repro.mem.address import byte_to_line, byte_to_word
from repro.tls.conflict import TlsScheme
from repro.tls.task import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tls.system import TlsProcessor, TlsSystem


class TlsEagerScheme(TlsScheme):
    """Exact, store-time disambiguation."""

    name = "Eager"
    overlap_reference = True
    stale_hit_refetches = True

    # ------------------------------------------------------------------
    # Store-time disambiguation
    # ------------------------------------------------------------------

    def eager_check_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> Optional[int]:
        # Runs on every store: scan only the dispatched successors (see
        # TlsSystem.active_tasks); the first hit is the least
        # speculative one, the squash victim.
        word = byte_to_word(byte_address)
        for other in system.tasks[state.task_id + 1 : system.next_dispatch]:
            if (
                word in other.read_words or word in other.write_words
            ) and other.is_active():
                return other.task_id
        return None

    def record_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> None:
        """Eager stores invalidate remote copies immediately.

        Unlike TM, ownership cannot be cached across the transaction: a
        more-speculative task may legally *re-fill* the line between two
        stores (eager forwarding reads spec data without squashing the
        writer), so every store must re-check for remote copies — exactly
        what a coherence upgrade would do.  The invalidation message is
        charged only when sharers actually exist.
        """
        if system.invalidate_remote_copies(
            proc.cache, byte_to_line(byte_address)
        ):
            system.bus.record(MessageKind.INVALIDATION)

    # ------------------------------------------------------------------
    # Hot-swap lifecycle
    # ------------------------------------------------------------------

    def import_processor_state(
        self, system: "TlsSystem", proc: "TlsProcessor", state: object
    ) -> None:
        """Re-run store-time disambiguation over state accumulated under
        the outgoing scheme.

        Eager detects violations as stores happen; a commit-time scheme
        leaves overlaps between live tasks pending until the writer
        commits.  The stores that created those overlaps will never be
        re-checked after the swap, so any dependence between a resident
        task and a more-speculative one is resolved now, exactly as a
        replayed store would have — squashing the speculative reader
        before it can commit a stale value.
        """
        del state
        for task_id in list(proc.resident):
            committer = system.tasks[task_id]
            if not committer.is_active():
                continue
            for other in system.active_tasks():
                if other.task_id <= committer.task_id:
                    continue
                dependence = self.exact_dependence(committer, other)
                if dependence:
                    system._note_direct_squash_stats(
                        dependence=len(dependence), false_positive=False
                    )
                    system.squash_from(
                        other.task_id,
                        now=system._swap_clock(),
                        cause="swap",
                    )
                    break

    # ------------------------------------------------------------------
    # Commit: quiet
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TlsSystem", state: TaskState) -> int:
        return 0

    def commit_update_cache(
        self,
        system: "TlsSystem",
        committer: TaskState,
        proc: "TlsProcessor",
    ) -> None:
        """Remote copies were already invalidated store by store; only
        forwarded copies created *after* the stores need refreshing."""
        for line_address in committer.write_lines():
            line = proc.cache.lookup(line_address, touch=False)
            if line is None:
                continue
            if line.dirty:
                # The receiver's own speculative updates to another part
                # of the line: rebuild exactly (per-word access bits).
                system.rebuild_merged_line(proc, line_address)
                system.stats.merged_lines += 1
            else:
                proc.cache.invalidate(line_address)
                system.stats.commit_invalidations += 1

    # ------------------------------------------------------------------
    # Squash
    # ------------------------------------------------------------------

    def squash_cleanup(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        for line_address in state.write_lines() | state.read_lines():
            proc.cache.invalidate(line_address)
