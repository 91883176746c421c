"""The conflict-detection scheme interface of the TM simulator.

A scheme decides *how* dependences are detected and enforced; the
:class:`~repro.tm.system.TmSystem` owns everything else (trace stepping,
caches, memory, the bus, squash/restart mechanics).  The three schemes of
the paper's evaluation — exact Eager, exact Lazy, and Bulk — implement
this interface.

All hook methods receive the system so they can charge bus messages,
inspect other processors, and request squashes; per-processor scheme
state lives in :attr:`TmProcessor.scheme_state`.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator, Optional

from repro.mem.address import LINE_SHIFT
from repro.spec.scheme import SpecScheme
from repro.tm.processor import TmProcessor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tm.system import TmSystem


class TmScheme(SpecScheme):
    """Strategy object for one conflict-detection scheme.

    Extends :class:`~repro.spec.scheme.SpecScheme` (which supplies
    ``name`` and the cross-substrate hook shape) with TM's transaction
    lifecycle, access, and overflow hooks.
    """

    # ------------------------------------------------------------------
    # Construction hooks
    # ------------------------------------------------------------------

    def setup(self, system: "TmSystem") -> None:
        """Called once when the system is built."""

    def setup_processor(self, system: "TmSystem", proc: TmProcessor) -> None:
        """Called for every processor at system construction."""

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def on_txn_begin(self, system: "TmSystem", proc: TmProcessor) -> None:
        """An outermost transaction began (``proc.txn`` is fresh)."""

    def on_inner_begin(self, system: "TmSystem", proc: TmProcessor) -> None:
        """A nested transaction began (partial-rollback schemes open a
        section here)."""

    def on_inner_end(self, system: "TmSystem", proc: TmProcessor) -> None:
        """A nested transaction ended."""

    # ------------------------------------------------------------------
    # Access hooks
    # ------------------------------------------------------------------

    #: Whether :meth:`eager_check` can act on *loads*.  Lazy schemes
    #: (Bulk) only screen stores — the Set Restriction — so the system
    #: skips the per-load hook call entirely when this is ``False``.
    eager_checks_loads = True

    def eager_check(
        self,
        system: "TmSystem",
        proc: TmProcessor,
        byte_address: int,
        is_store: bool,
    ) -> Optional[int]:
        """Pre-access conflict check (Eager only).

        May squash other processors through the system.  Returning a pid
        stalls ``proc`` until that processor commits or squashes (the
        livelock mitigation of footnote 2); returning ``None`` lets the
        access proceed.
        """
        return None

    def prepare_store(
        self, system: "TmSystem", proc: TmProcessor, line_address: int
    ) -> None:
        """Called before a speculative store updates the cache (Bulk
        enforces the Set Restriction here)."""

    def record_load(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        """A speculative load was performed (exact sets already updated)."""

    def record_store(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        """A speculative store was performed (exact sets already updated)."""

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def commit_packet(self, system: "TmSystem", proc: TmProcessor) -> int:
        """Charge the committer's broadcast onto the bus.

        Returns the packet size in bytes (for commit-slot arbitration).
        """

    def on_commit_broadcast(
        self, system: "TmSystem", committer: TmProcessor
    ) -> None:
        """Observe the committer's broadcast before any receiver is
        disambiguated.  Batched backends precompute per-receiver conflict
        flags here (one vectorised pass for the whole epoch); the default
        is a no-op."""

    def receiver_conflict(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> Optional[int]:
        """Disambiguate a receiver against the committer.

        Returns the index of the first conflicting section (0 for
        unsectioned transactions) or ``None`` for no conflict.  Lazy
        schemes implement this; Eager detects at access time and returns
        ``None``.
        """
        return None

    def commit_update_receiver(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Invalidate the committer's written lines in a receiver's cache
        (called after any squash of the receiver was handled)."""

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------

    def squash_cleanup(
        self,
        system: "TmSystem",
        proc: TmProcessor,
        from_section: int,
    ) -> None:
        """Discard speculative cache state for sections >= ``from_section``
        (``0`` means the whole transaction) and repair scheme state."""

    def commit_cleanup(self, system: "TmSystem", proc: TmProcessor) -> None:
        """Release scheme state after a successful commit."""

    # ------------------------------------------------------------------
    # Non-speculative invalidations and overflow
    # ------------------------------------------------------------------

    def nonspec_victims(
        self, system: "TmSystem", writer: TmProcessor, byte_address: int
    ) -> Iterator[TmProcessor]:
        """The live transactions a non-speculative store by ``writer`` to
        ``byte_address`` must squash, in pid order.

        A generator: the system squashes each victim before the next
        check.  The default tests the exact aggregate read/write sets.
        """
        line = byte_address >> LINE_SHIFT
        for other in system.processors:
            txn = other.txn
            if other is not writer and txn is not None and (
                line in txn.all_read_granules() or line in txn.all_write_granules()
            ):
                yield other

    def miss_checks_overflow(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> bool:
        """Whether a local miss must consult the overflow area."""
        return proc.has_overflow()

    def overflow_disambiguation_cost(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Charge overflow-area traffic incurred by disambiguating a
        commit against a receiver that has spilled lines.

        Conventional schemes must walk the overflowed addresses; Bulk
        does not ("the overflowed addresses in memory are not accessed
        when Bulk disambiguates threads").
        """

    def on_spec_eviction(self, system: "TmSystem", proc: TmProcessor) -> None:
        """A dirty speculative line left the cache for the overflow area."""
