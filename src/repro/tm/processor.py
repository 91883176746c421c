"""Per-processor state of the TM simulator."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry
from repro.mem.overflow import OverflowArea
from repro.sim.trace import ThreadTrace
from repro.tm.txstate import TxnState


class TmProcessor:
    """One processor: cache, trace cursor, local clock, transaction state.

    Scheme-specific state (a BDM context for Bulk, pair-wise squash
    counters for Eager) lives in :attr:`scheme_state`, a free-form dict
    the active scheme owns.
    """

    __slots__ = (
        "pid",
        "trace",
        "cache",
        "cursor",
        "clock",
        "epoch",
        "done",
        "txn",
        "overflow_area",
        "waiting_on",
        "waiters",
        "scheme_state",
        "next_txn_id",
        "num_events",
    )

    def __init__(self, pid: int, trace: ThreadTrace, geometry: CacheGeometry) -> None:
        self.pid = pid
        self.trace = trace
        #: len(trace.events), pinned: the run loop tests end-of-trace
        #: after every step.
        self.num_events = len(trace.events)
        self.cache = Cache(geometry)
        #: Index of the next event to execute.
        self.cursor = 0
        #: Local time in cycles.
        self.clock = 0
        #: Bumped whenever the processor's schedule changes (squash,
        #: stall release) so stale scheduler entries can be discarded.
        self.epoch = 0
        self.done = False
        self.txn: Optional[TxnState] = None
        #: Live overflow area of the current transaction, if it spilled.
        self.overflow_area: Optional[OverflowArea] = None
        #: If stalled by the livelock mitigation: the pid being waited on.
        self.waiting_on: Optional[int] = None
        #: Pids stalled waiting for this processor to commit or squash.
        self.waiters: List[int] = []
        self.scheme_state: Dict[str, Any] = {}
        self.next_txn_id = 0

    # ------------------------------------------------------------------

    @property
    def in_txn(self) -> bool:
        """Whether the processor is inside a transaction."""
        return self.txn is not None

    def at_end(self) -> bool:
        """Whether the trace is exhausted."""
        return self.cursor >= len(self.trace.events)

    def fresh_txn_id(self) -> int:
        """Allocate a run-unique transaction id for this processor."""
        txn_id = self.next_txn_id * 1000 + self.pid
        self.next_txn_id += 1
        return txn_id

    def ensure_overflow_area(self) -> OverflowArea:
        """The current transaction's overflow area, created on first use."""
        if self.overflow_area is None or not self.overflow_area.allocated:
            self.overflow_area = OverflowArea(self.pid)
        return self.overflow_area

    def has_overflow(self) -> bool:
        """Whether the current transaction has spilled lines."""
        return (
            self.overflow_area is not None
            and self.overflow_area.allocated
            and not self.overflow_area.is_empty()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "txn" if self.in_txn else "non-spec"
        return (
            f"TmProcessor(pid={self.pid}, clock={self.clock}, "
            f"cursor={self.cursor}/{len(self.trace.events)}, {state})"
        )
