"""Minimum-local-clock scheduling for the system simulators.

Both simulators advance whichever processor has the smallest local clock,
which yields a deterministic, causally consistent interleaving of the
per-processor event streams without a full discrete-event core.  Ties are
broken by processor id so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry


class MinClockScheduler:
    """A priority queue of ``(local_clock, processor_id)`` entries.

    Processors are re-queued with their updated clock after every step;
    a processor that has finished its trace is simply not re-queued.
    The queue is drained by
    :meth:`~repro.spec.system.SpecSystemCore.drain`.

    ``metrics`` (optional) exposes the queue's work as the
    ``scheduler.pushes`` / ``scheduler.pops`` / ``scheduler.stale_pops``
    counters; without it the hot path pays only a ``None`` check.
    """

    __slots__ = ("_heap", "_enqueued", "_push_counter", "_pop_counter",
                 "_stale_counter")

    def __init__(self, metrics: "Optional[MetricsRegistry]" = None) -> None:
        self._heap: List[Tuple[int, int, int]] = []
        self._enqueued = 0
        if metrics is not None:
            self._push_counter = metrics.counter("scheduler.pushes")
            self._pop_counter = metrics.counter("scheduler.pops")
            self._stale_counter = metrics.counter("scheduler.stale_pops")
        else:
            self._push_counter = None
            self._pop_counter = None
            self._stale_counter = None

    def push(self, clock: int, processor_id: int, token: int = 0) -> None:
        """Queue a processor for its next step at ``clock``.

        ``token`` is an opaque epoch the caller can use to detect stale
        entries (a squashed processor bumps its epoch and re-queues; the
        older entry is skipped when popped).
        """
        if clock < 0:
            raise SimulationError(f"negative clock {clock}")
        heapq.heappush(self._heap, (clock, processor_id, token))
        self._enqueued += 1
        if self._push_counter is not None:
            self._push_counter.inc()

    def account_bulk(self, pushes: int, stale_pops: int) -> None:
        """Credit a drain of the underlying heap, once it is empty.

        :meth:`~repro.spec.system.SpecSystemCore.drain` pops and
        pushes ``_heap`` with plain :mod:`heapq` calls (identical
        ordering, no per-entry bookkeeping).  It reports the pushes it
        made and the stale entries it skipped here, so
        :attr:`total_steps` and the counters stay correct.  The heap is
        empty, so every entry ever queued was popped exactly once.
        """
        self._enqueued += pushes
        if self._push_counter is not None:
            self._push_counter.inc(pushes)
            self._pop_counter.inc(self._enqueued)
            self._stale_counter.inc(stale_pops)

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def total_steps(self) -> int:
        """Number of entries ever queued (simulation step count)."""
        return self._enqueued
