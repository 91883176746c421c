"""Memory-event traces — the input format of both system simulators.

The paper's TM evaluation is explicitly trace-driven ("These traces were
then analyzed in our TM simulator"), and its TLS evaluation is
execution-driven over compiler-generated tasks; this module defines the
common event vocabulary both our simulators consume:

* ``LOAD`` / ``STORE`` of a byte address (stores carry the value written,
  so squash-and-replay is deterministic and final memory state can be
  checked against a serial reference execution);
* ``COMPUTE`` of some number of non-memory cycles;
* ``TX_BEGIN`` / ``TX_END`` transaction markers (TM traces only; nesting
  is expressed by nested begin/end pairs).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.errors import TraceError


class EventKind(enum.Enum):
    """Kinds of trace events."""

    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    TX_BEGIN = "tx-begin"
    TX_END = "tx-end"

    # Members are singletons, so identity hashing is exact; the default
    # Enum hash is a Python-level call and events are hashed whenever a
    # frozen MemEvent is, i.e. constantly during workload handling.
    __hash__ = object.__hash__


#: Module-level aliases of the members: ``EventKind.LOAD`` is a class
#: attribute lookup through the enum metaclass (up to ten times a global read),
#: and the simulators' step loops test the kind of every event.
_LOAD, _STORE, _COMPUTE = EventKind.LOAD, EventKind.STORE, EventKind.COMPUTE
_TX_BEGIN, _TX_END = EventKind.TX_BEGIN, EventKind.TX_END


@dataclass(frozen=True, init=False)
class MemEvent:
    """One trace event.

    ``address`` is a byte address (LOAD/STORE only); ``value`` is the
    stored word value (STORE only); ``cycles`` is the compute duration
    (COMPUTE only).  A workload builds hundreds of thousands of events,
    so the fields are slots, written once through their descriptors.
    """

    __slots__ = ("kind", "address", "value", "cycles")
    kind: EventKind
    address: int
    value: int
    cycles: int

    def __init__(
        self, kind: EventKind, address: int = 0, value: int = 0, cycles: int = 0
    ) -> None:
        if kind is _LOAD or kind is _STORE:
            if address < 0:
                raise TraceError(f"negative address in {kind.value} event")
        elif kind is _COMPUTE and cycles <= 0:
            raise TraceError("compute events need a positive cycle count")
        _set_kind(self, kind)
        _set_address(self, address)
        _set_value(self, value)
        _set_cycles(self, cycles)

    def __reduce__(self) -> tuple:
        # The frozen __setattr__ would refuse pickle's slot-state restore.
        return (MemEvent, (self.kind, self.address, self.value, self.cycles))


_set_kind, _set_address, _set_value, _set_cycles = (
    vars(MemEvent)[name].__set__ for name in MemEvent.__slots__
)


def load(address: int) -> MemEvent:
    """A load event."""
    return MemEvent(_LOAD, address)


def store(address: int, value: int = 0) -> MemEvent:
    """A store event carrying the value written."""
    return MemEvent(_STORE, address, value)


def compute(cycles: int) -> MemEvent:
    """A block of non-memory work."""
    return MemEvent(_COMPUTE, 0, 0, cycles)


def tx_begin() -> MemEvent:
    """A transaction-begin marker."""
    return MemEvent(_TX_BEGIN)


def tx_end() -> MemEvent:
    """A transaction-end marker."""
    return MemEvent(_TX_END)


class ThreadTrace:
    """The full event sequence one thread executes.

    Validates transactional bracketing at construction: every ``TX_END``
    must close an open ``TX_BEGIN`` and the trace must end with no open
    transaction.
    """

    __slots__ = ("thread_id", "events")

    def __init__(self, thread_id: int, events: Sequence[MemEvent]) -> None:
        self.thread_id = thread_id
        self.events: Tuple[MemEvent, ...] = tuple(events)
        self._validate()

    def _validate(self) -> None:
        depth = 0
        for position, event in enumerate(self.events):
            if event.kind is _TX_BEGIN:
                depth += 1
            elif event.kind is _TX_END:
                depth -= 1
                if depth < 0:
                    raise TraceError(
                        f"thread {self.thread_id}: TX_END at event {position} "
                        "closes nothing"
                    )
        if depth:
            raise TraceError(
                f"thread {self.thread_id}: trace ends with {depth} open "
                "transaction(s)"
            )

    def memory_event_count(self) -> int:
        """Number of loads plus stores."""
        return sum(
            1
            for event in self.events
            if event.kind in (_LOAD, _STORE)
        )

    def transaction_count(self) -> int:
        """Number of top-level transactions."""
        depth = 0
        count = 0
        for event in self.events:
            if event.kind is _TX_BEGIN:
                if depth == 0:
                    count += 1
                depth += 1
            elif event.kind is _TX_END:
                depth -= 1
        return count

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThreadTrace(thread={self.thread_id}, events={len(self.events)}, "
            f"transactions={self.transaction_count()})"
        )


def serial_reference_memory(
    traces: Iterable[ThreadTrace],
) -> "dict[int, int]":
    """Final word-address → value map of a *serial* execution of traces.

    Each thread's stores are applied in trace order, threads one after
    another.  Used by tests as one of the serialisability oracles (for
    workloads whose threads write disjoint locations, any interleaving
    must agree with this).
    """
    memory: dict = {}
    for trace in traces:
        for event in trace.events:
            if event.kind is _STORE:
                memory[event.address >> 2] = event.value & 0xFFFFFFFF
    return memory
