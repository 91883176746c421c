"""Tests for trace events and thread traces."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.errors import TraceError
from repro.sim.trace import (
    EventKind,
    MemEvent,
    ThreadTrace,
    compute,
    load,
    serial_reference_memory,
    store,
    tx_begin,
    tx_end,
)


class TestEvents:
    def test_store_carries_value(self):
        event = store(0x100, 42)
        assert event.kind is EventKind.STORE
        assert event.value == 42

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            load(-1)

    def test_compute_needs_positive_cycles(self):
        with pytest.raises(TraceError):
            compute(0)

    def test_events_compare_hash_and_print_field_wise(self):
        event = store(0x100, 42)
        assert event == MemEvent(EventKind.STORE, address=0x100, value=42)
        assert event != load(0x100)
        assert hash(event) == hash((EventKind.STORE, 0x100, 42, 0))
        assert repr(event) == (
            "MemEvent(kind=<EventKind.STORE: 'store'>, address=256, "
            "value=42, cycles=0)"
        )

    def test_events_are_immutable(self):
        event = load(0x100)
        with pytest.raises(FrozenInstanceError):
            event.address = 0x200
        with pytest.raises(FrozenInstanceError):
            del event.kind
        assert not hasattr(event, "__dict__")

    def test_events_survive_pickle_and_copy(self):
        event = compute(7)
        assert pickle.loads(pickle.dumps(event)) == event
        assert copy.deepcopy(event) == event


class TestThreadTrace:
    def test_balanced_transactions_accepted(self):
        trace = ThreadTrace(0, [tx_begin(), load(0), tx_end()])
        assert trace.transaction_count() == 1

    def test_unbalanced_end_rejected(self):
        with pytest.raises(TraceError):
            ThreadTrace(0, [tx_end()])

    def test_unclosed_begin_rejected(self):
        with pytest.raises(TraceError):
            ThreadTrace(0, [tx_begin(), load(0)])

    def test_nested_transactions_count_once(self):
        trace = ThreadTrace(
            0,
            [tx_begin(), tx_begin(), load(0), tx_end(), tx_end(),
             tx_begin(), tx_end()],
        )
        assert trace.transaction_count() == 2

    def test_memory_event_count(self):
        trace = ThreadTrace(0, [load(0), store(4, 1), compute(5)])
        assert trace.memory_event_count() == 2


class TestSerialReference:
    def test_last_store_wins_within_thread(self):
        trace = ThreadTrace(0, [store(0, 1), store(0, 2)])
        assert serial_reference_memory([trace]) == {0: 2}

    def test_threads_apply_in_order(self):
        first = ThreadTrace(0, [store(0, 1)])
        second = ThreadTrace(1, [store(0, 9)])
        assert serial_reference_memory([first, second]) == {0: 9}
