"""The scheme base class's default hooks (contract documentation)."""

from types import SimpleNamespace

from repro.sim.trace import ThreadTrace, load
from repro.tm.conflict import TmScheme
from repro.tm.params import TM_DEFAULTS
from repro.tm.processor import TmProcessor
from repro.tm.txstate import TxnState


class MinimalScheme(TmScheme):
    """A scheme overriding only the abstract method."""

    name = "Minimal"

    def commit_packet(self, system, proc):
        return 0


def make_proc():
    return TmProcessor(0, ThreadTrace(0, [load(0)]), TM_DEFAULTS.geometry)


class TestDefaults:
    def test_eager_check_defaults_to_no_stall(self):
        scheme = MinimalScheme()
        assert scheme.eager_check(None, make_proc(), 0x100, True) is None

    def test_receiver_conflict_defaults_to_none(self):
        scheme = MinimalScheme()
        assert scheme.receiver_conflict(None, make_proc(), make_proc()) is None

    def test_nonspec_victims_default_to_exact_sets(self):
        scheme = MinimalScheme()
        writer, reader, idle = make_proc(), make_proc(), make_proc()
        for proc in (writer, reader):
            proc.txn = TxnState(0, start_cursor=0)
            proc.txn.record_load(0x100)
        system = SimpleNamespace(processors=[writer, reader, idle])
        assert list(scheme.nonspec_victims(system, writer, 0x104)) == [reader]
        assert list(scheme.nonspec_victims(system, writer, 0x200)) == []

    def test_overflow_check_follows_processor_state(self):
        scheme = MinimalScheme()
        proc = make_proc()
        assert not scheme.miss_checks_overflow(None, proc, 0x100)
        area = proc.ensure_overflow_area()
        area.spill(0x4, tuple(range(16)))
        assert scheme.miss_checks_overflow(None, proc, 0x100)

    def test_lifecycle_hooks_are_no_ops(self):
        scheme = MinimalScheme()
        proc = make_proc()
        scheme.setup(None)
        scheme.setup_processor(None, proc)
        scheme.on_txn_begin(None, proc)
        scheme.on_inner_begin(None, proc)
        scheme.on_inner_end(None, proc)
        scheme.record_load(None, proc, 0)
        scheme.record_store(None, proc, 0)
        scheme.prepare_store(None, proc, 0)
        scheme.commit_update_receiver(None, proc, proc)
        scheme.squash_cleanup(None, proc, 0)
        scheme.commit_cleanup(None, proc)
        scheme.overflow_disambiguation_cost(None, proc, proc)
        scheme.on_spec_eviction(None, proc)


class TestProcessorHelpers:
    def test_fresh_txn_ids_are_unique_and_tagged(self):
        proc = make_proc()
        first = proc.fresh_txn_id()
        second = proc.fresh_txn_id()
        assert first != second
        assert first % 1000 == proc.pid

    def test_overflow_area_recreated_after_deallocation(self):
        proc = make_proc()
        area = proc.ensure_overflow_area()
        area.deallocate()
        fresh = proc.ensure_overflow_area()
        assert fresh is not area
        assert fresh.allocated
