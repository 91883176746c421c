"""Tests for the shared run loop, ``SpecSystemCore.drain``."""

from repro.obs.metrics import MetricsRegistry
from repro.spec.system import SpecSystemCore


class Unit:
    def __init__(self, pid, clock, steps=1):
        self.pid = pid
        self.clock = clock
        self.epoch = 0
        self.steps_left = steps


class Toy(SpecSystemCore):
    """A substrate whose units each take ``steps`` one-cycle steps."""

    def __init__(self, clocks, steps=1, metrics=None):
        self.metrics = metrics
        self._scheduler = None
        self.processors = [
            Unit(pid, clock, steps) for pid, clock in enumerate(clocks)
        ]
        self.stepped = []

    def step(self, unit):
        self.stepped.append((unit.clock, unit.pid))
        unit.clock += 1
        unit.steps_left -= 1

    @staticmethod
    def stale(unit, epoch):
        return epoch != unit.epoch

    @staticmethod
    def requeue(unit):
        return unit.steps_left > 0

    def run(self, order=None, gate=None):
        scheduler = self.open_scheduler()
        for pid in order if order is not None else range(len(self.processors)):
            unit = self.processors[pid]
            scheduler.push(unit.clock, pid, unit.epoch)
        self.drain(self.step, self.stale, self.requeue, gate)
        return scheduler


def counters(metrics):
    return {
        name: metrics.counter(f"scheduler.{name}").value
        for name in ("pushes", "pops", "stale_pops")
    }


class TestDrain:
    def test_steps_in_clock_order(self):
        toy = Toy([30, 10, 20])
        toy.run()
        assert [pid for _, pid in toy.stepped] == [1, 2, 0]

    def test_ties_break_by_processor_id(self):
        toy = Toy([5, 5, 5])
        toy.run(order=[2, 1, 0])
        assert [pid for _, pid in toy.stepped] == [0, 1, 2]

    def test_empty_heap_steps_nothing(self):
        toy = Toy([])
        scheduler = toy.run()
        assert toy.stepped == [] and scheduler.total_steps == 0
        assert toy._scheduler is None

    def test_stale_tokens_are_skipped_and_counted(self):
        metrics = MetricsRegistry()
        toy = Toy([1, 2], metrics=metrics)
        scheduler = toy.open_scheduler()
        scheduler.push(1, 0, 0)
        scheduler.push(2, 1, 0)
        unit = toy.processors[0]
        unit.epoch, unit.clock = 1, 4  # re-queued: (1, 0, 0) is stale
        scheduler.push(4, 0, 1)
        toy.drain(toy.step, toy.stale, toy.requeue)
        assert toy.stepped == [(2, 1), (4, 0)]
        assert counters(metrics) == {"pushes": 3, "pops": 3, "stale_pops": 1}

    def test_a_unit_keeps_stepping_while_it_stays_first(self):
        metrics = MetricsRegistry()
        toy = Toy([0, 3], steps=4, metrics=metrics)
        scheduler = toy.run()
        # Unit 0 runs at 0, 1, 2 without a heap round trip; at clock 3
        # its entry (3, 0) still sorts first; at 4 unit 1 (3, 1) wins.
        assert toy.stepped == [
            (0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (4, 1), (5, 1), (6, 1)
        ]
        # Each continued step counts as a push and a pop.
        assert scheduler.total_steps == 8
        assert counters(metrics) == {"pushes": 8, "pops": 8, "stale_pops": 0}

    def test_the_gate_runs_before_every_step(self):
        toy = Toy([0, 10], steps=2)
        gated = []
        toy.run(gate=gated.append)
        assert gated == [clock for clock, _ in toy.stepped]

    def test_a_gate_that_requeues_the_unit_makes_its_entry_stale(self):
        metrics = MetricsRegistry()
        toy = Toy([0, 10], steps=2, metrics=metrics)

        def gate(clock):
            unit = toy.processors[0]
            if clock == 1 and unit.epoch == 0:
                # A commit squashes unit 0 and re-queues it at clock 5.
                unit.epoch += 1
                unit.clock = 5
                toy._scheduler.push(unit.clock, unit.pid, unit.epoch)

        toy.run(gate=gate)
        assert toy.stepped == [(0, 0), (5, 0), (10, 1), (11, 1)]
        assert counters(metrics)["stale_pops"] == 1
