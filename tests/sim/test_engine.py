"""Tests for the min-clock scheduler.

Ordering and stale-entry handling are tested through the drain loop
that pops the queue, in ``tests/spec/test_drain.py``.
"""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import MinClockScheduler


class TestMinClockScheduler:
    def test_negative_clock_rejected(self):
        with pytest.raises(SimulationError):
            MinClockScheduler().push(-1, 0)

    def test_total_steps_counts_pushes(self):
        scheduler = MinClockScheduler()
        scheduler.push(1, 0)
        scheduler.push(2, 0)
        assert scheduler.total_steps == 2
        assert len(scheduler) == 2
