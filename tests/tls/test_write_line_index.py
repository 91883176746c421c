"""The TLS hot path's indexes agree with the scans they replace.

* ``TaskState.written_lines`` is the line projection of the write log
  across any sequence of stores, spawn-point crossings and restarts, and
  ``write_lines()`` returns exactly that set;
* ``TlsSystem.active_tasks()`` — bounded to the dispatched window
  ``tasks[head:next_dispatch]`` — equals the full scan of
  ``tasks[head:]`` at every commit and squash, and Eager's store check
  (which scans only the dispatched successors) picks the same victim as
  a scan over every active task;
* a planted mutant that stops maintaining the line index is caught by
  the existing TLS oracles (the stale-read check at commit, or the
  final-memory comparison across schemes).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.mem.address import WORD_SHIFT, WORD_TO_LINE_SHIFT
from repro.sim.trace import load
from repro.spec.registry import resolve_scheme, scheme_names
from repro.tls.eager import TlsEagerScheme
from repro.tls.params import TLS_DEFAULTS
from repro.tls.system import TlsSystem
from repro.tls.task import TaskState, TaskStatus, TlsTask
from repro.workloads.tls_spec import build_tls_workload

TLS_SCHEMES = scheme_names("tls")
#: Two apps whose seed-7 runs include Eager store-time squashes.
APPS = ("gap", "twolf")


# ----------------------------------------------------------------------
# TaskState.written_lines
# ----------------------------------------------------------------------

# Byte addresses over a few lines, so stores often share a line.
byte_addresses = st.integers(min_value=0, max_value=(8 << 6) - 1).map(
    lambda address: address & ~3
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("store"), byte_addresses, st.integers(0, 2**32)),
        st.tuples(st.just("spawn")),
        st.tuples(st.just("restart")),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_written_lines_is_the_line_projection_of_the_write_log(ops):
    state = TaskState(TlsTask(0, [load(0)]))
    state.status = TaskStatus.RUNNING
    for op in ops:
        if op[0] == "store":
            state.record_store(op[1], op[2])
        elif op[0] == "spawn":
            state.start_shadow()
        else:
            state.reset_for_restart()
        expected = {word >> WORD_TO_LINE_SHIFT for word in state.write_log}
        assert state.written_lines == expected
        assert state.write_lines() == expected
        assert set(state.write_log) == state.write_words


# ----------------------------------------------------------------------
# The dispatched-only active window
# ----------------------------------------------------------------------


class _WindowCheckingSystem(TlsSystem):
    """Compares the bounded active window with the full scan at every
    commit and squash."""

    checks = 0

    def _assert_window(self) -> None:
        full_scan = [
            state for state in self.tasks[self.head :] if state.is_active()
        ]
        assert self.active_tasks() == full_scan
        type(self).checks += 1

    def _commit(self, state):
        self._assert_window()
        super()._commit(state)
        self._assert_window()

    def squash_from(self, first_task_id, now, cause="commit-conflict"):
        self._assert_window()
        super().squash_from(first_task_id, now, cause)
        self._assert_window()


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("name", TLS_SCHEMES)
def test_active_window_equals_full_scan(app, name):
    tasks = build_tls_workload(app, num_tasks=30, seed=7)
    _WindowCheckingSystem.checks = 0
    _WindowCheckingSystem(tasks, resolve_scheme("tls", name), TLS_DEFAULTS).run()
    # At least a before/after pair per committed task.
    assert _WindowCheckingSystem.checks >= 2 * len(tasks)


class _FullScanCheckingEager(TlsEagerScheme):
    """Eager whose bounded store check is compared with a scan over
    every active task."""

    victims = 0

    def eager_check_store(self, system, proc, state, byte_address):
        victim = super().eager_check_store(system, proc, state, byte_address)
        word = byte_address >> WORD_SHIFT
        reference = min(
            (
                other.task_id
                for other in system.tasks[system.head :]
                if other.is_active()
                and other.task_id > state.task_id
                and (word in other.read_words or word in other.write_words)
            ),
            default=None,
        )
        assert victim == reference
        if victim is not None:
            type(self).victims += 1
        return victim


@pytest.mark.parametrize("app", APPS)
def test_eager_store_check_equals_full_scan(app):
    tasks = build_tls_workload(app, num_tasks=30, seed=7)
    _FullScanCheckingEager.victims = 0
    TlsSystem(tasks, _FullScanCheckingEager(), TLS_DEFAULTS).run()
    assert _FullScanCheckingEager.victims > 0


# ----------------------------------------------------------------------
# Planted mutant: the line index is never updated
# ----------------------------------------------------------------------


def _record_store_without_line_index(self, byte_address, value):
    word = byte_address >> WORD_SHIFT
    self.write_words.add(word)
    self.write_log[word] = value & 0xFFFFFFFF
    if self.shadow_write_words is not None:
        self.shadow_write_words.add(word)


@pytest.mark.parametrize("app", ("gzip", "parser"))
def test_oracles_catch_a_stale_line_index(app, monkeypatch):
    tasks = build_tls_workload(app, num_tasks=20, seed=42)
    monkeypatch.setattr(TaskState, "record_store", _record_store_without_line_index)
    caught = []
    reference = None
    for name in TLS_SCHEMES:
        try:
            memory = TlsSystem(
                tasks, resolve_scheme("tls", name), TLS_DEFAULTS
            ).run().memory.snapshot()
        except SimulationError as exc:
            assert "stale values" in str(exc)
            caught.append(name)
            continue
        if reference is None:
            reference = memory
        elif memory != reference:
            caught.append(name)
    assert caught, "no TLS oracle noticed the missing line index"
