"""The TLS system simulator: dispatch, execution, in-order commit.

Tasks are dispatched to processors in task order once their parent has
reached its spawn point; a processor may hold more than one resident task
(a running one plus finished, waiting-to-commit predecessors — the
multi-versioning of Section 2).  Tasks commit strictly in task order.

Correctness instrumentation
---------------------------
* Final memory is deterministic: committed write logs applied in task
  order, independent of scheme and interleaving — every scheme must
  produce the same final state as a sequential replay (tests assert it).
* A **stale-read oracle** records every load whose cached value differed
  from the architecturally visible one (own log → active predecessors'
  logs → memory).  A violated task must be squashed before it commits;
  committing with pending stale reads raises immediately.  This is what
  catches a broken Partial Overlap implementation — e.g. omitting the
  spawn-time cache flush of Figure 9 while still using the shadow
  signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.cache.cache import Cache
from repro.coherence.message import MessageKind
from repro.errors import SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT
from repro.mem.memory import WordMemory, overlay_log
from repro.obs import Observability
from repro.sim.trace import EventKind, MemEvent
from repro.spec.system import SpecSystemCore
from repro.tls.conflict import TlsScheme
from repro.tls.params import TLS_DEFAULTS, TlsParams
from repro.tls.stats import TlsStats
from repro.tls.task import TaskState, TaskStatus, TlsTask


class TlsProcessor:
    """One TLS processor: cache, clock, resident tasks."""

    __slots__ = ("pid", "cache", "clock", "epoch", "resident", "scheme_state")

    def __init__(self, pid: int, geometry) -> None:
        self.pid = pid
        self.cache = Cache(geometry)
        self.clock = 0
        self.epoch = 0
        #: Task ids resident on this processor, oldest first.
        self.resident: List[int] = []
        self.scheme_state: Dict[str, Any] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TlsProcessor(pid={self.pid}, clock={self.clock}, "
            f"resident={self.resident})"
        )


def _stale(proc: TlsProcessor, epoch: int) -> bool:
    """A heap entry is stale once its processor was re-queued: every
    queueing bumps the epoch."""
    return epoch != proc.epoch


@dataclass
class TlsRunResult:
    """Everything a finished TLS run exposes."""

    scheme: str
    cycles: int
    stats: TlsStats
    memory: WordMemory
    samples: List = field(default_factory=list)


class TlsSystem(SpecSystemCore):
    """A 4-processor (by default) TLS machine running one scheme."""

    #: A speculative dirty copy serves the fill by forwarding.
    speculative_fill_reply = MessageKind.DOWNGRADE

    def __init__(
        self,
        tasks: Sequence[TlsTask],
        scheme: TlsScheme,
        params: TlsParams = TLS_DEFAULTS,
        collect_samples: bool = False,
        max_samples: int = 4000,
        obs: Optional[Observability] = None,
        policy: Optional[str] = None,
    ) -> None:
        if not tasks:
            raise SimulationError("a TLS system needs at least one task")
        self.scheme = scheme
        self.memory = WordMemory()
        # Bus, observability unpacking, and the shared instruments
        # (tls.commits / tls.commit_packet_bytes / tls.task_cycles) come
        # from the substrate core; only the dispatch counter is TLS-only.
        self._init_spec_core(
            params, obs, prefix="tls", unit_timer="tls.task_cycles"
        )
        if self.metrics is not None:
            self._m_dispatches = self.metrics.counter("tls.dispatches")
        else:
            self._m_dispatches = None
        self.stats = TlsStats()
        self.tasks: List[TaskState] = [TaskState(task) for task in tasks]
        self.processors = [
            TlsProcessor(pid, params.geometry)
            for pid in range(params.num_processors)
        ]
        self.share_directory()
        #: Index of the oldest uncommitted task.
        self.head = 0
        #: Lowest task id not yet dispatched.
        self.next_dispatch = 0
        #: task id -> clock at which its spawn was signalled.
        self.spawn_times: Dict[int, int] = {0: 0}
        self.last_commit_time = 0
        self.collect_samples = collect_samples
        self.max_samples = max_samples
        self.samples: List = []
        for proc in self.processors:
            scheme.setup_processor(self, proc)
        self.attach_swap_policy(policy)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> TlsRunResult:
        """Execute every task to commit and return the results."""
        self.trace_run_begin(
            "tls", processors=len(self.processors), tasks=len(self.tasks)
        )
        self.open_scheduler()
        self._dispatch_all(now=0)
        for proc in self.processors:
            self._schedule(proc)
        self.drain(self._step, _stale, self._requeue, self._try_commits)
        # Drain any commits still pending when the queue empties.
        self._try_commits(up_to=None)

        uncommitted = [
            t.task_id for t in self.tasks if t.status is not TaskStatus.COMMITTED
        ]
        if uncommitted:
            raise SimulationError(
                f"TLS simulation deadlocked; tasks {uncommitted[:8]} never "
                "committed"
            )
        self.stats.cycles = max(
            self.last_commit_time, max(p.clock for p in self.processors)
        )
        self.finalize_bus_stats()
        self.trace_run_end()
        return TlsRunResult(
            scheme=self.scheme.name,
            cycles=self.stats.cycles,
            stats=self.stats,
            memory=self.memory,
            samples=self.samples,
        )

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------

    def _runnable_task(self, proc: TlsProcessor) -> Optional[TaskState]:
        """The least-speculative resident task that can make progress."""
        for task_id in proc.resident:
            state = self.tasks[task_id]
            if state.status is not TaskStatus.RUNNING:
                continue
            if state.respawn_pending:
                continue
            if state.blocked_on is not None:
                blocker = self.tasks[state.blocked_on]
                if blocker.status is not TaskStatus.COMMITTED:
                    continue
                state.blocked_on = None
            return state
        return None

    def active_tasks(self) -> List[TaskState]:
        """All dispatched, uncommitted tasks, oldest first.

        Only ``tasks[head:next_dispatch]`` can hold one: tasks commit in
        order (everything below ``head`` is COMMITTED) and dispatch takes
        tasks in order and is the only way out of PENDING (everything at
        or past ``next_dispatch`` is PENDING).
        """
        return [
            state
            for state in self.tasks[self.head : self.next_dispatch]
            if state.is_active()
        ]

    def _schedule(self, proc: TlsProcessor, force: bool = False) -> None:
        """Queue the processor's next step.

        Every push bumps the epoch, so at most one live scheduler entry
        exists per processor — double entries would double-step it.
        ``force`` queues even with no runnable task (used when a task
        finishes, so its commit is attempted at its finish time).
        """
        if self._scheduler is None:
            return
        if force or self._runnable_task(proc) is not None:
            proc.epoch += 1
            self._scheduler.push(proc.clock, proc.pid, proc.epoch)

    def _requeue(self, proc: TlsProcessor) -> bool:
        """After a step, whether the processor steps again (under a new
        epoch, as :meth:`_schedule` would queue it)."""
        if self._runnable_task(proc) is None:
            return False
        proc.epoch += 1
        return True

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_all(self, now: int) -> None:
        while self.next_dispatch < len(self.tasks):
            state = self.tasks[self.next_dispatch]
            if state.status is not TaskStatus.PENDING:
                self.next_dispatch += 1
                continue
            if self.next_dispatch not in self.spawn_times:
                return
            proc = self._pick_processor()
            if proc is None:
                return
            self._dispatch(proc, state, now)
            self.next_dispatch += 1

    def _pick_processor(self) -> Optional[TlsProcessor]:
        """A processor with a free slot and no still-running resident,
        preferring the one with the smallest clock."""
        best: Optional[TlsProcessor] = None
        for proc in self.processors:
            if len(proc.resident) >= self.params.tasks_per_processor:
                continue
            if not self.scheme.can_accept_task(self, proc):
                continue
            if any(
                self.tasks[tid].status is TaskStatus.RUNNING
                for tid in proc.resident
            ):
                continue
            if best is None or proc.clock < best.clock:
                best = proc
        return best

    def _dispatch(self, proc: TlsProcessor, state: TaskState, now: int) -> None:
        state.proc = proc.pid
        state.status = TaskStatus.RUNNING
        state.cursor = 0
        state.attempts = max(state.attempts, 1)
        proc.resident.append(state.task_id)
        proc.resident.sort()
        spawn_time = self.spawn_times.get(state.task_id, 0)
        proc.clock = (
            max(proc.clock, spawn_time, now) + self.params.spawn_overhead_cycles
        )
        if self._m_dispatches is not None:
            self._m_dispatches.inc()
        self.start_unit_timer(state.task_id, proc.clock)
        if self.tracer is not None:
            self.tracer.emit(
                "dispatch",
                task=state.task_id,
                proc=proc.pid,
                attempt=state.attempts,
                clock=proc.clock,
            )
        self.scheme.on_dispatch(self, proc, state)
        self._schedule(proc)

    # ------------------------------------------------------------------
    # One step of one processor
    # ------------------------------------------------------------------

    def _step(self, proc: TlsProcessor) -> None:
        state = self._runnable_task(proc)
        if state is None:
            return
        if state.at_spawn_point():
            self._spawn_point(proc, state)
        event = state.task.events[state.cursor]
        if event.kind is EventKind.COMPUTE:
            proc.clock += event.cycles
        elif event.kind is EventKind.LOAD:
            self._load(proc, state, event.address)
        elif event.kind is EventKind.STORE:
            if not self._store(proc, state, event):
                # The store triggered a Wr-Wr squash of this very task;
                # its cursor was already rewound.
                return
        else:  # pragma: no cover - TlsTask validates event kinds
            raise SimulationError(f"unhandled TLS event {event.kind!r}")
        state.cursor += 1
        if state.cursor >= len(state.task.events):
            if state.at_spawn_point():
                # Spawn point at the very end of the trace: fire it now,
                # or the successor would never be dispatched.
                self._spawn_point(proc, state)
            state.status = TaskStatus.WAITING
            state.finish_clock = proc.clock
            # The processor now has a free slot: a pending task may start
            # here while this one waits to commit (multi-versioning).
            self._dispatch_all(proc.clock)
            # Schedule the commit attempt at the finish time; the run
            # loop performs it once every earlier event has processed.
            self._schedule(proc, force=True)

    def _spawn_point(self, proc: TlsProcessor, state: TaskState) -> None:
        state.start_shadow()
        self.scheme.on_spawn_point(self, proc, state)
        child = state.task_id + 1
        if child < len(self.tasks):
            if not state.spawn_signalled:
                state.spawn_signalled = True
                self.spawn_times[child] = proc.clock
                self._dispatch_all(proc.clock)
            else:
                # Re-executing the spawn re-creates a child destroyed by
                # a joint squash.
                child_state = self.tasks[child]
                if child_state.respawn_pending:
                    child_state.respawn_pending = False
                    assert child_state.proc is not None
                    child_proc = self.processors[child_state.proc]
                    child_proc.clock = max(child_proc.clock, proc.clock)
                    self.scheme.on_respawn(self, child_proc, child_state)
                    self._schedule(child_proc)

    # ------------------------------------------------------------------
    # Loads and stores
    # ------------------------------------------------------------------

    def _expected_value(self, state: TaskState, word_address: int) -> int:
        """Own log → active predecessors' logs (newest first) → memory."""
        value = state.write_log.get(word_address)
        if value is not None:
            return value
        for task_id in range(state.task_id - 1, self.head - 1, -1):
            predecessor = self.tasks[task_id]
            if not predecessor.is_active():
                continue
            value = predecessor.write_log.get(word_address)
            if value is not None:
                return value
        return self.memory.load(word_address)

    def _load(self, proc: TlsProcessor, state: TaskState, byte_address: int) -> None:
        # Shifts inlined (== byte_to_word / byte_to_line): per-access path.
        word = byte_address >> WORD_SHIFT
        line_address = byte_address >> LINE_SHIFT
        # The expected value is computed only when a hit needs the
        # version check — the miss path rebuilds the line from logs +
        # memory anyway.
        line = proc.cache.lookup(line_address)
        if line is not None:
            observed = line.words[word & 0xF]  # == line.read_word(word)
            expected = self._expected_value(state, word)
            if observed != expected and self.scheme.stale_hit_refetches:
                # Access-time disambiguation rides a versioned coherence
                # protocol: a hit on a wrong-version copy is a miss.  The
                # copy was legally re-created by an *older* task's fill
                # after a newer store invalidated it; re-fetch so eager
                # forwarding delivers the correct version.
                proc.cache.invalidate(line_address)
                self._miss_fill(proc, state, line_address)
            else:
                proc.clock += self.params.hit_cycles
                if observed != expected:
                    # Speculatively reading a stale value: legal, but the
                    # task must be squashed before it commits.
                    state.pending_stale.add(word)
        else:
            self._miss_fill(proc, state, line_address)
        state.record_load(byte_address)
        self.scheme.record_load(self, proc, state, byte_address)

    def _store(self, proc: TlsProcessor, state: TaskState, event: MemEvent) -> bool:
        """Perform a store; returns False if the storer itself was
        squashed by a Wr-Wr Set Restriction conflict."""
        byte_address = event.address
        line_address = byte_address >> LINE_SHIFT
        victim = self.scheme.eager_check_store(self, proc, state, byte_address)
        if victim is not None:
            self._note_direct_squash_stats(
                dependence=1, false_positive=False
            )
            self.squash_from(victim, now=proc.clock, cause="eager-conflict")
        gate = self.scheme.prepare_store(self, proc, state, line_address)
        if gate is not None:
            self.squash_from(
                state.task_id, now=proc.clock, cause="wr-wr-conflict"
            )
            state.blocked_on = gate
            return False
        line = proc.cache.lookup(line_address)
        if line is not None:
            proc.clock += self.params.hit_cycles
        else:
            line = self._miss_fill(proc, state, line_address)
        line.write_word(byte_address >> WORD_SHIFT, event.value)
        state.record_store(byte_address, event.value)
        self.scheme.record_store(self, proc, state, byte_address)
        return True

    def _miss_fill(self, proc: TlsProcessor, state: TaskState, line_address: int):
        proc.clock += self.params.miss_cycles
        words = list(self.memory.load_line(line_address))
        dirty = False
        # Eager forwarding: overlay the logs of active tasks up to and
        # including this one, oldest first (Section 6.3's "speculative
        # threads can read speculative data generated by other threads").
        for task_id in range(self.head, state.task_id + 1):
            other = self.tasks[task_id]
            if line_address not in other.written_lines or not other.is_active():
                continue
            overlaid = overlay_log(words, other.write_log, line_address)
            if overlaid and task_id == state.task_id:
                dirty = True
        self.charge_fill_coherence(proc, line_address)
        victim = proc.cache.fill(line_address, words, dirty=dirty)
        if victim is not None and victim.dirty:
            self.bus.record(
                MessageKind.WRITEBACK, now=proc.clock, port=proc.pid
            )
        line = proc.cache.lookup(line_address, touch=False)
        assert line is not None
        return line

    def _speculative_dirty(self, proc: TlsProcessor, line_address: int) -> bool:
        """Whether a dirty copy on ``proc`` holds an active resident
        task's speculative data (log-backed) rather than committed
        state mirroring memory."""
        for task_id in proc.resident:
            state = self.tasks[task_id]
            if line_address in state.written_lines and state.is_active():
                return True
        return False

    def spawn_flush_line(
        self,
        proc: TlsProcessor,
        child: TaskState,
        parent: TaskState,
        line_address: int,
    ) -> bool:
        """Flush one cached line for a Partial-Overlap spawn command.

        The child must not consume a cached copy that pre-dates the
        parent's pre-spawn stores: the shadow exclusion means the
        parent's commit will never squash the child over those words, so
        a stale copy here is a silently missed dependence.  Clean copies
        are invalidated unconditionally (the paper's rule).  A dirty copy
        is kept only while its value for every parent-pre-spawn word on
        the line matches the child's correct view — a current forwarded
        copy — and is otherwise flushed too: non-speculative dirty
        mirrors memory (writeback-invalidate, as at commits) and
        speculative dirty is backed by its owner's log, so a refill
        reconstructs it.  Returns True if a copy was invalidated.
        """
        line = proc.cache.lookup(line_address, touch=False)
        if line is None:
            return False
        if line.dirty:
            base = line_address << 4
            stale = any(
                base + offset in parent.prespawn_write_words
                and line.read_word(base + offset)
                != self._expected_value(child, base + offset)
                for offset in range(16)
            )
            if not stale:
                return False
            if not self._speculative_dirty(proc, line_address):
                self.bus.record(
                    MessageKind.WRITEBACK, now=proc.clock, port=proc.pid
                )
        proc.cache.invalidate(line_address)
        return True

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _try_commits(self, up_to: Optional[int]) -> None:
        """Commit the head task (and cascades) whose finish time is at or
        before ``up_to`` (``None`` = unconditionally).

        The run loop's gate: commits are processed in global clock
        order, so a waiting head task that finished by a step's clock
        commits *before* the step runs.
        """
        while self.head < len(self.tasks):
            state = self.tasks[self.head]
            if state.status is not TaskStatus.WAITING:
                return
            if up_to is not None and state.finish_clock > up_to:
                return
            self._commit(state)

    def _commit(self, state: TaskState) -> None:
        if state.pending_stale:
            raise SimulationError(
                f"task {state.task_id} commits having read stale values for "
                f"words {sorted(state.pending_stale)[:4]} — a dependence "
                f"violation was missed (scheme {self.scheme.name})"
            )
        assert state.proc is not None
        proc = self.processors[state.proc]
        packet_bytes = self.scheme.commit_packet(self, state)
        commit_time = self.charge_commit_bus(
            state.finish_clock, packet_bytes, port=proc.pid
        )
        self.last_commit_time = max(self.last_commit_time, commit_time)

        self.stats.committed_tasks += 1
        self.stats.read_set_words += len(state.read_words)
        self.stats.write_set_words += len(state.write_words)
        if self.obs_enabled:
            self.note_commit(
                packet_bytes,
                state.task_id,
                commit_time,
                task=state.task_id,
                proc=proc.pid,
                write_words=len(state.write_words),
            )

        # Make the task's state architectural *before* receivers merge
        # lines (the merge fetches the committed version).
        for word, value in state.write_log.items():
            self.memory.store(word, value)

        # Disambiguate all more-speculative active tasks.
        self.scheme.on_commit_broadcast(self, state)
        conflicting: List[TaskState] = []
        for other in self.active_tasks():
            if other.task_id <= state.task_id:
                continue
            exact_dep = self.scheme.exact_dependence(state, other)
            hit = self.scheme.receiver_conflict(self, state, other)
            if (
                self.collect_samples
                and not exact_dep
                and state.write_words
                and len(self.samples) < self.max_samples
            ):
                self.samples.append(
                    (
                        frozenset(state.write_words),
                        frozenset(other.read_words),
                        frozenset(other.write_words),
                    )
                )
            if hit:
                conflicting.append(other)
                self._note_direct_squash_stats(
                    dependence=len(exact_dep),
                    false_positive=not exact_dep,
                )
        if conflicting:
            self.squash_from(
                min(t.task_id for t in conflicting), now=commit_time
            )

        # Commit invalidation (and word merging) in every other cache.
        for other_proc in self.processors:
            if other_proc is proc:
                continue
            self.scheme.commit_update_cache(self, state, other_proc)

        state.status = TaskStatus.COMMITTED
        self.scheme.on_commit_cleanup(self, proc, state)
        proc.resident.remove(state.task_id)
        if self._runnable_task(proc) is None:
            proc.clock = max(proc.clock, commit_time)
        self.head += 1
        self._dispatch_all(commit_time)
        for other_proc in self.processors:
            self._schedule(other_proc)
        if self._swap_policy is not None:
            self._maybe_policy_swap(commit_time)

    def _note_direct_squash_stats(
        self, dependence: int, false_positive: bool
    ) -> None:
        self.stats.direct_squashes += 1
        self.stats.dependence_words += dependence
        if false_positive:
            self.stats.false_positive_squashes += 1

    # ------------------------------------------------------------------
    # Squash propagation
    # ------------------------------------------------------------------

    def squash_from(
        self, first_task_id: int, now: int, cause: str = "commit-conflict"
    ) -> None:
        """Squash ``first_task_id`` and every more-speculative active task
        (its children), restarting each on its processor.

        A child squashed together with its parent is *destroyed*, not
        merely restarted: it waits (``respawn_pending``) until the
        replayed parent crosses its spawn point again — by which time the
        parent has re-produced the child's live-ins.

        ``cause`` labels the *direct* victim's squash for the event trace
        and per-cause metrics (``commit-conflict``, ``eager-conflict``,
        ``wr-wr-conflict``); cascaded children are labelled ``cascade``.
        It has no effect on simulation behaviour.
        """
        squashed = [
            state
            for state in self.active_tasks()
            if state.task_id >= first_task_id
        ]
        squashed_ids = {state.task_id for state in squashed}
        for state in reversed(squashed):
            assert state.proc is not None
            proc = self.processors[state.proc]
            self.stats.squashes += 1
            victim_cause = cause if state.task_id == first_task_id else "cascade"
            if self.obs_enabled:
                self.note_squash(
                    victim_cause,
                    victim=state.task_id,
                    proc=proc.pid,
                    attempt=state.attempts,
                    clock=now,
                )
            self.scheme.squash_cleanup(self, proc, state)
            state.reset_for_restart()
            state.respawn_pending = state.task_id - 1 in squashed_ids
            if state.attempts > self.params.max_attempts_per_task:
                raise SimulationError(
                    f"task {state.task_id} restarted {state.attempts} times "
                    f"— livelock (scheme {self.scheme.name})"
                )
            proc.clock = max(proc.clock, now) + self.params.squash_overhead_cycles
            # The task timer measures the attempt that commits; restart
            # the measurement at the replay's start.
            self.start_unit_timer(state.task_id, proc.clock)
            self._schedule(proc)

    # ------------------------------------------------------------------
    # Scheme hot-swap
    # ------------------------------------------------------------------

    def _swap_clock(self) -> int:
        return max(
            self.last_commit_time, max(proc.clock for proc in self.processors)
        )

    def _swap_apply(self, old: TlsScheme, new: TlsScheme, now: int) -> int:
        squashed = 0
        active = self.active_tasks()
        if old.state_kind == "signature" and active:
            # Signature state cannot be enumerated back into exact sets:
            # conservatively squash all in-flight speculation, mirroring
            # the paper's one-sided false-positive guarantee (Section 3).
            squashed += len(active)
            self.squash_from(active[0].task_id, now, cause="swap")
        elif new.state_kind == "signature":
            # The incoming scheme holds at most ``bdm_contexts`` resident
            # tasks per processor; pre-squash the most-speculative excess
            # so the import can give every survivor a version context.
            limit = self.params.bdm_contexts
            first_excess: Optional[int] = None
            for proc in self.processors:
                live = sorted(
                    tid
                    for tid in proc.resident
                    if self.tasks[tid].is_active()
                )
                if len(live) > limit:
                    candidate = live[limit]
                    if first_excess is None or candidate < first_excess:
                        first_excess = candidate
            if first_excess is not None:
                squashed += sum(
                    1
                    for t in self.active_tasks()
                    if t.task_id >= first_excess
                )
                self.squash_from(first_excess, now, cause="swap")
        exports = {
            proc.pid: old.export_processor_state(self, proc)
            for proc in self.processors
        }
        for proc in self.processors:
            old.teardown_processor(self, proc)
        self.scheme = new
        for proc in self.processors:
            new.setup_processor(self, proc)
        for proc in self.processors:
            new.import_processor_state(self, proc, exports[proc.pid])
        for proc in self.processors:
            self._schedule(proc)
        return squashed

    # ------------------------------------------------------------------
    # Exact word-grain merge helper (used by the exact schemes)
    # ------------------------------------------------------------------

    def rebuild_merged_line(self, proc: TlsProcessor, line_address: int) -> None:
        """Rebuild a cached line exactly: committed memory overlaid with
        the logs of the processor's active resident tasks, oldest first —
        what a conventional scheme with per-word access bits produces."""
        line = proc.cache.lookup(line_address, touch=False)
        if line is None:
            return
        words = list(self.memory.load_line(line_address))
        dirty = False
        for task_id in proc.resident:
            state = self.tasks[task_id]
            if line_address in state.written_lines and state.is_active():
                dirty = overlay_log(words, state.write_log, line_address) or dirty
        line.words = words
        line.dirty = dirty


def simulate_sequential(tasks: Sequence[TlsTask], params: TlsParams) -> int:
    """Cycles to execute all tasks back-to-back on one processor.

    The sequential baseline of Figure 10: one cache, no speculation, no
    TLS overheads.
    """
    cache = Cache(params.geometry)
    memory = WordMemory()
    clock = 0
    for task in tasks:
        for event in task.events:
            if event.kind is EventKind.COMPUTE:
                clock += event.cycles
                continue
            line_address = event.address >> LINE_SHIFT
            line = cache.lookup(line_address)
            if line is None:
                clock += params.miss_cycles
                cache.fill(line_address, memory.load_line(line_address))
                line = cache.lookup(line_address, touch=False)
                assert line is not None
            else:
                clock += params.hit_cycles
            if event.kind is EventKind.STORE:
                word = event.address >> WORD_SHIFT
                memory.store(word, event.value)
                line.write_word(word, event.value)
    return clock
