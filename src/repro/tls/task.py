"""TLS tasks: static traces and per-attempt runtime state.

A :class:`TlsTask` is the static description of one task carved out of
the sequential program: its event trace and the cursor position at which
it spawns its successor.  A :class:`TaskState` is the runtime incarnation:
cursor, exact sets, write log, squash bookkeeping.  Tasks commit strictly
in task-id order — the sequential semantics TLS must preserve.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence, Set

from repro.errors import TraceError
from repro.mem.address import WORD_SHIFT, WORD_TO_LINE_SHIFT
from repro.sim.trace import EventKind, MemEvent


class TlsTask:
    """Static description of one speculative task."""

    __slots__ = ("task_id", "events", "spawn_cursor")

    def __init__(
        self,
        task_id: int,
        events: Sequence[MemEvent],
        spawn_cursor: int = 0,
    ) -> None:
        self.task_id = task_id
        self.events = tuple(events)
        for event in self.events:
            if event.kind in (EventKind.TX_BEGIN, EventKind.TX_END):
                raise TraceError("TLS task traces have no transaction markers")
        if not 0 <= spawn_cursor <= len(self.events):
            raise TraceError(
                f"task {task_id}: spawn cursor {spawn_cursor} outside trace "
                f"of {len(self.events)} events"
            )
        #: Cursor position at which the task spawns its successor.  The
        #: spawn fires when execution *reaches* this index (each attempt).
        self.spawn_cursor = spawn_cursor

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TlsTask(id={self.task_id}, events={len(self.events)})"


class TaskStatus(enum.Enum):
    """Lifecycle of a task within a TLS run."""

    #: Not yet dispatched to a processor.
    PENDING = "pending"
    #: Executing (or runnable) on its processor.
    RUNNING = "running"
    #: Finished executing, waiting for its turn to commit.
    WAITING = "waiting"
    #: Committed; its state is architectural.
    COMMITTED = "committed"


class TaskState:
    """Runtime state of one task across squash/restart attempts."""

    __slots__ = (
        "task",
        "status",
        "proc",
        "cursor",
        "attempts",
        "spawn_signalled",
        "write_log",
        "written_lines",
        "read_words",
        "write_words",
        "shadow_write_words",
        "prespawn_write_words",
        "pending_stale",
        "finish_clock",
        "blocked_on",
        "respawn_pending",
        "direct_squashes",
    )

    def __init__(self, task: TlsTask) -> None:
        self.task = task
        self.status = TaskStatus.PENDING
        self.proc: Optional[int] = None
        self.cursor = 0
        self.attempts = 0
        #: Whether the successor has been made spawnable (sticky across
        #: restarts — a spawned child is never unspawned).
        self.spawn_signalled = False
        #: word address -> value (authoritative speculative data).
        self.write_log: Dict[int, int] = {}
        #: Line addresses of the write log's words: the line index that
        #: lets forwarding, downgrade and merge paths skip a task whose
        #: log holds nothing on a line without probing its 16 words.
        self.written_lines: Set[int] = set()
        #: Exact read/write sets, word granularity.
        self.read_words: Set[int] = set()
        self.write_words: Set[int] = set()
        #: Words written at or after the spawn point in the *current*
        #: attempt (``None`` before the spawn point is reached) — the
        #: exact analogue of the shadow signature W_sh of Figure 9.
        self.shadow_write_words: Optional[Set[int]] = None
        #: Exact snapshot of the write set at the spawn point (what the
        #: spawn command carries to the child for cache flushing).
        self.prespawn_write_words: Set[int] = set()
        #: Stale-value oracle: words whose cached copy disagreed with the
        #: architecturally expected value at load time.  Must be emptied
        #: by a squash before the task may commit.
        self.pending_stale: Set[int] = set()
        #: Local clock at which the last event finished (valid once
        #: WAITING).
        self.finish_clock = 0
        #: Wr-Wr Set Restriction gate: the task id whose commit this task
        #: must wait for before re-running (Bulk only).
        self.blocked_on: Optional[int] = None
        #: Re-spawn gate: set when this task was squashed together with
        #: its parent.  The squash destroyed the child; it is re-created
        #: only when the re-executing parent crosses its spawn point
        #: again — which is also what makes anchoring the shadow write
        #: set at the spawn point sound across restarts.
        self.respawn_pending = False
        self.direct_squashes = 0

    # ------------------------------------------------------------------

    @property
    def task_id(self) -> int:
        """Static task id (also the commit-order position)."""
        return self.task.task_id

    def is_active(self) -> bool:
        """Dispatched and not yet committed."""
        status = self.status
        return status is TaskStatus.RUNNING or status is TaskStatus.WAITING

    def at_spawn_point(self) -> bool:
        """Whether the cursor sits exactly at the spawn position."""
        return self.cursor == self.task.spawn_cursor

    def record_load(self, byte_address: int) -> None:
        """Add a load to the exact read set."""
        # Shift inlined (== byte_to_word): runs on every TLS load.
        self.read_words.add(byte_address >> WORD_SHIFT)

    def record_store(self, byte_address: int, value: int) -> None:
        """Add a store to the exact write sets and the write log."""
        word = byte_address >> WORD_SHIFT
        self.write_words.add(word)
        self.write_log[word] = value & 0xFFFFFFFF
        self.written_lines.add(word >> WORD_TO_LINE_SHIFT)
        if self.shadow_write_words is not None:
            self.shadow_write_words.add(word)

    def start_shadow(self) -> None:
        """Begin (or restart) the exact shadow write set at the spawn."""
        self.shadow_write_words = set()
        self.prespawn_write_words = set(self.write_words)

    def write_lines(self) -> Set[int]:
        """Line addresses touched by the write set.

        The maintained :attr:`written_lines` index itself, not a copy:
        callers must not mutate it.
        """
        return self.written_lines

    def read_lines(self) -> Set[int]:
        """Line addresses touched by the read set."""
        return {word >> WORD_TO_LINE_SHIFT for word in self.read_words}

    def reset_for_restart(self) -> None:
        """Squash: discard all speculative state, rewind to the start.

        The shadow write set restarts at the next spawn-point crossing.
        This is sound because a squash that includes the parent also
        destroys the child, which is only re-created when the replayed
        parent crosses the spawn again (:attr:`respawn_pending`): the
        child can never observe the parent's replayed pre-spawn writes
        before they are re-produced.
        """
        self.cursor = 0
        self.attempts += 1
        self.write_log.clear()
        self.written_lines.clear()
        self.read_words.clear()
        self.write_words.clear()
        self.shadow_write_words = None
        self.prespawn_write_words = set()
        self.pending_stale.clear()
        self.status = TaskStatus.RUNNING
        self.blocked_on = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskState(id={self.task_id}, {self.status.value}, "
            f"proc={self.proc}, cursor={self.cursor}, attempts={self.attempts})"
        )
