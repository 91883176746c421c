"""The line-indexed write-log stack both checkpoint engines share.

Every live checkpoint keeps an exact write log (word -> value) plus the
set of lines it wrote.  The stack owns everything that follows from the
logs alone: checkpoint lookup, the newest-view word read, the miss-fill
line overlay (which skips every log that never wrote the line), and
applying the oldest log to memory on commit.  The engines add only how
they track and roll back a checkpoint: BDM version contexts for
:class:`~repro.checkpoint.processor.CheckpointedProcessor`, exact
written-line invalidation for
:class:`~repro.checkpoint.schemes.ExactCheckpointEngine`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry
from repro.cache.line import CacheLine
from repro.errors import SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT
from repro.mem.memory import WordMemory, overlay_log


class LoggedCheckpoint:
    """One live checkpoint: its write log and the lines it wrote."""

    __slots__ = ("index", "write_log", "written_lines")

    def __init__(self, index: int) -> None:
        self.index = index
        self.write_log: Dict[int, int] = {}
        self.written_lines: Set[int] = set()


class CheckpointLogStack:
    """Live checkpoints, oldest first, over one memory and one cache."""

    def __init__(
        self, memory: Optional[WordMemory], geometry: CacheGeometry
    ) -> None:
        self.memory = memory if memory is not None else WordMemory()
        self.cache = Cache(geometry)
        self._checkpoints: List[LoggedCheckpoint] = []
        self._next_index = 0
        #: Safe writebacks performed for the Set Restriction (Bulk only).
        self.safe_writebacks = 0

    @property
    def depth(self) -> int:
        """Number of live checkpoints."""
        return len(self._checkpoints)

    def _push(self, checkpoint: LoggedCheckpoint) -> int:
        self._next_index += 1
        self._checkpoints.append(checkpoint)
        return checkpoint.index

    def _current(self) -> LoggedCheckpoint:
        if not self._checkpoints:
            raise SimulationError(
                "no live checkpoint: call take_checkpoint() first"
            )
        return self._checkpoints[-1]

    def oldest(self) -> LoggedCheckpoint:
        """The oldest live checkpoint (the next to commit)."""
        if not self._checkpoints:
            raise SimulationError("no live checkpoint")
        return self._checkpoints[0]

    def _position(self, checkpoint_id: int) -> int:
        """Stack position of a live checkpoint id."""
        for position, checkpoint in enumerate(self._checkpoints):
            if checkpoint.index == checkpoint_id:
                return position
        raise SimulationError(f"unknown checkpoint {checkpoint_id}")

    def _commit_log(self) -> LoggedCheckpoint:
        """Pop the oldest checkpoint and apply its log to memory."""
        checkpoint = self.oldest()
        del self._checkpoints[0]
        store = self.memory.store
        for word, value in checkpoint.write_log.items():
            store(word, value)
        return checkpoint

    def commit_oldest(self) -> int:
        """Make the oldest checkpoint architectural; returns its id."""
        return self._commit_log().index

    def commit_all(self) -> None:
        """Commit every live checkpoint, oldest first."""
        while self._checkpoints:
            self.commit_oldest()

    def live_write_logs(self) -> List[Tuple[int, Dict[int, int]]]:
        """(checkpoint id, write-log copy) per live checkpoint, oldest
        first — the hot-swap export a replacement engine replays."""
        return [(c.index, dict(c.write_log)) for c in self._checkpoints]

    def speculative_value(self, byte_address: int) -> int:
        """The newest checkpoint's view of a word."""
        word = byte_address >> WORD_SHIFT
        for checkpoint in reversed(self._checkpoints):
            log = checkpoint.write_log
            if word in log:
                return log[word]
        return self.memory.load(word)

    def architectural_value(self, byte_address: int) -> int:
        """The committed (non-speculative) value of a word."""
        return self.memory.load(byte_address >> WORD_SHIFT)

    def line_overlay(self, line_address: int) -> Tuple[List[int], bool]:
        """The newest view of a line's 16 words, and whether any live
        checkpoint's log contributed to it."""
        words = list(self.memory.load_line(line_address))
        overlaid = False
        for checkpoint in self._checkpoints:
            if line_address in checkpoint.written_lines:
                overlaid = True
                overlay_log(words, checkpoint.write_log, line_address)
        return words, overlaid

    def line_view(self, line_address: int) -> List[int]:
        """The newest speculative view of a line's 16 words."""
        return self.line_overlay(line_address)[0]

    def fill_line(self, line_address: int) -> Optional[CacheLine]:
        """Fill a missing line with its newest view; returns the victim.

        A line holding any live checkpoint's data is installed dirty, so
        a rollback that discards that checkpoint invalidates it too.
        """
        words, overlaid = self.line_overlay(line_address)
        return self.cache.fill(line_address, words, overlaid)

    def _write(
        self, checkpoint: LoggedCheckpoint, byte_address: int, value: int
    ) -> None:
        """Write a word through the cache into ``checkpoint``'s log."""
        line_address = byte_address >> LINE_SHIFT
        line = self.cache.lookup(line_address)
        if line is None:
            self.fill_line(line_address)
            line = self.cache.lookup(line_address, touch=False)
        word = byte_address >> WORD_SHIFT
        line.write_word(word, value)
        checkpoint.write_log[word] = value & 0xFFFFFFFF
        checkpoint.written_lines.add(line_address)
