"""A single checkpointed processor built from Bulk primitives.

Execution proceeds through a stack of *checkpoints*.  Each checkpoint is
one BDM version context (R/W signatures) plus a write log kept by the
shared :class:`~repro.checkpoint.logstack.CheckpointLogStack`; the cache
holds the speculative data with no checkpoint metadata at all — which
dirty lines belong to which checkpoint is derivable from the decoded
write signatures, exactly as Section 4.5 describes for threads.

Supported operations:

* :meth:`CheckpointedProcessor.take_checkpoint` — push a new context;
* :meth:`CheckpointedProcessor.load` / :meth:`~CheckpointedProcessor.store`
  — speculative execution against the newest checkpoint;
* :meth:`CheckpointedProcessor.rollback_to` — discard every checkpoint
  younger than the target: bulk-invalidate their dirty lines via
  signature expansion and drop their logs;
* :meth:`CheckpointedProcessor.commit_oldest` — make the oldest
  checkpoint architectural (apply its log to memory, clear its
  signatures, fold its cache ownership into the non-speculative state).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry, TM_L1_GEOMETRY
from repro.checkpoint.logstack import CheckpointLogStack, LoggedCheckpoint
from repro.core.backend.base import SignatureBackend
from repro.core.bdm import (
    BulkDisambiguationModule,
    SetRestrictionAction,
    VersionContext,
)
from repro.core.signature_config import SignatureConfig, default_tm_config
from repro.errors import SimulationError
from repro.mem.address import byte_to_line
from repro.mem.memory import WordMemory


class Checkpoint(LoggedCheckpoint):
    """One live checkpoint: a version context plus its write log."""

    __slots__ = ("context",)

    def __init__(self, index: int, context: VersionContext) -> None:
        super().__init__(index)
        self.context = context


class CheckpointedProcessor(CheckpointLogStack):
    """A processor whose execution can be rolled back to checkpoints."""

    def __init__(
        self,
        memory: Optional[WordMemory] = None,
        config: Optional[SignatureConfig] = None,
        geometry: CacheGeometry = TM_L1_GEOMETRY,
        max_checkpoints: int = 4,
        backend: Optional["SignatureBackend"] = None,
    ) -> None:
        super().__init__(memory, geometry)
        self.config = config if config is not None else default_tm_config()
        self.bdm = BulkDisambiguationModule(
            self.config, geometry, num_contexts=max_checkpoints, backend=backend
        )

    # ------------------------------------------------------------------
    # Checkpoint lifecycle
    # ------------------------------------------------------------------

    def take_checkpoint(self) -> int:
        """Start a new speculative epoch; returns its checkpoint id."""
        context = self.bdm.allocate_context(owner=self._next_index)
        if context is None:
            raise SimulationError(
                "out of version contexts: commit or roll back first"
            )
        self.bdm.set_running(context)
        return self._push(Checkpoint(self._next_index, context))

    def rollback_to(self, checkpoint_id: int) -> int:
        """Restore the state as of ``take_checkpoint(checkpoint_id)``.

        The target epoch and everything younger are squashed: their
        dirty lines are bulk-invalidated through each discarded context's
        write signature and their logs dropped.  Returns the number of
        epochs discarded.
        """
        keep = self._position(checkpoint_id)
        discarded = self._checkpoints[keep:]
        # Invalidate every discarded epoch's dirty lines in one batched
        # pass (youngest first, matching the per-epoch order), then
        # release the contexts.  Releasing after the walk is equivalent
        # to the interleaved order: release only clears the released
        # context's own signatures, which the batch snapshotted already.
        self.bdm.squash_invalidate_contexts(
            self.cache, [c.context for c in reversed(discarded)]
        )
        for checkpoint in discarded:
            self.bdm.release_context(checkpoint.context)
        del self._checkpoints[keep:]
        self.bdm.set_running(
            self._checkpoints[-1].context if self._checkpoints else None
        )
        return len(discarded)

    def commit_oldest(self) -> int:
        """Make the oldest checkpoint architectural; returns its id.

        Its write log is applied to memory and its signatures are
        gang-cleared ("commit by clearing a signature", Table 2); its
        dirty cache lines simply become non-speculative.  The commit
        packet is built from :meth:`oldest`'s write signature *before*
        this releases the context.
        """
        checkpoint = self._commit_log()
        self.bdm.release_context(checkpoint.context)
        if self._checkpoints:
            self.bdm.set_running(self._checkpoints[-1].context)
        return checkpoint.index

    # ------------------------------------------------------------------
    # Speculative execution
    # ------------------------------------------------------------------

    def load(self, byte_address: int) -> int:
        """Speculatively load a word (newest checkpoint's view)."""
        self.bdm.set_running(self._current().context)
        self.bdm.record_load(byte_address)
        return self.speculative_value(byte_address)

    def store(self, byte_address: int, value: int) -> None:
        """Speculatively store a word into the newest checkpoint."""
        current = self._current()
        self.bdm.set_running(current.context)
        line_address = byte_to_line(byte_address)
        action = self.bdm.store_set_action(line_address)
        if action is SetRestrictionAction.WRITEBACK_NONSPEC:
            set_index = self.cache.set_index(line_address)
            for line in self.cache.dirty_lines_in_set(set_index):
                self.cache.clean(line.line_address)
                self.safe_writebacks += 1
        elif action is SetRestrictionAction.CONFLICT:
            # An older checkpoint owns the set.  A single processor
            # cannot squash its own past; fold the epochs together by
            # treating the ownership as inherited (the "merging the two
            # threads" option of Section 4.5 — here: merging epochs is
            # always safe because rollback discards *suffixes*, and a
            # set owned by an older checkpoint is invalidated by that
            # checkpoint's own signature when it rolls back).
            pass
        self._write(current, byte_address, value)
        self.bdm.record_store(byte_address)
