"""Checkpoint-substrate schemes: Bulk signatures vs an exact-log baseline.

Both schemes drive an *engine* built on the shared
:class:`~repro.checkpoint.logstack.CheckpointLogStack`, so the
:class:`~repro.checkpoint.system.CheckpointSystem` run loop is scheme
agnostic:

* :class:`BulkCheckpointScheme` wraps the paper's
  :class:`~repro.checkpoint.processor.CheckpointedProcessor` — one BDM
  version context per checkpoint, rollback by signature expansion (which
  can falsely invalidate aliased lines), commit broadcast as one
  RLE-compressed write signature.
* :class:`ExactCheckpointScheme` is the idealised hardware the paper
  compares against: per-checkpoint exact write logs, rollback
  invalidates precisely the discarded epochs' written lines (zero false
  invalidations by construction), commit enumerates one invalidation
  per written line — the Lazy-style cost model of
  :mod:`repro.tm.lazy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

from repro.cache.geometry import CacheGeometry, TM_L1_GEOMETRY
from repro.checkpoint.logstack import CheckpointLogStack, LoggedCheckpoint
from repro.checkpoint.params import CheckpointParams
from repro.checkpoint.processor import CheckpointedProcessor
from repro.coherence.message import MessageKind
from repro.core.rle import rle_encode
from repro.errors import SimulationError
from repro.mem.address import WORD_SHIFT
from repro.mem.memory import WordMemory
from repro.spec.scheme import SpecScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checkpoint.system import CheckpointSystem, EpochRecord


class CheckpointScheme(SpecScheme):
    """Hook surface a checkpoint scheme implements."""

    def make_engine(self, params: CheckpointParams):
        """Build the scheme's checkpointed execution engine."""
        raise NotImplementedError

    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """Bus bytes of the commit broadcast for the oldest checkpoint.

        Called *before* the engine releases the checkpoint, so the Bulk
        scheme can still read its write signature.
        """
        raise NotImplementedError

    def on_rollback(
        self,
        system: "CheckpointSystem",
        discarded: int,
        invalidated: int,
        false_invalidated: int,
    ) -> None:
        """Observability hook after a rollback's cache invalidation."""

    def export_processor_state(
        self, system: "CheckpointSystem", proc: object
    ) -> List:
        """(checkpoint id, write log) per live checkpoint, oldest first.

        Both engines keep exact per-checkpoint write logs, so — unlike
        TM/TLS, where signature → exact forces a conservative squash —
        the checkpoint swap conversion is lossless in either direction:
        the system replays these logs through the replacement engine.
        """
        return system.engine.live_write_logs()


class BulkCheckpointScheme(CheckpointScheme):
    """Checkpoints on Bulk signatures (Section 4.5 / Figure 7)."""

    name = "Bulk"
    state_kind = "signature"

    def make_engine(self, params: CheckpointParams) -> CheckpointedProcessor:
        from repro.core.backend import resolve_backend

        return CheckpointedProcessor(
            memory=WordMemory(),
            config=params.signature_config,
            geometry=params.geometry,
            max_checkpoints=params.max_live_checkpoints,
            backend=resolve_backend(params.sig_backend),
        )

    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """One RLE-compressed signature, regardless of write-set size."""
        signature = system.engine.oldest().context.write_signature
        return system.bus.record(
            MessageKind.COMMIT_SIGNATURE,
            payload_bytes=max(1, len(rle_encode(signature))),
            is_commit_traffic=True,
        )

    def on_rollback(
        self,
        system: "CheckpointSystem",
        discarded: int,
        invalidated: int,
        false_invalidated: int,
    ) -> None:
        system.note_sig_expansion(
            "rollback-invalidate",
            expansions=discarded,
            invalidated=invalidated,
            false_invalidated=false_invalidated,
        )

    def import_processor_state(
        self, system: "CheckpointSystem", proc: object, state: object
    ) -> None:
        """Replay one live epoch's exact read set into the context the
        swap just rebuilt for it.

        Writes reach the signatures through the engine-store replay; the
        read set only exists in the system's oracle record, so it is
        inserted here (exact → signature insertion is total, Section 3).
        ``state`` is the epoch's :class:`~repro.checkpoint.system.
        EpochRecord`, passed per checkpoint during the replay.
        """
        for word in sorted(state.read_words):
            system.engine.bdm.record_load(word << WORD_SHIFT)


class ExactCheckpointEngine(CheckpointLogStack):
    """Idealised checkpointing: exact per-checkpoint write logs.

    Rollback invalidates exactly the cached lines the discarded epochs
    wrote — no signatures, hence no aliasing and no false invalidations
    — and there is no Set Restriction, so ``safe_writebacks`` stays zero.
    """

    def __init__(
        self,
        memory: Optional[WordMemory] = None,
        geometry: CacheGeometry = TM_L1_GEOMETRY,
        max_checkpoints: int = 4,
    ) -> None:
        super().__init__(memory, geometry)
        self.max_checkpoints = max_checkpoints

    def take_checkpoint(self) -> int:
        if len(self._checkpoints) >= self.max_checkpoints:
            raise SimulationError(
                "out of checkpoints: commit or roll back first"
            )
        return self._push(LoggedCheckpoint(self._next_index))

    def rollback_to(self, checkpoint_id: int) -> int:
        keep = self._position(checkpoint_id)
        discarded = self._checkpoints[keep:]
        doomed: Set[int] = set()
        for checkpoint in discarded:
            doomed.update(checkpoint.written_lines)
        for line_address in sorted(doomed):
            line = self.cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                self.cache.invalidate(line_address)
        del self._checkpoints[keep:]
        return len(discarded)

    def load(self, byte_address: int) -> int:
        return self.speculative_value(byte_address)

    def store(self, byte_address: int, value: int) -> None:
        self._write(self._current(), byte_address, value)


class ExactCheckpointScheme(CheckpointScheme):
    """The exact-log baseline the Bulk checkpoint scheme is judged against."""

    name = "Exact"

    def make_engine(self, params: CheckpointParams) -> ExactCheckpointEngine:
        return ExactCheckpointEngine(
            memory=WordMemory(),
            geometry=params.geometry,
            max_checkpoints=params.max_live_checkpoints,
        )

    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """One enumerated invalidation per written line (the exact log's
        line-grain footprint), as in the Lazy TM commit."""
        total = 0
        for _ in range(len(record.write_lines)):
            total += system.bus.record(
                MessageKind.INVALIDATION, is_commit_traffic=True
            )
        return total
