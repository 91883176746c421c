"""The checkpoint substrate's system simulator.

A single checkpointed processor executes a stream of epochs.  Each epoch
begins with ``take_checkpoint``; when an epoch turns out to be
mispredicted, the processor rolls back ``rollback_depth`` checkpoints
(modelling how far behind the misprediction is discovered) and
re-executes from there.  When the checkpoint stack is full, the oldest
checkpoint commits — broadcasting its commit packet on the bus exactly
like a TM transaction.

The system owns all timing and accounting; the *engine*
(:class:`~repro.checkpoint.processor.CheckpointedProcessor` for Bulk,
:class:`~repro.checkpoint.schemes.ExactCheckpointEngine` for the exact
baseline) owns only the state. Alongside the engine the system keeps an
exact per-epoch record of read/written words — the oracle that
classifies rollback invalidations as true or false, mirroring how the
TM/TLS systems classify squashes (Table 7); no decision consults it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.checkpoint.params import CHECKPOINT_DEFAULTS, CheckpointParams
from repro.checkpoint.schemes import CheckpointScheme
from repro.checkpoint.stats import CheckpointStats
from repro.checkpoint.workload import CheckpointEpoch
from repro.coherence.message import MessageKind
from repro.errors import ConfigurationError, SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT
from repro.obs import Observability
from repro.spec.system import SpecSystemCore


class EpochRecord:
    """Exact footprint of one live epoch (the system's oracle)."""

    __slots__ = (
        "epoch_pos", "checkpoint_id", "read_words", "write_words",
        "write_lines",
    )

    def __init__(self, epoch_pos: int, checkpoint_id: int) -> None:
        self.epoch_pos = epoch_pos
        self.checkpoint_id = checkpoint_id
        self.read_words: Set[int] = set()
        self.write_words: Set[int] = set()
        #: Line addresses this epoch wrote — maintained incrementally
        #: alongside ``write_words`` (commit and rollback consult it
        #: repeatedly; do not mutate the set from outside).
        self.write_lines: Set[int] = set()


class CheckpointSystem(SpecSystemCore):
    """One checkpointed processor running an epoch stream to completion."""

    def __init__(
        self,
        scheme: CheckpointScheme,
        epochs: List[CheckpointEpoch],
        params: CheckpointParams = CHECKPOINT_DEFAULTS,
        rollback_depth: int = 1,
        obs: Optional[Observability] = None,
        policy: Optional[str] = None,
    ) -> None:
        if rollback_depth < 1:
            raise ConfigurationError(
                f"rollback depth must be at least 1, got {rollback_depth}"
            )
        if rollback_depth > params.max_live_checkpoints:
            raise ConfigurationError(
                f"rollback depth {rollback_depth} exceeds the "
                f"{params.max_live_checkpoints} live checkpoints"
            )
        self.scheme = scheme
        self.stats = CheckpointStats()
        self._init_spec_core(
            params, obs, prefix="checkpoint",
            unit_timer="checkpoint.epoch_cycles",
        )
        self.engine = scheme.make_engine(params)
        self.epochs = epochs
        self.rollback_depth = rollback_depth
        self.clock = 0
        #: Live epochs, oldest first — parallel to the engine's stack.
        self._live: List[EpochRecord] = []
        if self.metrics is not None:
            self._m_takes = self.metrics.counter("checkpoint.takes")
            self._m_rollbacks = self.metrics.counter("checkpoint.rollbacks")
        else:
            self._m_takes = None
            self._m_rollbacks = None
        self.attach_swap_policy(policy)

    @property
    def memory(self):
        """The engine's architectural memory."""
        return self.engine.memory

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> CheckpointStats:
        """Execute every epoch; returns the final statistics."""
        self.trace_run_begin(
            "checkpoint",
            epochs=len(self.epochs),
            rollback_depth=self.rollback_depth,
        )
        resolved: Set[int] = set()
        position = 0
        while position < len(self.epochs):
            if self.engine.depth >= self.params.max_live_checkpoints:
                self._commit_oldest()
            record = self._take_checkpoint(position)
            self._execute_epoch(record, self.epochs[position])
            if self.epochs[position].mispredicted and position not in resolved:
                # The misprediction is discovered after the epoch ran;
                # resolving it consumes the flag, so re-execution of this
                # epoch (and its ancestors) proceeds normally.
                resolved.add(position)
                target = self._live[-min(self.rollback_depth, len(self._live))]
                self._rollback(target)
                position = target.epoch_pos
                continue
            position += 1
        while self.engine.depth:
            self._commit_oldest()
        self.stats.cycles = self.clock
        self.finalize_bus_stats()
        self.trace_run_end()
        return self.stats

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------

    def _take_checkpoint(self, epoch_pos: int) -> EpochRecord:
        checkpoint_id = self.engine.take_checkpoint()
        self.clock += self.params.checkpoint_overhead_cycles
        record = EpochRecord(epoch_pos, checkpoint_id)
        self._live.append(record)
        self.stats.checkpoints_taken += 1
        if self._m_takes is not None:
            self._m_takes.inc()
        if self.obs_enabled:
            self.trace_event(
                "checkpoint.take",
                checkpoint=checkpoint_id,
                epoch=epoch_pos,
                clock=self.clock,
            )
        self.start_unit_timer(checkpoint_id, self.clock)
        return record

    def _execute_epoch(self, record: EpochRecord, epoch: CheckpointEpoch) -> None:
        # The per-access loop of the substrate: bind the hot attributes
        # once per epoch (engine, cache probe, bus, params, record sets)
        # and inline the address shifts.  The clock must still advance
        # per operation — every bus charge is stamped with it.
        engine = self.engine
        lookup = engine.cache.lookup
        bus_record = self.bus.record
        hit_cycles = self.params.hit_cycles
        miss_cycles = self.params.miss_cycles
        read_words_add = record.read_words.add
        write_words_add = record.write_words.add
        write_lines_add = record.write_lines.add
        for kind, byte_address, value in epoch.ops:
            line_address = byte_address >> LINE_SHIFT
            line = lookup(line_address)
            hit = line is not None
            self.clock += hit_cycles if hit else miss_cycles
            if kind == "load":
                if not hit:
                    bus_record(MessageKind.FILL, now=self.clock, port=0)
                    victim = engine.fill_line(line_address)
                    if victim is not None and victim.dirty:
                        bus_record(
                            MessageKind.WRITEBACK, now=self.clock, port=0
                        )
                    line = lookup(line_address, touch=False)
                # Stale-read oracle: the cached word is the newest view.
                word = byte_address >> WORD_SHIFT
                expected = engine.load(byte_address)
                if line.words[word & 0xF] != expected:
                    raise SimulationError(
                        f"stale read: checkpoint {record.checkpoint_id} sees"
                        f" {line.words[word & 0xF]} at word 0x{word:x}, its"
                        f" newest view is {expected} ({self.scheme.name})"
                    )
                read_words_add(word)
            else:
                if not hit:
                    # The engine fills the line itself; the system only
                    # charges the fill traffic.
                    bus_record(MessageKind.FILL, now=self.clock, port=0)
                writebacks_before = engine.safe_writebacks
                engine.store(byte_address, value)
                for _ in range(engine.safe_writebacks - writebacks_before):
                    bus_record(
                        MessageKind.WRITEBACK, now=self.clock, port=0
                    )
                    self.stats.safe_writebacks += 1
                write_words_add(byte_address >> WORD_SHIFT)
                write_lines_add(line_address)

    def _commit_oldest(self) -> None:
        record = self._live.pop(0)
        packet_bytes = self.scheme.commit_packet(self, record)
        self.clock = self.charge_commit_bus(self.clock, packet_bytes, port=0)
        # Copy before subtracting: write_lines is the record's own
        # incrementally-maintained set, not a fresh property value.
        committed_lines = set(record.write_lines)
        for live in self._live:
            committed_lines -= live.write_lines
        self.engine.commit_oldest()
        # Committed data still cached and not owned by a live epoch
        # becomes non-speculative dirty state; write it back so memory
        # and cache agree (this model keeps them mirrored).
        for line_address in sorted(committed_lines):
            line = self.engine.cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                self.bus.record(MessageKind.WRITEBACK, now=self.clock, port=0)
                self.engine.cache.clean(line_address)
        self.stats.committed_checkpoints += 1
        self.stats.read_set_words += len(record.read_words)
        self.stats.write_set_words += len(record.write_words)
        if self.obs_enabled:
            self.note_commit(
                packet_bytes,
                record.checkpoint_id,
                self.clock,
                checkpoint=record.checkpoint_id,
                epoch=record.epoch_pos,
                write_words=len(record.write_words),
            )
        if self._swap_policy is not None:
            self._maybe_policy_swap(self.clock)

    # ------------------------------------------------------------------
    # Scheme hot-swap
    # ------------------------------------------------------------------

    def _swap_apply(
        self, old: CheckpointScheme, new: CheckpointScheme, now: int
    ) -> int:
        """Rebuild the engine under the incoming scheme by replay.

        Both engines keep exact per-checkpoint write logs, so the
        conversion is lossless in either direction: a fresh engine shares
        the old one's architectural memory, re-takes one checkpoint per
        live epoch (oldest first) and replays that epoch's log through
        its own store path — which rebuilds caches, signatures, and Set
        Restriction state as if the epoch had run under the new scheme.
        The live records and unit timers are remapped to the fresh
        checkpoint ids the replacement engine mints.
        """
        logs = dict(old.export_processor_state(self, None))
        new_engine = new.make_engine(self.params)
        # The architectural state carries over; only the speculative
        # representation is rebuilt.
        new_engine.memory = self.engine.memory
        self.engine = new_engine
        remapped_starts: Dict[int, int] = {}
        for record in self._live:
            new_id = new_engine.take_checkpoint()
            log = logs.get(record.checkpoint_id, {})
            for word in sorted(log):
                new_engine.store(word << WORD_SHIFT, log[word])
            new.import_processor_state(self, None, record)
            start = self._unit_start_clock.pop(record.checkpoint_id, None)
            if start is not None:
                remapped_starts[new_id] = start
            record.checkpoint_id = new_id
        self._unit_start_clock.update(remapped_starts)
        return 0

    def _rollback(self, target: EpochRecord) -> None:
        keep = self._live.index(target)
        discarded_records = self._live[keep:]
        exact_lines: Set[int] = set()
        for record in discarded_records:
            exact_lines |= record.write_lines
        dirty_before = {
            line.line_address
            for line in self.engine.cache.all_lines()
            if line.dirty
        }
        discarded = self.engine.rollback_to(target.checkpoint_id)
        dirty_after = {
            line.line_address
            for line in self.engine.cache.all_lines()
            if line.dirty
        }
        invalidated_lines = dirty_before - dirty_after
        false_invalidated = len(invalidated_lines - exact_lines)
        self.clock += self.params.rollback_overhead_cycles
        del self._live[keep:]
        for record in discarded_records:
            self._unit_start_clock.pop(record.checkpoint_id, None)
        self.stats.rollbacks += 1
        self.stats.squashes += discarded
        self.stats.commit_invalidations += len(invalidated_lines)
        self.stats.false_commit_invalidations += false_invalidated
        if self._m_rollbacks is not None:
            self._m_rollbacks.inc()
        if self.obs_enabled:
            self.note_squash(
                "misprediction",
                checkpoint=target.checkpoint_id,
                epoch=target.epoch_pos,
                discarded=discarded,
                invalidated=len(invalidated_lines),
                false_invalidated=false_invalidated,
                clock=self.clock,
            )
        self.scheme.on_rollback(
            self, discarded, len(invalidated_lines), false_invalidated
        )
