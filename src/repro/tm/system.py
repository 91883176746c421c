"""The TM system simulator: processors, bus, memory, and the run loop.

Execution is trace-driven: each processor steps through its
:class:`~repro.sim.trace.ThreadTrace`, and the system always advances the
processor with the smallest local clock, giving a deterministic
interleaving.  Commits serialise on the bus; squashed transactions rewind
their cursor and re-execute.

Correctness instrumentation
---------------------------
The simulator enforces two oracles while running:

* **Stale-read detection** — every load's cached value must equal the
  value the thread is architecturally allowed to observe (its own write
  log, else committed memory).  Any bug in commit invalidation, squash
  invalidation, or non-speculative invalidation trips this immediately.
* **Serialisability by construction check** — committed write logs are
  applied to a single architectural :class:`~repro.mem.memory.WordMemory`
  in commit order; tests replay the recorded commit order serially and
  require identical final memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.coherence.message import MessageKind
from repro.errors import SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT
from repro.mem.memory import WordMemory, overlay_log
from repro.obs import Observability
from repro.sim.trace import EventKind, ThreadTrace
from repro.spec.system import SpecSystemCore
from repro.tm.conflict import TmScheme
from repro.tm.params import TM_DEFAULTS, TmParams
from repro.tm.processor import TmProcessor
from repro.tm.stats import TmStats
from repro.tm.txstate import TxnState

#: One Figure 15 sample: (committed write set, receiver read set, receiver
#: write set) of a disambiguation whose exact dependence set was empty.
DisambiguationSample = Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]

# Enum members as globals: a member is a metaclass attribute lookup, and
# _step tests up to five kinds per event.
_LOAD, _STORE, _COMPUTE = EventKind.LOAD, EventKind.STORE, EventKind.COMPUTE
_TX_BEGIN, _TX_END = EventKind.TX_BEGIN, EventKind.TX_END
_FILL, _NACK, _WRITEBACK, _INVALIDATION = (
    MessageKind.FILL, MessageKind.NACK, MessageKind.WRITEBACK, MessageKind.INVALIDATION
)


def _stale(proc: TmProcessor, epoch: int) -> bool:
    """A heap entry is stale once its processor finished, was re-queued
    under a new epoch, or stalls behind another transaction."""
    return proc.done or epoch != proc.epoch or proc.waiting_on is not None


def _requeue(proc: TmProcessor) -> bool:
    """A processor steps again unless it finished or stalls."""
    return not proc.done and proc.waiting_on is None


@dataclass
class TmRunResult:
    """Everything a finished TM run exposes."""

    scheme: str
    cycles: int
    stats: TmStats
    memory: WordMemory
    #: txn ids in global commit order (the serialisation witness).
    commit_order: List[int] = field(default_factory=list)
    #: Figure 15 samples, if collection was enabled.
    samples: List[DisambiguationSample] = field(default_factory=list)


class TmSystem(SpecSystemCore):
    """An 8-processor (by default) TM machine running one scheme."""

    def __init__(
        self,
        traces: Sequence[ThreadTrace],
        scheme: TmScheme,
        params: TmParams = TM_DEFAULTS,
        collect_samples: bool = False,
        max_samples: int = 4000,
        obs: Optional[Observability] = None,
        policy: Optional[str] = None,
    ) -> None:
        if not traces:
            raise SimulationError("a TM system needs at least one thread trace")
        self.scheme = scheme
        self.memory = WordMemory()
        # Bus, observability unpacking, and the shared instruments
        # (tm.commits / tm.commit_packet_bytes / tm.txn_cycles) come from
        # the substrate core; only TM-specific counters are wired here.
        self._init_spec_core(params, obs, prefix="tm", unit_timer="tm.txn_cycles")
        if self.metrics is not None:
            self._m_txn_begins = self.metrics.counter("tm.txn_begins")
            self._m_overflow = self.metrics.counter("tm.overflow_accesses")
        else:
            self._m_txn_begins = None
            self._m_overflow = None
        self.stats = TmStats()
        self.processors: List[TmProcessor] = [
            TmProcessor(pid, trace, params.geometry)
            for pid, trace in enumerate(traces)
        ]
        # SMT-style cores: consecutive hardware threads share one cache
        # (and, for Bulk, one BDM — multiple version contexts at once).
        if params.threads_per_core > 1:
            from repro.tm.bulk import BulkScheme as _BulkScheme

            if not isinstance(scheme, _BulkScheme):
                raise SimulationError(
                    "threads_per_core > 1 requires the Bulk scheme: a "
                    "conventional multi-versioned cache needs per-line "
                    "version IDs and multiple copies per line, which the "
                    "unmodified cache model deliberately lacks"
                )
            for proc in self.processors:
                first = self.processors[
                    (proc.pid // params.threads_per_core)
                    * params.threads_per_core
                ]
                proc.cache = first.cache
        self.share_directory()
        self.collect_samples = collect_samples
        self.max_samples = max_samples
        self.samples: List[DisambiguationSample] = []
        self.commit_order: List[int] = []
        #: Logs of committed (txn id -> write log) in commit order, used
        #: by the serialisability oracle.
        self.committed_logs: List[Tuple[int, Dict[int, int]]] = []
        scheme.setup(self)
        for proc in self.processors:
            scheme.setup_processor(self, proc)
        self.attach_swap_policy(policy)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> TmRunResult:
        """Execute every trace to completion and return the results."""
        self.trace_run_begin(
            "tm",
            processors=len(self.processors),
            events=sum(len(p.trace.events) for p in self.processors),
        )
        scheduler = self.open_scheduler()
        for proc in self.processors:
            if proc.at_end():
                proc.done = True
            else:
                scheduler.push(proc.clock, proc.pid, proc.epoch)
        self._bind_hooks()
        self.drain(self._step, _stale, _requeue)

        stuck = [p.pid for p in self.processors if not p.done]
        if stuck:
            raise SimulationError(
                f"TM simulation deadlocked; processors {stuck} never finished"
            )
        self.stats.cycles = max(proc.clock for proc in self.processors)
        self.finalize_bus_stats()
        self.trace_run_end()
        return TmRunResult(
            scheme=self.scheme.name,
            cycles=self.stats.cycles,
            stats=self.stats,
            memory=self.memory,
            commit_order=self.commit_order,
            samples=self.samples,
        )

    def _bind_hooks(self) -> None:
        """Bind the per-access hooks (at run start and after a swap); one
        the scheme inherits as TmScheme's no-op binds to ``None``."""
        scheme = self.scheme
        hooks = []
        for name in ("eager_check", "prepare_store", "record_load", "record_store"):
            hook = getattr(scheme, name)
            inherited = getattr(hook, "__func__", None) is getattr(TmScheme, name)
            hooks.append(None if inherited else hook)
        self._store_check, self._prepare_store = hooks[0], hooks[1]
        self._record_load, self._record_store = hooks[2], hooks[3]
        self._load_check = hooks[0] if scheme.eager_checks_loads else None

    # ------------------------------------------------------------------
    # One step of one processor
    # ------------------------------------------------------------------

    def _step(self, proc: TmProcessor) -> None:
        events = proc.trace.events
        event = events[proc.cursor]
        kind = event.kind
        # Branches ordered by frequency: memory accesses dominate every
        # workload, then compute bursts, then the rare txn markers.  The
        # access pre-check (formerly a separate _access method) is
        # inlined into both branches: it sat two frames deep on the
        # hottest path of the whole simulator.
        if kind is _LOAD:
            check = self._load_check
            if check is not None and proc.txn is not None:
                stall_on = check(self, proc, event.address, False)
                if stall_on is not None:
                    self._note_stall(proc, stall_on)
                    return
            self._load(proc, event.address)
            proc.cursor += 1
        elif kind is _STORE:
            check = self._store_check
            if check is not None and proc.txn is not None:
                stall_on = check(self, proc, event.address, True)
                if stall_on is not None:
                    self._note_stall(proc, stall_on)
                    return
            self._store(proc, event.address, event.value)
            proc.cursor += 1
        elif kind is _COMPUTE:
            proc.clock += event.cycles
            proc.cursor += 1
        elif kind is _TX_BEGIN:
            self._begin(proc)
        elif kind is _TX_END:
            self._end(proc)
        else:  # pragma: no cover - exhaustive over EventKind
            raise SimulationError(f"unhandled event kind {kind!r}")
        if proc.cursor >= proc.num_events and proc.txn is None:
            proc.done = True
            self._release_waiters(proc, proc.clock)

    def _begin(self, proc: TmProcessor) -> None:
        if proc.txn is None:
            proc.txn = TxnState(
                proc.fresh_txn_id(),
                start_cursor=proc.cursor,
                signature_config=self._signature_config_for_txns(),
                sig_backend=self._backend_for_txns(),
            )
            self.scheme.on_txn_begin(self, proc)
            proc.clock += self.params.begin_overhead_cycles
            if self._m_txn_begins is not None:
                self._m_txn_begins.inc()
            self.start_unit_timer(proc.pid, proc.clock)
            if self.tracer is not None:
                self.tracer.emit(
                    "txn.begin",
                    proc=proc.pid,
                    txn=proc.txn.txn_id,
                    clock=proc.clock,
                )
        else:
            proc.txn.depth += 1
            if self.params.partial_rollback:
                proc.txn.push_section(proc.cursor + 1)
                self.scheme.on_inner_begin(self, proc)
        proc.cursor += 1

    def _signature_config_for_txns(self):
        from repro.tm.bulk import BulkScheme

        if isinstance(self.scheme, BulkScheme):
            return self.params.signature_config
        return None

    def _backend_for_txns(self):
        from repro.tm.bulk import BulkScheme

        if isinstance(self.scheme, BulkScheme):
            return self.resolve_sig_backend()
        return None

    def _end(self, proc: TmProcessor) -> None:
        if proc.txn is None:
            raise SimulationError(f"TX_END with no open transaction on {proc.pid}")
        if proc.txn.depth > 1:
            proc.txn.depth -= 1
            if self.params.partial_rollback:
                proc.txn.push_section(proc.cursor + 1)
                self.scheme.on_inner_end(self, proc)
            proc.cursor += 1
            return
        self._commit(proc)

    # ------------------------------------------------------------------
    # Memory accesses
    # ------------------------------------------------------------------

    def _note_stall(self, proc: TmProcessor, stall_on: int) -> None:
        """An eager check named a conflicting pid: stall behind it, or
        retry next cycle if its transaction is already gone.  The caller
        returns without running the access or advancing the cursor."""
        target = self.processors[stall_on]
        if target.txn is None or target.done:
            proc.clock += 1
            return
        proc.waiting_on = stall_on
        target.waiters.append(proc.pid)

    def _spec_writer_of_line(self, cache, line_address: int) -> Optional[TmProcessor]:
        """The thread whose live transaction wrote a line held in
        ``cache`` (the thread itself or, in an SMT core, a co-resident
        one), or ``None`` if the dirty line is non-speculative."""
        for candidate in self.processors:
            if candidate.cache is not cache:
                continue
            if candidate.txn is not None and line_address in (
                candidate.txn.all_write_lines()
            ):
                return candidate
        return None

    def _coresident_spec_owner(
        self, proc: TmProcessor, line_address: int
    ) -> Optional[TmProcessor]:
        """The co-resident hardware thread whose transaction wrote a line
        of the shared cache, if any (only possible with SMT cores)."""
        if self.params.threads_per_core <= 1:
            return None
        writer = self._spec_writer_of_line(proc.cache, line_address)
        if writer is proc:
            return None
        return writer

    def _load(self, proc: TmProcessor, byte_address: int) -> None:
        # Shifts inlined (== byte_to_word / byte_to_line): per-access path.
        word = byte_address >> WORD_SHIFT
        line_address = byte_address >> LINE_SHIFT
        line = proc.cache.lookup(line_address)
        if line is not None and line.dirty and (
            self._coresident_spec_owner(proc, line_address) is not None
        ):
            # The shared cache holds a co-resident thread's speculative
            # version.  The BDM screens the request (the set is covered
            # by another context's delta(W)) and nacks it; the committed
            # value is served from memory without disturbing the cached
            # speculative line (Section 4.5's external-request rule,
            # applied within the core).
            proc.clock += self.params.miss_cycles
            self.bus.record(_NACK, now=proc.clock, port=proc.pid)
            self.bus.record(_FILL, now=proc.clock, port=proc.pid)
        elif line is not None:
            proc.clock += self.params.hit_cycles
            observed = line.words[word & 0xF]  # == line.read_word(word)
            # The stale-read oracle only matters on hits: the nack path
            # serves from memory and the miss path rebuilds the line from
            # memory + the thread's own log.  Expected: the thread's own
            # newest write (lookup_word, single section open-coded), else
            # committed memory.
            txn = proc.txn
            if txn is None:
                expected = None
            elif len(txn.sections) == 1:
                expected = txn.sections[0].write_log.get(word)
            else:
                expected = txn.lookup_word(word)
            if expected is None:
                expected = self.memory.load(word)
            if observed != expected:
                raise SimulationError(
                    f"stale read: proc {proc.pid} loads word 0x{word:x} and "
                    f"sees {observed}, architecture requires {expected} "
                    f"(scheme {self.scheme.name})"
                )
        else:
            self._miss_fill(proc, byte_address, line_address)
        txn = proc.txn
        if txn is not None:
            # == txn.record_load(byte_address)
            txn.sections[-1].read_granules.add(line_address)
            txn._agg_read.add(line_address)
            record = self._record_load
            if record is not None:
                record(self, proc, byte_address)

    def _store(self, proc: TmProcessor, byte_address: int, value: int) -> None:
        line_address = byte_address >> LINE_SHIFT
        txn = proc.txn
        if txn is not None:
            prepare = self._prepare_store
            if prepare is not None:
                prepare(self, proc, line_address)
            line = proc.cache.lookup(line_address)
            if line is not None:
                proc.clock += self.params.hit_cycles
            else:
                line = self._miss_fill(proc, byte_address, line_address)
            # == line.write_word(byte_address >> WORD_SHIFT, value)
            line.words[(byte_address >> WORD_SHIFT) & 0xF] = value & 0xFFFFFFFF
            line.dirty = True
            txn.record_store(byte_address, value)
            record = self._record_store
            if record is not None:
                record(self, proc, byte_address)
            return
        # Non-speculative store: globally visible immediately.
        self._nonspec_store(proc, byte_address, value, line_address)

    def _nonspec_store(
        self, proc: TmProcessor, byte_address: int, value: int, line_address: int
    ) -> None:
        word = byte_address >> WORD_SHIFT
        if self.params.threads_per_core > 1:
            # A non-speculative dirty line must not join a cache set
            # owned by a co-resident thread's speculative context (the
            # Set Restriction also binds non-speculative writers,
            # Section 4.3); the speculative owner is squashed.
            from repro.tm.bulk import BulkScheme as _BulkScheme

            if isinstance(self.scheme, _BulkScheme):
                bdm = self.scheme.bdm_of(proc)
                set_index = self.params.geometry.set_index(line_address)
                owner = bdm.speculative_owner_of_set(set_index)
                if owner is not None and owner.owner != proc.pid:
                    self.squash_preempted_context(proc, owner)
        self.memory.store(word, value)
        line = proc.cache.lookup(line_address)
        if line is not None:
            proc.clock += self.params.hit_cycles
        else:
            line = self._miss_fill(proc, byte_address, line_address)
        line.write_word(word, value)
        # Squash remote transactions that touched the address (the
        # scheme yields them in pid order, one at a time), then
        # invalidate remote copies.
        for other in self.scheme.nonspec_victims(self, proc, byte_address):
            exact = (
                line_address in other.txn.all_read_granules()
                or line_address in other.txn.all_write_granules()
            )
            self.squash(
                victim=other,
                from_section=0,
                now=proc.clock,
                dependence_granules=1 if exact else 0,
                false_positive=not exact,
                cause="nonspec-store",
            )
        if self.invalidate_remote_copies(proc.cache, line_address):
            self.bus.record(_INVALIDATION, now=proc.clock, port=proc.pid)

    def _miss_fill(self, proc: TmProcessor, byte_address: int, line_address: int):
        """Service a miss: overflow area first (if the scheme says so),
        else memory, with coherence charges.  Returns the filled line."""
        proc.clock += self.params.miss_cycles
        if proc.txn is not None and self.scheme.miss_checks_overflow(
            self, proc, byte_address
        ):
            proc.clock += self.params.overflow_access_cycles
            self.charge_overflow_access(1)
            assert proc.overflow_area is not None
            data = proc.overflow_area.lookup(line_address)
            if data is not None:
                victim = proc.cache.fill(line_address, data, dirty=True)
                self._handle_victim(proc, victim)
                line = proc.cache.lookup(line_address, touch=False)
                assert line is not None
                return line
        words = list(self.memory.load_line(line_address))
        dirty = False
        if proc.txn is not None and line_address in proc.txn.all_write_lines():
            # Overlay the thread's own speculative values (a line may have
            # been partially written, evicted, and refetched).  The
            # write-lines test gates the 16-word merge: log keys' lines
            # are exactly the write-lines set, so an uncovered line has
            # nothing to overlay.
            dirty = overlay_log(words, proc.txn.merged_write_log(), line_address)
        self.charge_fill_coherence(proc, line_address)
        victim = proc.cache.fill(line_address, words, dirty=dirty)
        self._handle_victim(proc, victim)
        line = proc.cache.lookup(line_address, touch=False)
        assert line is not None
        return line

    def _speculative_dirty(self, holder: TmProcessor, line_address: int) -> bool:
        """Whether a live transaction on ``holder``'s cache (possibly a
        co-resident thread's, in an SMT core) wrote the line."""
        return self._spec_writer_of_line(holder.cache, line_address) is not None

    def _handle_victim(self, proc: TmProcessor, victim) -> None:
        if victim is None or not victim.dirty:
            return
        # The speculative owner may be this thread or (in an SMT core) a
        # co-resident thread sharing the cache.
        owner: Optional[TmProcessor] = None
        if proc.txn is not None and victim.line_address in (
            proc.txn.all_write_lines()
        ):
            owner = proc
        else:
            owner = self._coresident_spec_owner(proc, victim.line_address)
        if owner is not None:
            area = owner.ensure_overflow_area()
            area.spill(victim.line_address, victim.snapshot_words())
            self.charge_overflow_access(1)
            self.scheme.on_spec_eviction(self, owner)
        else:
            self.bus.record(_WRITEBACK, now=proc.clock, port=proc.pid)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self, proc: TmProcessor) -> None:
        txn = proc.txn
        assert txn is not None
        packet_bytes = self.scheme.commit_packet(self, proc)
        proc.clock = self.charge_commit_bus(
            proc.clock, packet_bytes, port=proc.pid
        )
        now = proc.clock

        self.stats.committed_transactions += 1
        self.stats.read_set_granules += len(txn.all_read_granules())
        self.stats.write_set_granules += len(txn.all_write_granules())
        if proc.has_overflow():
            self.stats.overflowed_transactions += 1
        if self.obs_enabled:
            self.note_commit(
                packet_bytes,
                proc.pid,
                now,
                proc=proc.pid,
                txn=txn.txn_id,
                write_granules=len(txn.all_write_granules()),
            )

        committed_writes = txn.all_write_granules()
        self.scheme.on_commit_broadcast(self, proc)
        updated_caches = {id(proc.cache)}
        for other in self.processors:
            if other is proc:
                continue
            if other.txn is not None:
                if other.has_overflow():
                    self.scheme.overflow_disambiguation_cost(self, proc, other)
                # A ∩ (R ∪ W) without allocating the (large) R ∪ W union:
                # the committed write set is the small operand.
                exact_dep = (committed_writes & other.txn.all_read_granules()) | (
                    committed_writes & other.txn.all_write_granules()
                )
                section = self.scheme.receiver_conflict(self, proc, other)
                if (
                    self.collect_samples
                    and not exact_dep
                    and len(self.samples) < self.max_samples
                ):
                    self.samples.append(
                        (
                            frozenset(committed_writes),
                            frozenset(other.txn.all_read_granules()),
                            frozenset(other.txn.all_write_granules()),
                        )
                    )
                if section is not None:
                    self.squash(
                        victim=other,
                        from_section=section,
                        now=now,
                        dependence_granules=len(exact_dep),
                        false_positive=not exact_dep,
                    )
            # Commit invalidation runs once per *cache*: a co-resident
            # thread shares the committer's own cache (whose lines are
            # the freshly committed data), and receiver threads sharing
            # a core must not invalidate their common cache twice.
            if id(other.cache) not in updated_caches:
                updated_caches.add(id(other.cache))
                self.scheme.commit_update_receiver(self, proc, other)

        # Make the transaction's state architectural, in section order.
        # One merge serves both the store replay and the serialisability
        # log; the transaction is torn down below, so the dict is final.
        merged_log = txn.merged_write_log()
        for word, value in merged_log.items():
            self.memory.store(word, value)
        self.committed_logs.append((txn.txn_id, merged_log))
        self.commit_order.append(txn.txn_id)

        # Propagate the committed data: the writeback of each written
        # line happens at commit (its cached copy turns clean).  Keeping
        # committed lines dirty would make every *later* transaction's
        # first store to their cache sets pay a Set Restriction safe
        # writeback — far beyond the ~1/transaction the paper reports.
        for line_address in txn.all_write_lines():
            line = proc.cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                self.bus.record(_WRITEBACK, now=now, port=proc.pid)
                proc.cache.clean(line_address)

        if proc.overflow_area is not None and proc.overflow_area.allocated:
            drained = proc.overflow_area.drain()
            if drained:
                self.charge_overflow_access(len(drained))
            proc.overflow_area = None

        self.scheme.commit_cleanup(self, proc)
        proc.txn = None
        proc.cursor += 1
        self._release_waiters(proc, now)
        if self._swap_policy is not None:
            self._maybe_policy_swap(now)

    # ------------------------------------------------------------------
    # Squash
    # ------------------------------------------------------------------

    def squash(
        self,
        victim: TmProcessor,
        from_section: int,
        now: int,
        dependence_granules: int,
        false_positive: bool,
        cause: str = "commit-conflict",
    ) -> None:
        """Squash (or partially roll back) a transaction and restart it.

        ``cause`` labels the squash for the event trace and per-cause
        metrics: ``commit-conflict`` (bulk/lazy disambiguation at a
        commit), ``eager-conflict`` (an eager scheme's per-access check),
        ``nonspec-store`` (a non-speculative store hit the victim's
        sets), or ``set-restriction`` (a (0,1) Set Restriction conflict).
        It has no effect on simulation behaviour.
        """
        txn = victim.txn
        if txn is None:
            raise SimulationError(f"squash of idle processor {victim.pid}")
        self.stats.squashes += 1
        if false_positive:
            self.stats.false_positive_squashes += 1
        self.stats.dependence_granules += dependence_granules
        per_proc = self.stats.squashes_by_processor
        per_proc[victim.pid] = per_proc.get(victim.pid, 0) + 1
        if self.obs_enabled:
            self.note_squash(
                cause,
                count_false_positive=false_positive,
                victim=victim.pid,
                txn=txn.txn_id,
                false_positive=false_positive,
                dependence_granules=dependence_granules,
                from_section=from_section,
                clock=now,
            )

        partial = self.params.partial_rollback and from_section > 0
        self.scheme.squash_cleanup(self, victim, from_section if partial else 0)
        if partial:
            victim.cursor = txn.discard_sections_from(from_section)
            txn.attempts += 1
        else:
            txn.reset_for_restart()
            victim.cursor = txn.start_cursor + 1
        if txn.attempts > self.params.max_attempts_per_txn:
            raise SimulationError(
                f"transaction on processor {victim.pid} restarted "
                f"{txn.attempts} times — livelock (scheme {self.scheme.name})"
            )
        if victim.overflow_area is not None and victim.overflow_area.allocated:
            if not victim.overflow_area.is_empty():
                self.charge_overflow_access(1)
            victim.overflow_area.deallocate()
            victim.overflow_area = None

        victim.clock = max(victim.clock, now) + self.params.squash_overhead_cycles
        victim.epoch += 1
        victim.waiting_on = None
        # The txn timer measures the *attempt* that commits; restart the
        # measurement at the replay's start.
        self.start_unit_timer(victim.pid, victim.clock)
        if self._scheduler is not None:
            self._scheduler.push(victim.clock, victim.pid, victim.epoch)
        self._release_waiters(victim, victim.clock)

    def squash_preempted_context(self, proc: TmProcessor, context) -> None:
        """Resolve a Set Restriction (0,1) conflict: another version
        context (a co-resident hardware thread's transaction) owns dirty
        lines in the set this thread wants to write.  Of the paper's
        resolution options (preempt, squash the owner, merge), the
        evaluated one squashes the owning speculative thread."""
        if context.owner is None or not (
            0 <= context.owner < len(self.processors)
        ):
            raise SimulationError(
                "Set Restriction conflict against a context with no "
                "resolvable owner"
            )
        victim = self.processors[context.owner]
        if victim.txn is None:
            raise SimulationError(
                f"Set Restriction conflict against idle thread {victim.pid}"
            )
        self.squash(
            victim=victim,
            from_section=0,
            now=proc.clock,
            dependence_granules=0,
            false_positive=False,
            cause="set-restriction",
        )

    # ------------------------------------------------------------------
    # Scheme hot-swap
    # ------------------------------------------------------------------

    def _swap_check(self, entry) -> None:
        if self.params.threads_per_core > 1:
            from repro.errors import SchemeSwapError

            raise SchemeSwapError(
                "tm", self.scheme.name, entry.name,
                "threads_per_core > 1 pins the Bulk scheme for the whole "
                "run (co-resident hardware threads share one BDM)",
            )

    def _swap_clock(self) -> int:
        return max(proc.clock for proc in self.processors)

    def _swap_apply(self, old: TmScheme, new: TmScheme, now: int) -> int:
        """Quiesce in-flight transactions and exchange the scheme.

        Signature state cannot be enumerated back into exact sets, so a
        swap *away* from a signature scheme conservatively squashes every
        open transaction — under the old scheme, whose cleanup hooks
        still own the BDM contexts.  Exact state survives: live
        transactions keep their sections and the incoming scheme rebuilds
        its own representation from them (total in the exact → signature
        direction).
        """
        squashed = 0
        if old.state_kind == "signature":
            for proc in self.processors:
                if proc.txn is not None:
                    self.squash(
                        victim=proc,
                        from_section=0,
                        now=now,
                        dependence_granules=0,
                        false_positive=False,
                        cause="swap",
                    )
                    squashed += 1
        exports = {
            proc.pid: old.export_processor_state(self, proc)
            for proc in self.processors
        }
        for proc in self.processors:
            old.teardown_processor(self, proc)
        self.scheme = new
        self._bind_hooks()
        new.setup(self)
        for proc in self.processors:
            new.setup_processor(self, proc)
        # Live transactions must match the incoming scheme's section
        # shape: Bulk sections carry signatures (and squashes rebuild
        # sections from the stored config), exact sections need none.
        config = self._signature_config_for_txns()
        backend = self._backend_for_txns()
        for proc in self.processors:
            txn = proc.txn
            if txn is None:
                continue
            txn.signature_config = config
            txn.sig_backend = backend
            if config is not None:
                for section in txn.sections:
                    section.ensure_signatures(config, backend)
        for proc in self.processors:
            new.import_processor_state(self, proc, exports[proc.pid])
        return squashed

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def charge_overflow_access(self, count: int) -> None:
        """Account ``count`` overflow-area accesses (bus UB + stats)."""
        for _ in range(count):
            self.bus.record(MessageKind.OVERFLOW_ACCESS)
        self.stats.overflow_area_accesses += count
        if self._m_overflow is not None:
            self._m_overflow.inc(count)
        if self.tracer is not None:
            self.tracer.emit("overflow", accesses=count)

    def _release_waiters(self, proc: TmProcessor, now: int) -> None:
        if not proc.waiters:
            return
        waiters, proc.waiters = proc.waiters, []
        for pid in waiters:
            waiter = self.processors[pid]
            if waiter.done:
                continue
            waiter.waiting_on = None
            waiter.clock = max(waiter.clock, now) + 1
            waiter.epoch += 1
            if self._scheduler is not None:
                self._scheduler.push(waiter.clock, waiter.pid, waiter.epoch)

    def replay_serial_reference(self) -> WordMemory:
        """Re-apply the committed write logs in commit order to a fresh
        memory — the atomicity witness tests compare against.

        Words only ever written non-transactionally are excluded (they
        are applied at execution time, which this replay does not model);
        tests restrict the comparison to transactional words or use
        workloads without non-transactional stores.
        """
        reference = WordMemory()
        for _, log in self.committed_logs:
            for word, value in log.items():
                reference.store(word, value)
        return reference
