"""Machinery shared by the substrate system simulators.

``TmSystem`` and ``TlsSystem`` grew the same plumbing twice: the bus and
observability wiring, commit and squash accounting, unit timers, Set
Restriction writebacks, and underneath the protocols the machine itself
— a min-clock scheduler drained in ``(clock, pid, epoch)`` order and
private caches kept coherent through a line-holder directory.
:class:`SpecSystemCore` is all of that once; the substrate systems
inherit it and keep only the protocol logic that genuinely differs.

The run loop is :meth:`SpecSystemCore.drain`: a substrate supplies its
step, stale-entry test and requeue decision, and TLS also the in-order
commit gate run before every step.  The single-processor checkpoint
substrate has no scheduler and uses only the accounting.  Every helper
emits the same metric names and trace events, in the same order, as the
code it replaced.

Subclasses call :meth:`_init_spec_core` from their constructor after
setting ``self.scheme``, and must provide a ``stats`` object whose class
derives from :class:`~repro.spec.stats.SpecStats` (the ``commits``
accessor feeds the ``run.end`` event).  Systems that drain or share a
directory keep ``self.processors``, indexed by pid.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Iterator, Optional

from repro.coherence.message import BandwidthCategory, MessageKind
from repro.interconnect import DEFAULT_INTERCONNECT, TimedBus, build_bus
from repro.obs import Observability
from repro.sim.engine import MinClockScheduler


class SpecSystemCore:
    """Shared bus, run loop, line-holder directory and obs helpers."""

    #: A fill's reply from a remote *speculative* dirty copy: TM nacks
    #: (memory serves the committed version); TLS forwards the data.
    speculative_fill_reply = MessageKind.NACK

    def _init_spec_core(
        self,
        params: Any,
        obs: Optional[Observability],
        *,
        prefix: str,
        unit_timer: str,
    ) -> None:
        """Wire the bus and the always-present instruments.

        ``prefix`` namespaces the substrate's metrics (``"tm"`` produces
        ``tm.commits``, ``tm.squashes``, ...); ``unit_timer`` names the
        begin-to-commit cycle timer (``tm.txn_cycles``,
        ``tls.task_cycles``, ``checkpoint.epoch_cycles``).
        """
        self.params = params
        self._spec_prefix = prefix
        self.metrics = obs.metrics if obs is not None else None
        self.tracer = obs.tracer if obs is not None else None
        #: The obs fast-path switch: hot call sites check this one flag
        #: before *building* the keyword arguments for note_* / trace
        #: helpers, so the default (untraced, unmetered) configuration
        #: never pays for formatting work nobody will see.  The
        #: Observability bundle always carries both instruments, so one
        #: flag covers metrics and tracer exactly.
        self.obs_enabled = obs is not None
        self.bus = build_bus(
            getattr(params, "interconnect", DEFAULT_INTERCONNECT),
            commit_occupancy_cycles=params.commit_occupancy_cycles,
            bytes_per_cycle=params.bus_bytes_per_cycle,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        if self.metrics is not None:
            self._m_commits = self.metrics.counter(f"{prefix}.commits")
            self._m_packet = self.metrics.histogram(
                f"{prefix}.commit_packet_bytes"
            )
            self._m_unit_cycles = self.metrics.timer(unit_timer)
        else:
            self._m_commits = None
            self._m_packet = None
            self._m_unit_cycles = None
        # Unit key (pid or task id) -> clock at begin/dispatch, for the
        # begin-to-commit timer.  Only populated when metrics are on.
        self._unit_start_clock: Dict[int, int] = {}
        # Hot-swap state.  ``_swap_policy is None`` is the fast path every
        # commit boundary checks; static runs never get past it, so the
        # refactor costs the default configuration one attribute load.
        self._swap_policy = None
        self._policy_view = None
        self._swap_tracking = False
        self._swap_count = 0
        self._resident_since = 0
        self._resident_cycles: Dict[str, int] = {}
        #: The run's scheduler while :meth:`drain` runs, else ``None``.
        self._scheduler: Optional[MinClockScheduler] = None

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def open_scheduler(self) -> MinClockScheduler:
        """Start a run's scheduler; queue the first steps on it, then
        call :meth:`drain`."""
        self._scheduler = MinClockScheduler(self.metrics)
        return self._scheduler

    def drain(
        self,
        step: Callable[[Any], None],
        stale: Callable[[Any, int], bool],
        requeue: Callable[[Any], bool],
        gate: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Step processors in ``(clock, pid, epoch)`` order until the
        scheduler's heap is empty.

        A popped entry runs ``gate(clock)`` (if given), is skipped and
        counted when ``stale(proc, epoch)``, else steps its processor.
        While ``requeue(proc)`` (which may bump the epoch) asks for
        another step and the new entry would pop straight back off the
        heap, the processor keeps stepping, gate and stale test
        included; each such entry counts as a push.  Mid-step pushes go
        through ``self._scheduler.push`` into the same heap.
        """
        scheduler = self._scheduler
        heap = scheduler._heap
        processors = self.processors
        push, pop = heapq.heappush, heapq.heappop
        pushes = stale_pops = 0
        while heap:
            clock, pid, epoch = pop(heap)
            proc = processors[pid]
            if gate is not None:
                gate(clock)
            if stale(proc, epoch):
                stale_pops += 1
                continue
            step(proc)
            while requeue(proc):
                entry = (proc.clock, pid, proc.epoch)
                pushes += 1
                if heap and not entry < heap[0]:
                    push(heap, entry)
                    break
                if gate is not None:
                    gate(entry[0])
                    if stale(proc, entry[2]):
                        stale_pops += 1
                        break
                step(proc)
        scheduler.account_bulk(pushes, stale_pops)
        self._scheduler = None

    # ------------------------------------------------------------------
    # Line-holder directory
    # ------------------------------------------------------------------

    def share_directory(self) -> None:
        """Give the processors' caches one line-holder directory.

        A cache shared by several processors (SMT cores) owns the bit of
        its lowest pid, so :meth:`_holders` visits holders in ascending
        pid order.  Call after the caches are assigned.
        """
        self.directory: Dict[int, int] = {}
        for proc in reversed(self.processors):
            proc.cache.directory = self.directory
            proc.cache.directory_bit = 1 << proc.pid

    def _holders(self, cache: Any, line_address: int) -> Iterator[Any]:
        """The processors whose caches, other than ``cache``, hold a
        line, in ascending pid order (one per distinct cache)."""
        holders = self.directory.get(line_address, 0) & ~cache.directory_bit
        processors = self.processors
        while holders:
            low = holders & -holders
            holders ^= low
            yield processors[low.bit_length() - 1]

    def charge_fill_coherence(self, proc: Any, line_address: int) -> None:
        """Charge a miss fill and the read of a line dirty in a remote
        cache; the first dirty holder answers.

        A *non-speculative* dirty copy (committed data, which mirrors
        memory in this model) is downgraded to clean, so a line a
        committer wrote can never still be dirty non-speculative in
        another cache (Bulk's commit-side invalidation argument, Section
        4.3).  A speculative dirty copy (``_speculative_dirty``) stays
        dirty, its owner's log backing it.
        """
        now, port = proc.clock, proc.pid
        self.bus.record(MessageKind.FILL, now=now, port=port)
        for holder in self._holders(proc.cache, line_address):
            remote = holder.cache.lookup(line_address, touch=False)
            if remote is None or not remote.dirty:
                continue
            if self._speculative_dirty(holder, line_address):
                self.bus.record(self.speculative_fill_reply, now=now, port=port)
            else:
                self.bus.record(MessageKind.DOWNGRADE, now=now, port=port)
                holder.cache.clean(line_address)
            break

    def invalidate_remote_copies(self, cache: Any, line_address: int) -> bool:
        """Invalidate other caches' copies of a line; whether any existed."""
        remotes = list(self._holders(cache, line_address))
        for remote in remotes:
            remote.cache.invalidate(line_address)
        return bool(remotes)

    # ------------------------------------------------------------------
    # Signature backend
    # ------------------------------------------------------------------

    def resolve_sig_backend(self) -> Any:
        """The params' signature backend, resolved once per system.

        Reads the ``sig_backend`` knob (``"packed"`` when the substrate's
        params predate it) through the backend registry; a fallback
        resolution (numpy unavailable) warns through the run's tracer
        when one is attached, else through :mod:`warnings`.
        """
        backend = getattr(self, "_sig_backend", None)
        if backend is None:
            from repro.core.backend import (
                DEFAULT_BACKEND_NAME,
                resolve_backend,
            )

            name = getattr(self.params, "sig_backend", DEFAULT_BACKEND_NAME)
            warn = self.tracer.warn if self.tracer is not None else None
            backend = self._sig_backend = resolve_backend(name, warn=warn)
        return backend

    # ------------------------------------------------------------------
    # Scheme hot-swap
    # ------------------------------------------------------------------

    def attach_swap_policy(self, spec: Optional[str]) -> None:
        """Parse and attach a swap policy for this run.

        ``None`` and ``"static"`` attach nothing — the commit-boundary
        hook stays on its zero-cost fast path and the run is
        byte-identical to a policy-less build.  Anything else becomes a
        fresh :class:`~repro.spec.policy.SwapPolicy` consulted at every
        commit boundary through :meth:`_maybe_policy_swap`.
        """
        from repro.spec.policy import PolicyView, parse_policy

        policy = parse_policy(spec)
        if policy is None:
            return
        if self._resident_entry_is_variant():
            # A parameter variant's overrides (e.g. Bulk-Partial's
            # partial_rollback) were baked into the run's params at
            # construction: no other registry entry is a legal swap
            # target, and swapping back onto the variant is illegal by
            # definition.  Variant runs are therefore pinned static.
            return
        self._swap_policy = policy
        self._policy_view = PolicyView(self)
        self._swap_tracking = True

    def _resident_entry_is_variant(self) -> bool:
        """Whether the resident scheme is a registered parameter variant.

        Schemes the registry does not know (dynamically constructed test
        schemes) count as non-variants.
        """
        from repro.errors import UnknownSchemeError
        from repro.spec.registry import scheme_entry

        try:
            entry = scheme_entry(self._spec_prefix, self.scheme.name)
        except UnknownSchemeError:
            return False
        return bool(entry.params)

    def swap_scheme(
        self,
        name: str,
        at_commit_boundary: bool = True,
        *,
        now: Optional[int] = None,
        reason: str = "manual",
    ) -> bool:
        """Exchange the running scheme for registry entry ``name``.

        The swap quiesces in-flight speculation first: state a signature
        scheme cannot export exactly is conservatively squashed (under
        the *outgoing* scheme, whose cleanup hooks still own the BDM
        contexts), while exact state is exported and re-imported into
        the incoming scheme — exact → signature insertion is total, so
        that direction loses nothing.  Returns ``False`` when ``name``
        is already resident (a no-op), ``True`` after a completed swap.

        Raises :class:`~repro.errors.SchemeSwapError` for illegal swaps:
        off a commit boundary, onto a parameter variant, or when the
        substrate's configuration pins the scheme (see
        :meth:`_swap_check`).  Unknown names raise the registry's
        :class:`~repro.errors.UnknownSchemeError`.
        """
        from repro.errors import SchemeSwapError
        from repro.spec.registry import scheme_entry

        current = self.scheme
        if name == current.name:
            return False
        entry = scheme_entry(self._spec_prefix, name)
        if not at_commit_boundary:
            raise SchemeSwapError(
                self._spec_prefix, current.name, name,
                "swaps are only legal at commit boundaries "
                "(mid-transaction speculative state has no exchange point)",
            )
        if entry.params:
            raise SchemeSwapError(
                self._spec_prefix, current.name, name,
                f"{name!r} is a parameter variant ({entry.params!r}); "
                "variants change run-level params the live system was "
                "not built with",
            )
        self._swap_check(entry)
        if now is None:
            now = self._swap_clock()
        new_scheme = entry.factory()
        squashed = self._swap_apply(current, new_scheme, now)
        self._note_swap(current.name, new_scheme.name, now, squashed, reason)
        return True

    def _swap_check(self, entry: Any) -> None:
        """Substrate veto hook: raise SchemeSwapError when the system's
        configuration pins the current scheme.  Default: no veto."""

    def _swap_clock(self) -> int:
        """The substrate's current time, for swaps without an explicit
        ``now`` (manual swaps between runs/tests)."""
        return getattr(self, "clock", 0)

    def _swap_apply(self, old: Any, new: Any, now: int) -> int:
        """Quiesce, export, reassign ``self.scheme``, import.

        Substrate-specific: each system knows its own in-flight units
        and how to squash or convert them.  Returns the number of units
        conservatively squashed by the swap.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement scheme swaps"
        )

    def _maybe_policy_swap(self, now: int) -> None:
        """Consult the attached policy at a commit boundary (if any)."""
        policy = self._swap_policy
        if policy is None:
            return
        target = policy.decide(self._policy_view, self.scheme.name, now)
        if target is not None and target != self.scheme.name:
            self.swap_scheme(target, now=now, reason="policy")

    def _note_swap(
        self, old: str, new: str, now: int, squashed: int, reason: str
    ) -> None:
        """Account one completed swap: counters, residency, trace."""
        self._swap_tracking = True
        self._swap_count += 1
        elapsed = max(0, now - self._resident_since)
        self._resident_cycles[old] = (
            self._resident_cycles.get(old, 0) + elapsed
        )
        self._resident_since = now
        if self.metrics is not None:
            self.metrics.counter("scheme.swaps").inc()
            self.metrics.counter(f"scheme.resident_cycles.{old}").inc(elapsed)
        if self.tracer is not None:
            # The tracer context deliberately keeps the run's *starting*
            # scheme: the simulator's bandwidth stats accumulate under the
            # run label, and the trace-vs-stats reconciliation compares the
            # two per label.  Residency is reconstructed from the
            # ``scheme.swap`` events instead of from the context stamp.
            self.tracer.emit(
                "scheme.swap",
                from_scheme=old,
                to_scheme=new,
                clock=now,
                squashed=squashed,
                reason=reason,
            )

    def _flush_residency(self, now: int) -> None:
        """Attribute the tail residency interval to the final scheme.

        Called at end of run, but only for runs that tracked swaps —
        static runs never create ``scheme.*`` metrics, keeping the
        pinned metrics snapshots unchanged.
        """
        if not self._swap_tracking:
            return
        elapsed = max(0, now - self._resident_since)
        name = self.scheme.name
        self._resident_cycles[name] = (
            self._resident_cycles.get(name, 0) + elapsed
        )
        self._resident_since = now
        if self.metrics is not None:
            self.metrics.counter(f"scheme.resident_cycles.{name}").inc(
                elapsed
            )

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def trace_event(self, kind: str, **fields: Any) -> None:
        """Emit one trace event when tracing is enabled."""
        if self.tracer is not None:
            self.tracer.emit(kind, **fields)

    def trace_run_begin(self, sim: str, **fields: Any) -> None:
        """Stamp the tracer context and emit ``run.begin``."""
        if self.tracer is not None:
            self.tracer.set_context(sim=sim, scheme=self.scheme.name)
            self.tracer.emit("run.begin", **fields)

    def trace_run_end(self) -> None:
        """Emit ``run.end`` with the run's headline numbers."""
        if self.tracer is not None:
            self.tracer.emit(
                "run.end",
                cycles=self.stats.cycles,
                commits=self.stats.commits,
                squashes=self.stats.squashes,
            )

    # ------------------------------------------------------------------
    # Commit accounting
    # ------------------------------------------------------------------

    def charge_commit_bus(
        self, request_time: int, packet_bytes: int, port: int = 0
    ) -> int:
        """Arbitrate the commit packet onto the bus.

        Returns the clock after bus occupancy, transfer, and the
        substrate's per-commit processor overhead.  ``port`` is the
        committing processor id — the legacy bus ignores it; the timed
        model attributes arbitration wait to it.
        """
        end = self.bus.acquire_commit(request_time, packet_bytes, port=port)
        return end + self.params.commit_overhead_cycles

    def finalize_bus_stats(self) -> None:
        """Copy the bus's traffic (and, when timed, contention) counters
        into ``self.stats`` at end of run."""
        self._flush_residency(self.stats.cycles)
        self.stats.bandwidth = self.bus.bandwidth
        if isinstance(self.bus, TimedBus):
            self.stats.bus_grants = self.bus.grants
            self.stats.bus_requests = self.bus.requests
            self.stats.bus_wait_cycles = self.bus.wait_cycles
            self.stats.bus_busy_cycles = self.bus.busy_cycles
            self.stats.bus_max_queue_depth = self.bus.max_queue_depth
            self.stats.bus_wait_by_port = dict(
                sorted(self.bus.wait_by_port.items())
            )

    def start_unit_timer(self, unit_key: int, clock: int) -> None:
        """Mark a unit's begin/dispatch/restart time for the cycle timer."""
        if self._m_unit_cycles is not None:
            self._unit_start_clock[unit_key] = clock

    def note_commit(
        self, packet_bytes: int, unit_key: int, clock: int, **trace_fields: Any
    ) -> None:
        """Count, time, and trace one commit.

        The traced ``commit`` event carries the packet size and the INV
        bandwidth category (commit packets are invalidation traffic in
        Figure 13's taxonomy) plus the substrate's identifying fields.
        """
        if self._m_commits is not None:
            self._m_commits.inc()
            self._m_packet.observe(packet_bytes)
            start = self._unit_start_clock.pop(unit_key, None)
            if start is not None:
                self._m_unit_cycles.observe(clock - start)
        if self.tracer is not None:
            self.tracer.emit(
                "commit",
                packet_bytes=packet_bytes,
                category=BandwidthCategory.INV.value,
                clock=clock,
                **trace_fields,
            )

    # ------------------------------------------------------------------
    # Squash accounting
    # ------------------------------------------------------------------

    def note_squash(
        self, cause: str, count_false_positive: bool = False, **trace_fields: Any
    ) -> None:
        """Count one squash (total, per cause, optional false-positive
        counter) and emit the ``squash`` event."""
        if self.metrics is not None:
            self.metrics.counter(f"{self._spec_prefix}.squashes").inc()
            self.metrics.counter(
                f"{self._spec_prefix}.squashes.{cause}"
            ).inc()
            if count_false_positive:
                self.metrics.counter(
                    f"{self._spec_prefix}.squashes.false_positive"
                ).inc()
        if self.tracer is not None:
            self.tracer.emit("squash", cause=cause, **trace_fields)

    # ------------------------------------------------------------------
    # Signature-expansion accounting (Bulk schemes)
    # ------------------------------------------------------------------

    def note_sig_expansion(
        self,
        op: str,
        commit_invalidated: Optional[int] = None,
        decode: bool = False,
        **event_fields: Any,
    ) -> None:
        """Count one signature expansion and emit its ``sig.expand`` event.

        ``commit_invalidated`` feeds the ``sig.commit_invalidations``
        counter (commit-side expansions only); ``decode`` additionally
        bumps ``sig.decodes`` (partial rollback runs delta-decode).
        """
        if self.metrics is not None:
            self.metrics.counter("sig.expansions").inc()
            if commit_invalidated is not None:
                self.metrics.counter("sig.commit_invalidations").inc(
                    commit_invalidated
                )
            if decode:
                self.metrics.counter("sig.decodes").inc()
        if self.tracer is not None:
            self.tracer.emit("sig.expand", op=op, **event_fields)

    # ------------------------------------------------------------------
    # Set Restriction
    # ------------------------------------------------------------------

    def charge_safe_writebacks(
        self, cache: Any, bdm: Any, set_index: int
    ) -> int:
        """Write back every non-speculative dirty line in one cache set.

        The Set Restriction's WRITEBACK_NONSPEC action (Section 4.3):
        non-speculative dirty data mirrors memory in this model, so each
        writeback costs one bus message and a clean bit.  Returns the
        number of lines written back.
        """
        written_back = 0
        for line in cache.dirty_lines_in_set(set_index):
            self.bus.record(MessageKind.WRITEBACK)
            cache.clean(line.line_address)
            bdm.note_safe_writeback()
            self.stats.safe_writebacks += 1
            written_back += 1
        return written_back
