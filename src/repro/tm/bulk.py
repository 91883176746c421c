"""The Bulk conflict-detection scheme (the paper's contribution).

Per-access work: add the address to the running version context's R/W
signatures in the BDM (plus the current section's signatures when partial
rollback is enabled).  Speculative stores are *silent* — no invalidations
until commit.

Commit: broadcast one RLE-compressed write signature; every receiver
performs bulk disambiguation (Equation 1) against its section signatures
in order, squashing (or partially rolling back) on a hit, and then bulk
invalidation of the committed signature over its cache (Section 4.3).

Squash: bulk-invalidate the victim's dirty lines using its own write
signature — safe because of delta-exactness and the Set Restriction.

Exact read/write sets maintained by the system serve purely as an oracle
to classify false-positive squashes and false invalidations (Table 7);
no decision consults them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.coherence.message import MessageKind
from repro.core.bdm import (
    BulkDisambiguationModule,
    SetRestrictionAction,
    VersionContext,
)
from repro.core.rle import rle_encode
from repro.core.signature import Signature
from repro.errors import SimulationError
from repro.mem.address import byte_to_line
from repro.tm.conflict import TmScheme
from repro.tm.processor import TmProcessor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tm.system import TmSystem

# Enum members as globals (a member is a metaclass attribute lookup).
_CONFLICT = SetRestrictionAction.CONFLICT
_WRITEBACK_NONSPEC = SetRestrictionAction.WRITEBACK_NONSPEC


class BulkScheme(TmScheme):
    """Signature-based lazy disambiguation through the BDM."""

    name = "Bulk"
    #: Signatures are one-sided supersets: they cannot be enumerated back
    #: into exact sets, so swaps *away* from Bulk conservatively squash.
    state_kind = "signature"
    #: Bulk is lazy: :meth:`eager_check` only resolves the Set
    #: Restriction's store case, so the system skips it for loads.
    eager_checks_loads = False

    #: Batched disambiguation state of the in-flight commit broadcast,
    #: precomputed by a batched backend: ``(flags, section_counts)``
    #: where ``flags`` maps ``(pid, section_index)`` to that section's
    #: Equation 1 result and ``section_counts`` maps pid to the section
    #: count the flags were computed over.  ``None`` = scalar
    #: disambiguation; a missing pid means the receiver joined after
    #: the broadcast (scalar fallback).
    _commit_flags: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def setup_processor(self, system: "TmSystem", proc: TmProcessor) -> None:
        threads_per_core = system.params.threads_per_core
        if threads_per_core > 1:
            first = system.processors[
                (proc.pid // threads_per_core) * threads_per_core
            ]
            if proc is not first:
                # Co-resident hardware threads share the core's BDM —
                # each gets its own version context within it.
                proc.scheme_state["bdm"] = first.scheme_state["bdm"]
                return
        proc.scheme_state["bdm"] = BulkDisambiguationModule(
            system.params.signature_config,
            system.params.geometry,
            num_contexts=system.params.bdm_contexts,
            backend=system.resolve_sig_backend(),
        )

    @staticmethod
    def bdm_of(proc: TmProcessor) -> BulkDisambiguationModule:
        """The processor's BDM."""
        return proc.scheme_state["bdm"]

    @staticmethod
    def _ctx(proc: TmProcessor):
        context = proc.scheme_state.get("ctx")
        if context is None:
            raise SimulationError(
                f"processor {proc.pid} has no running BDM context"
            )
        return context

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def on_txn_begin(self, system: "TmSystem", proc: TmProcessor) -> None:
        bdm = self.bdm_of(proc)
        context = bdm.allocate_context(proc.pid)
        if context is None:
            raise SimulationError(
                f"BDM of processor {proc.pid} is out of version contexts"
            )
        bdm.set_running(context)
        proc.scheme_state["ctx"] = context

    # ------------------------------------------------------------------
    # Hot-swap lifecycle
    # ------------------------------------------------------------------

    def teardown_processor(self, system: "TmSystem", proc: TmProcessor) -> None:
        """Release the BDM (the swap already squashed in-flight work)."""
        bdm = proc.scheme_state.get("bdm")
        context = proc.scheme_state.pop("ctx", None)
        if bdm is not None and context is not None:
            bdm.release_context(context)
        proc.scheme_state.pop("bdm", None)

    def import_processor_state(
        self, system: "TmSystem", proc: TmProcessor, state: object
    ) -> None:
        """Adopt a live exact-scheme transaction into a fresh context.

        Exact → signature conversion is total (Section 3's one-sided
        guarantee): every recorded granule inserts into the context's R/W
        signatures and the per-section signatures the swap just attached,
        and ``record_store_granule`` rebuilds delta(W) incrementally so
        bulk squash invalidation stays exact.
        """
        txn = proc.txn
        if txn is None:
            return
        bdm = self.bdm_of(proc)
        context = bdm.allocate_context(proc.pid)
        if context is None:
            raise SimulationError(
                f"BDM of processor {proc.pid} is out of version contexts "
                "during a scheme swap"
            )
        bdm.set_running(context)
        proc.scheme_state["ctx"] = context
        config = bdm.config
        for section in txn.sections:
            for granule in sorted(section.read_granules):
                mask = config.flat_mask(granule)
                context.read_signature.add_mask(mask)
                if section.read_signature is not None:
                    section.read_signature.add_mask(mask)
            for granule in sorted(section.write_granules):
                mask = config.flat_mask(granule)
                bdm.record_store_granule(granule, mask)
                if section.write_signature is not None:
                    section.write_signature.add_mask(mask)

    # ------------------------------------------------------------------
    # Access hooks
    # ------------------------------------------------------------------

    def eager_check(
        self,
        system: "TmSystem",
        proc: TmProcessor,
        byte_address: int,
        is_store: bool,
    ) -> Optional[int]:
        """Bulk detects conflicts lazily, but the Set Restriction's (0,1)
        case — another version context in this core owns dirty lines in
        the target set — must be resolved *before* the store proceeds.
        To stay livelock-free, the shorter-running of the two
        transactions yields: the owner is squashed, or the requester
        stalls until the owner commits (the "preempting the thread"
        option of Section 4.5)."""
        if not is_store or proc.txn is None:
            return None
        state = proc.scheme_state
        bdm = state["bdm"]
        context = state.get("ctx")
        if context is None:
            return None
        if bdm.running is not context:
            bdm.set_running(context)
        line_address = byte_to_line(byte_address)
        action = bdm.store_set_action(line_address)
        if action is not _CONFLICT:
            # The whole Set Restriction is resolved here in one pass.
            if action is _WRITEBACK_NONSPEC:
                system.charge_safe_writebacks(
                    proc.cache, bdm, proc.cache.set_index(line_address)
                )
            return None
        set_index = proc.cache.set_index(line_address)
        owner_context = bdm.speculative_owner_of_set(set_index)
        if owner_context is None or owner_context.owner is None:
            return None
        system.stats.set_restriction_conflicts += 1
        owner_proc = system.processors[owner_context.owner]
        if self._run_length(owner_proc) > self._run_length(proc) or (
            self._run_length(owner_proc) == self._run_length(proc)
            and owner_proc.pid < proc.pid
        ):
            return owner_proc.pid  # requester stalls (strict order: no cycles)
        system.squash_preempted_context(proc, owner_context)
        # The store proceeds this step: apply the post-squash decision.
        if bdm.store_set_action(line_address) is _WRITEBACK_NONSPEC:
            system.charge_safe_writebacks(proc.cache, bdm, set_index)
        return None

    @staticmethod
    def _run_length(proc: TmProcessor) -> int:
        if proc.txn is None:
            return 0
        return proc.cursor - proc.txn.start_cursor

    def record_load(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        # Per-access path: the scheme-state dict is probed directly
        # (bdm_of/_ctx add two frames per recorded access).
        state = proc.scheme_state
        bdm = state["bdm"]
        context = state.get("ctx")
        if context is None:
            raise SimulationError(
                f"processor {proc.pid} has no running BDM context"
            )
        if bdm.running is not context:
            bdm.set_running(context)
        # The BDM hands back the address's encode mask so the section
        # register records the access without re-encoding it.
        mask = bdm.record_load(byte_address)
        assert proc.txn is not None
        section = proc.txn.sections[-1]  # == .current, sans property call
        if section.read_signature is not None:
            section.read_signature.add_mask(mask)

    def record_store(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        state = proc.scheme_state
        bdm = state["bdm"]
        context = state.get("ctx")
        if context is None:
            raise SimulationError(
                f"processor {proc.pid} has no running BDM context"
            )
        if bdm.running is not context:
            bdm.set_running(context)
        config = bdm.config
        address = byte_address >> bdm._byte_shift
        mask = config.flat_mask(address)
        bdm.record_store_granule(address, mask)
        assert proc.txn is not None
        section = proc.txn.sections[-1]  # == .current, sans property call
        if section.write_signature is not None:
            section.write_signature.add_mask(mask)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TmSystem", proc: TmProcessor) -> int:
        """One RLE-compressed signature, regardless of write-set size."""
        signature = self._commit_signature(proc)
        payload = len(rle_encode(signature))
        return system.bus.record(
            MessageKind.COMMIT_SIGNATURE,
            payload_bytes=payload,
            is_commit_traffic=True,
        )

    def _commit_signature(self, proc: TmProcessor) -> Signature:
        """W_1 ∪ ... ∪ W_n of the committing transaction (Figure 8)."""
        context = self._ctx(proc)
        return context.write_signature

    def on_commit_broadcast(
        self, system: "TmSystem", committer: TmProcessor
    ) -> None:
        """Batched disambiguation: with a backend whose bank supports it,
        evaluate Equation 1 against *every* receiver's *per-section*
        registers in one vectorised pass.  The per-section flags are the
        exact scalar results (Equation 1 per section), so
        :meth:`receiver_conflict` reads the first conflicting section
        straight from the matrix pass — its per-section ``intersects``
        scan survives only as the fallback for receivers the broadcast
        did not cover.
        """
        self._commit_flags = None
        backend = system.resolve_sig_backend()
        if not backend.batched:
            return
        committed = self._commit_signature(committer)
        bank = backend.make_bank(committed.config)
        section_counts: dict = {}
        for other in system.processors:
            if other is committer or other.txn is None:
                continue
            context = other.scheme_state.get("ctx")
            if context is None:
                continue
            sections = other.txn.sections
            for section in sections:
                if section.read_signature is None or section.write_signature is None:
                    break
            else:
                for index, section in enumerate(sections):
                    bank.add_row(
                        (other.pid, index),
                        section.read_signature,
                        section.write_signature,
                    )
                section_counts[other.pid] = len(sections)
        if len(bank):
            self._commit_flags = (bank.conflict_flags(committed), section_counts)

    def receiver_conflict(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> Optional[int]:
        assert receiver.txn is not None
        state = self._commit_flags
        if state is not None:
            flags, section_counts = state
            count = section_counts.get(receiver.pid)
            if count is not None and count == len(receiver.txn.sections):
                # The broadcast pass covered exactly this receiver's
                # sections; the flags ARE the per-section Equation 1
                # results, so the first set one is the answer.
                for index in range(count):
                    if flags[(receiver.pid, index)]:
                        return index
                return None
        committed_write = self._commit_signature(committer)
        for index, section in enumerate(receiver.txn.sections):
            read_sig = section.read_signature
            write_sig = section.write_signature
            assert read_sig is not None and write_sig is not None
            if committed_write.intersects(read_sig) or committed_write.intersects(
                write_sig
            ):
                return index
        return None

    def commit_update_receiver(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Bulk invalidation of W_C over the receiver's cache."""
        assert committer.txn is not None
        bdm = self.bdm_of(receiver)
        before = bdm.stats.false_commit_invalidations
        invalidated, _, _ = bdm.commit_invalidate(
            receiver.cache,
            self._commit_signature(committer),
            fetch_committed_line=None,
            exact_written_lines=committer.txn.all_write_lines(),
        )
        system.stats.commit_invalidations += invalidated
        system.stats.false_commit_invalidations += (
            bdm.stats.false_commit_invalidations - before
        )
        if system.obs_enabled:
            system.note_sig_expansion(
                "commit-invalidate",
                commit_invalidated=invalidated,
                committer=committer.pid,
                receiver=receiver.pid,
                invalidated=invalidated,
                false_invalidated=bdm.stats.false_commit_invalidations - before,
            )

    def commit_cleanup(self, system: "TmSystem", proc: TmProcessor) -> None:
        bdm = self.bdm_of(proc)
        bdm.release_context(self._ctx(proc))
        proc.scheme_state.pop("ctx", None)

    # ------------------------------------------------------------------
    # Squash
    # ------------------------------------------------------------------

    def squash_cleanup(
        self, system: "TmSystem", proc: TmProcessor, from_section: int
    ) -> None:
        assert proc.txn is not None
        bdm = self.bdm_of(proc)
        context = self._ctx(proc)
        if from_section == 0:
            invalidated = bdm.squash_invalidate(proc.cache, context)
            if system.obs_enabled:
                system.note_sig_expansion(
                    "squash-invalidate", proc=proc.pid, invalidated=invalidated
                )
            context.clear()
            return
        # Partial rollback: invalidate only with the union of the
        # discarded sections' write signatures, then rebuild the context's
        # registers from the kept sections.
        make = (
            Signature if bdm.backend is None else bdm.backend.make_signature
        )
        discarded = make(bdm.config)
        for section in proc.txn.sections[from_section:]:
            assert section.write_signature is not None
            discarded.union_update(section.write_signature)
        scratch = VersionContext(context.slot, bdm.config, bdm.backend)
        scratch.write_signature = discarded
        invalidated = bdm.squash_invalidate(proc.cache, scratch)
        context.read_signature.clear()
        context.write_signature.clear()
        for section in proc.txn.sections[:from_section]:
            assert section.read_signature is not None
            assert section.write_signature is not None
            context.read_signature.union_update(section.read_signature)
            context.write_signature.union_update(section.write_signature)
        context.delta_mask = bdm.decoder.decode(context.write_signature)
        system.stats.partial_rollbacks += 1
        if system.obs_enabled:
            system.note_sig_expansion(
                "partial-rollback",
                decode=True,
                proc=proc.pid,
                from_section=from_section,
                invalidated=invalidated,
            )
            # The delta_sets popcount is formatting work; it must not run
            # on the untraced fast path.
            system.trace_event(
                "sig.decode",
                proc=proc.pid,
                delta_sets=bin(context.delta_mask).count("1"),
            )

    # ------------------------------------------------------------------
    # Non-speculative invalidations and overflow
    # ------------------------------------------------------------------

    def nonspec_victims(
        self, system: "TmSystem", writer: TmProcessor, byte_address: int
    ) -> Iterator[TmProcessor]:
        """Membership test a ∈ R ∨ a ∈ W (Section 4.2) against every live
        context: the granule is encoded once and ANDed with each R and W
        register."""
        mask = None
        for other in system.processors:
            context = other.scheme_state.get("ctx")
            if other is writer or other.txn is None or context is None:
                continue
            if mask is None:
                mask = context.read_signature.config.flat_mask(
                    byte_to_line(byte_address)
                )
            if (
                context.read_signature.to_flat_int() & mask == mask
                or context.write_signature.to_flat_int() & mask == mask
            ):
                yield other

    def miss_checks_overflow(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> bool:
        """The membership filter of Section 6.2.2 — Bulk's overflow-access
        advantage over Lazy in Table 7."""
        context = proc.scheme_state.get("ctx")
        if context is None or not proc.has_overflow():
            return False
        return self.bdm_of(proc).miss_needs_overflow_check(context, byte_address)

    def overflow_disambiguation_cost(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Nothing: Bulk disambiguates on signatures alone, never touching
        the overflowed addresses in memory."""

    def on_spec_eviction(self, system: "TmSystem", proc: TmProcessor) -> None:
        context = proc.scheme_state.get("ctx")
        if context is not None:
            self.bdm_of(proc).note_speculative_eviction(context)
