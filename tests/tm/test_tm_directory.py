"""The line-holder directory against a rebuild from the caches.

``SpecSystemCore.directory`` maps each cached line to a bitmask of the
caches holding it; coherence probes (TM miss fills, non-speculative
stores and Eager ownership claims; TLS fill downgrades and Eager store
invalidations) visit only those caches.  Here ``_step`` is wrapped so
that after every step of a TM or TLS run the directory must equal one
rebuilt from every cache's sets, and TLS Eager's ``record_store`` so
that no remote copy survives a store.  Two planted mutants, each
dropping one removal path, show that the oracle catches a stale
directory; the one on the invalidation path also trips the simulator's
stale-read check.  A third, an Eager TLS store that skips one holder,
shows that it catches a missed invalidation.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import Dict, Optional

import pytest

from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry
from repro.coherence.message import MessageKind
from repro.errors import SimulationError
from repro.mem.address import LINE_SHIFT
from repro.obs import Observability
from repro.spec import resolve_scheme, scheme_entries, scheme_names
from repro.tls.eager import TlsEagerScheme
from repro.tls.params import TLS_DEFAULTS
from repro.tls.system import TlsSystem
from repro.tm.params import TM_DEFAULTS
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload
from repro.workloads.tls_spec import build_tls_workload

#: 32 sets x 2 ways: the kernels evict constantly, and a rebuild after
#: every step stays cheap.
SMALL = CacheGeometry(size_bytes=4096, associativity=2)
ENTRIES = {entry.name: entry for entry in scheme_entries("tm", include_variants=True)}


def build(app: str, scheme: str, policy: Optional[str] = None,
          obs: Optional[Observability] = None, **overrides) -> TmSystem:
    entry = ENTRIES[scheme]
    params = replace(TM_DEFAULTS, geometry=SMALL, **{**entry.params, **overrides})
    traces = build_tm_workload(
        app, num_threads=params.num_processors, txns_per_thread=3, seed=42
    )
    return TmSystem(traces, entry.factory(), params, obs=obs, policy=policy)


def build_tls(scheme: str) -> TlsSystem:
    params = replace(TLS_DEFAULTS, geometry=SMALL)
    tasks = build_tls_workload("vpr", num_tasks=40, seed=42)
    return TlsSystem(tasks, resolve_scheme("tls", scheme), params)


def rebuilt(system) -> Dict[int, int]:
    """The directory as the caches' contents say it must be: each
    distinct cache contributes the bit of its lowest pid."""
    expected: Dict[int, int] = {}
    owners: Dict[int, int] = {}
    for proc in system.processors:
        cache = proc.cache
        owners.setdefault(id(cache), proc.pid)
        assert cache.directory is system.directory
        assert cache.directory_bit == 1 << owners[id(cache)]
    for proc in system.processors:
        if owners[id(proc.cache)] != proc.pid:
            continue
        for line in proc.cache.all_lines():
            address = line.line_address
            expected[address] = expected.get(address, 0) | proc.cache.directory_bit
    return expected


def with_oracle(system):
    step = system._step
    checked = []
    if isinstance(system.scheme, TlsEagerScheme):
        record_store = system.scheme.record_store

        def checked_record_store(system_, proc, state, byte_address):
            record_store(system_, proc, state, byte_address)
            line_address = byte_address >> LINE_SHIFT
            assert system.directory[line_address] == proc.cache.directory_bit, (
                f"a remote copy of line 0x{line_address:x} survived an Eager store"
            )

        system.scheme.record_store = checked_record_store

    def checked_step(proc):
        step(proc)
        assert system.directory == rebuilt(system), (
            f"directory diverged from the caches after step {len(checked)}"
        )
        checked.append(proc.pid)

    system._step = checked_step
    system.checked_steps = checked
    return system


CASES = {
    "Eager": lambda: build("sjbb2k", "Eager"),
    "Lazy": lambda: build("sjbb2k", "Lazy"),
    "Bulk": lambda: build("sjbb2k", "Bulk"),
    "Bulk-Partial": lambda: build("sjbb2k", "Bulk-Partial"),
    "smt": lambda: build("cb", "Bulk", threads_per_core=2),
    "swap": lambda: build(
        "mc", "Eager", policy="threshold:squash_rate>0,window=1",
        obs=Observability(),
    ),
}
CASES.update(
    {f"tls-{scheme}": (lambda scheme=scheme: build_tls(scheme))
     for scheme in scheme_names("tls")}
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_directory_matches_the_caches_after_every_step(case):
    system = with_oracle(CASES[case]())
    system.run()
    assert system.checked_steps
    assert system.directory == rebuilt(system)
    if case == "swap":
        assert system.metrics.counter("scheme.swaps").value > 0
    if case == "smt":
        assert len({id(proc.cache) for proc in system.processors}) == 4
    evictions = sum(proc.cache.stats.evictions for proc in system.processors)
    assert evictions > 0


def plant(monkeypatch, skipped_caller: str) -> None:
    """A mutant Cache that drops the directory removal on one path
    (``fill`` = eviction, ``invalidate``)."""
    original = Cache._leave_directory

    def mutant(self, directory, line_address):
        if sys._getframe(1).f_code.co_name != skipped_caller:
            original(self, directory, line_address)

    monkeypatch.setattr(Cache, "_leave_directory", mutant)


@pytest.mark.parametrize("skipped_caller", ["fill", "invalidate"])
def test_oracle_kills_the_mutant(monkeypatch, skipped_caller):
    plant(monkeypatch, skipped_caller)
    with pytest.raises(AssertionError, match="directory diverged"):
        with_oracle(build("sjbb2k", "Eager")).run()


def test_missed_invalidate_removal_trips_a_stale_read(monkeypatch):
    """The simulator's own stale-read oracle sees the fault too: the
    bit left behind is cleared by the next fill of the line (the
    directory toggles bits), so a later remote invalidation misses the
    copy and a load reads the stale value."""
    plant(monkeypatch, "invalidate")
    with pytest.raises(SimulationError, match="stale read"):
        build("sjbb2k", "Eager").run()


def test_oracle_kills_an_eager_tls_store_that_skips_a_holder(monkeypatch):
    def mutant(self, system, proc, state, byte_address):
        line_address = byte_address >> LINE_SHIFT
        remotes = list(system._holders(proc.cache, line_address))
        for remote in remotes[1:]:
            remote.cache.invalidate(line_address)
        if remotes:
            system.bus.record(MessageKind.INVALIDATION)

    monkeypatch.setattr(TlsEagerScheme, "record_store", mutant)
    with pytest.raises(AssertionError, match="survived an Eager store"):
        with_oracle(build_tls("Eager")).run()
