"""Binding of the per-access scheme hooks.

``TmSystem`` binds ``eager_check``, ``prepare_store``, ``record_load`` and
``record_store`` at the start of ``run()`` and after every scheme swap.
A hook the scheme inherits as ``TmScheme``'s no-op binds to ``None`` and
is never called; a hook patched onto the scheme instance before ``run()``
is honoured.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from repro.obs import Observability
from repro.tm.bulk import BulkScheme
from repro.tm.conflict import TmScheme
from repro.tm.eager import EagerScheme
from repro.tm.lazy import LazyScheme
from repro.tm.params import TM_DEFAULTS
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload

HOOKS = ("eager_check", "prepare_store", "record_load", "record_store")


def traces(app: str = "mc"):
    return build_tm_workload(
        app, num_threads=TM_DEFAULTS.num_processors, txns_per_thread=2, seed=42
    )


@contextmanager
def calls_to(*functions) -> Iterator[Counter]:
    """Count the calls into each function's code object while active."""
    codes = {function.__code__: function.__qualname__ for function in functions}
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)


def test_lazy_calls_no_inherited_access_hook():
    system = TmSystem(traces(), LazyScheme())
    with calls_to(*(getattr(TmScheme, name) for name in HOOKS)) as counts:
        result = system.run()
    assert result.stats.committed_transactions > 0
    assert counts == Counter()


def test_bulk_record_store_runs_after_a_swap_into_bulk():
    obs = Observability()
    system = TmSystem(
        traces(), EagerScheme(), obs=obs,
        policy="threshold:squash_rate>0,window=1",
    )
    with calls_to(BulkScheme.record_store) as counts:
        system.run()
    assert obs.metrics.counter("scheme.swaps").value > 0
    assert counts[BulkScheme.record_store.__qualname__] > 0


def test_hook_patched_on_the_instance_before_run_is_honoured():
    scheme = LazyScheme()
    system = TmSystem(traces(), scheme)
    seen = []
    scheme.record_load = lambda sys_, proc, byte_address: seen.append(proc.pid)
    system.run()
    assert seen
