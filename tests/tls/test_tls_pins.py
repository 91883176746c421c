"""SHA-256 pins of whole TLS runs.

Each pin hashes a run's cycles, its ``TlsStats``, every cache's
``CacheStats`` and the non-zero final memory (plus, for the metrics-on
run, every ``scheduler.*`` and ``tls.*`` counter).  The golden manifest
only covers the default ``reproduce``; these pins also cover one-slot
processors, the timed bus, hot-swap and the metered run, so a refactor
of the TLS run loop or access path must leave every simulated bit where
it was.

To print the current digests (after a change that is *meant* to alter
the simulation)::

    PYTHONPATH=src:. python -m tests.tls.test_tls_pins
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from typing import Dict, Tuple

import pytest

from repro.interconnect import InterconnectConfig
from repro.obs import Observability
from repro.spec import resolve_scheme, scheme_names
from repro.tls.params import TLS_DEFAULTS
from repro.tls.system import TlsSystem
from repro.workloads.tls_spec import TLS_APPLICATIONS, build_tls_workload
from tests.tm.test_tm_pins import _plain

TASKS = 40
SEED = 42
SWAP_POLICY = "threshold:squash_rate>0,window=1"


def fingerprint(system: TlsSystem, result, counters=None) -> str:
    payload = {
        "cycles": result.cycles,
        "stats": _plain(result.stats),
        "caches": [_plain(proc.cache.stats) for proc in system.processors],
        "memory": sorted(
            (word, value) for word, value in result.memory.snapshot().items()
            if value
        ),
    }
    if counters is not None:
        payload["counters"] = counters
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _run(key: Tuple[str, str, str]) -> str:
    app, scheme, variant = key
    params = TLS_DEFAULTS
    obs = None
    policy = None
    if variant == "tpp1":
        params = replace(params, tasks_per_processor=1)
    elif variant == "timed":
        params = replace(
            params, interconnect=InterconnectConfig.parse("timed:latency=2")
        )
    elif variant == "swap":
        obs = Observability()
        policy = SWAP_POLICY
    elif variant == "metrics":
        obs = Observability()
    elif variant != "plain":  # pragma: no cover - table typo
        raise ValueError(variant)
    tasks = build_tls_workload(app, num_tasks=TASKS, seed=SEED)
    system = TlsSystem(
        tasks, resolve_scheme("tls", scheme), params, obs=obs, policy=policy
    )
    result = system.run()
    counters = None
    if variant == "swap":
        assert obs.metrics.counter("scheme.swaps").value > 0
    elif variant == "metrics":
        counters = {
            name: value
            for name, value in obs.metrics.snapshot()["counters"].items()
            if name.startswith(("scheduler.", "tls."))
        }
        assert counters["scheduler.pops"] > counters["scheduler.stale_pops"]
    return fingerprint(system, result, counters)


#: (profile, scheme, variant) -> digest.
PINS: Dict[Tuple[str, str, str], str] = {
    ('bzip2', 'Eager', 'plain'): "9d5458c2a84774c99fa9034795210c9dbf05468d936b04eef06a949690a92791",
    ('bzip2', 'Lazy', 'plain'): "f7ad61e73b32b23d664c9d2db8a941999ee329ed631454058535e98476a72e38",
    ('bzip2', 'Bulk', 'plain'): "3877a928efb0de384b5ad47fb72c27ca249f94c70da71461c175c10e0b058405",
    ('bzip2', 'BulkNoOverlap', 'plain'): "eec503e692e9247cd041bd408fbfc0a5dda1f780c70f3fc70ae04f0db7a311a4",
    ('crafty', 'Eager', 'plain'): "848b38cc66e2f7efeed9568e40bcfe61f4b184c6e2b6ef2a54fc2c2a48a137b2",
    ('crafty', 'Lazy', 'plain'): "69558e3b5de73378587d937d83c4e7fd8a79ad67aa9fb0777dc5a9d2122c9022",
    ('crafty', 'Bulk', 'plain'): "782de9d447815c47e76d422b99434f15ed0914d81f7dc3ec6b881bd7fba4284a",
    ('crafty', 'BulkNoOverlap', 'plain'): "b7aff1fd0a39331768aef90f73670597389070353695740c70c0db8bb872d975",
    ('gap', 'Eager', 'plain'): "625d3e3985c9e3da2893db2fa5c716cc6a5bf61ddc633ca65fcd4628448d4822",
    ('gap', 'Lazy', 'plain'): "e1cc8a595ec095089aec5c32d83d9c6cc29d1e2d562e46c0f2f76bb7d47da47d",
    ('gap', 'Bulk', 'plain'): "3340f0d7fb0bdb4bf2286aed52cb7eb2434e1c10691cf82d9e408ee6775f0b87",
    ('gap', 'BulkNoOverlap', 'plain'): "ddfd40fdfe04f5cfe2ad45d4c298854957915ef70e06430f2eabb3d7e75ff0e7",
    ('gzip', 'Eager', 'plain'): "9cb54d5e59878c1f0232e09df47607a79fc22309699b9cf6816740fea33755ea",
    ('gzip', 'Lazy', 'plain'): "5027d2106774069bc0ebf9eddc77c662f5102aad4e2530b49bffd0b4fe5d970a",
    ('gzip', 'Bulk', 'plain'): "ac48f190a03e5cce6695b1a78d462ae5f44c9aff99aa1e8384f260ff572993b5",
    ('gzip', 'BulkNoOverlap', 'plain'): "d1cc1c39608f5f38a1fcf3c84d275f0c241fece3f47f62d1d5039949857ad1cb",
    ('mcf', 'Eager', 'plain'): "96da8b5e0b5299fc2dac0312fb8a6fee46232fa6d3df002ebb5e57e48e984098",
    ('mcf', 'Lazy', 'plain'): "a88719f016ee952943b3a9af2f93a0d525af154d6f9906e30fbf5a3275126f63",
    ('mcf', 'Bulk', 'plain'): "f6767ed3d21922295913f2e4ad2edb752447225eb2ae7a14182e6b7cddcd2440",
    ('mcf', 'BulkNoOverlap', 'plain'): "172664644fa462094a92f9bea00eefc1a9a8eee95e7113d58548daad30860ef4",
    ('parser', 'Eager', 'plain'): "28382352441169925619386cc516d4f1b7342e2c7bb1254e7659722350fa3888",
    ('parser', 'Lazy', 'plain'): "1e896efc085f234b7b7d922ed54956b45ff6f81050da350cfff74a6c46df46f7",
    ('parser', 'Bulk', 'plain'): "acfb8ced3e1606a8af05ad199541c4ce8d2e91fc07a081679a2dc42e587d4c0d",
    ('parser', 'BulkNoOverlap', 'plain'): "9c51190012defc963fbd3082ace948c13e57181b06963ea7c58435613061ce96",
    ('twolf', 'Eager', 'plain'): "2039eeb6ddcf03f94311b0dd6a300b06bc30b258ac03827e249dacfeac2c5c34",
    ('twolf', 'Lazy', 'plain'): "0982a437c36f75b5b3a22037fbc5c3c92da622aed99572c1e7e5e4aeb37abb09",
    ('twolf', 'Bulk', 'plain'): "e4464a6a17d5c91bf5255dc9353251fe7dd363bfd5dd9312d622a7a3896e1a60",
    ('twolf', 'BulkNoOverlap', 'plain'): "8c9f8c7c9cb97fdd86e1ccad12a28045a9355d9b845edc98ddbb2d1c8d889c68",
    ('vortex', 'Eager', 'plain'): "d529e763d5280d71739d8f696df61d5d6397f9309adbc8dc6d3169845cb1c1c5",
    ('vortex', 'Lazy', 'plain'): "b19eda568b9877d2b0f706487e9d24494e25377170e03ea4cf0047b64de59554",
    ('vortex', 'Bulk', 'plain'): "ec7006b61360116394a474aa2bf2a889478064341e7da0eec7d2ea8bbfc483de",
    ('vortex', 'BulkNoOverlap', 'plain'): "41f8e788d1fb4e1f7c5aae4a508c1b9e73ec73615922869bb306ce644beae2ab",
    ('vpr', 'Eager', 'plain'): "9dbab952745310a36c941b986f618f14349c1c5ca1804bd91d11df8dbb0076f7",
    ('vpr', 'Lazy', 'plain'): "dee0070627f6ebefecc8841a1c6302779673bede238f59dbec8105518e198b03",
    ('vpr', 'Bulk', 'plain'): "4401878a1596ba63e0baa4ee0172a055cc209dc8cc06dfd0c69e82096b3c70b4",
    ('vpr', 'BulkNoOverlap', 'plain'): "84ace4be1b3395e83a7864d756a5d35f25e6273e55ebc5c287894633603a6eca",
    ('gzip', 'Eager', 'tpp1'): "b1bd8b7bb35e7999661875a3fad31a1c7fdaa35b630fbb51423f035f62d56d88",
    ('gzip', 'Lazy', 'tpp1'): "d70d38728bf63a27520f5d7a45fcb7a4a18b911950101fa3cf35460f6a810ff0",
    ('gzip', 'Bulk', 'tpp1'): "60a4ef4901c5ff5b3d831c447f9c6cb31048093b1987350d3818d0e3cda7caa5",
    ('gzip', 'BulkNoOverlap', 'tpp1'): "a98deddd9a758135acb963733b707f693788a2957a9f87156629834f59836c0d",
    ('gzip', 'Bulk', 'timed'): "a7a82b907216a768446d6d8a791d61ecee267b20bc28064a4fd5fa1d68c27876",
    ('gzip', 'Eager', 'swap'): "78c2b145cd20a96b1e5e0ac804cebde81060ccbcb7d29f55c48f1e421a080eb3",
    ('parser', 'Bulk', 'metrics'): "edf8e786e508dedca90e94ade464863b705b2afa53a7c7ad5de75af158d12fc3",
}


@pytest.mark.parametrize(
    "key", sorted(PINS), ids=lambda key: "-".join(key)
)
def test_run_matches_pin(key):
    assert _run(key) == PINS[key]


def test_pins_cover_every_profile_and_scheme():
    plain = {(app, scheme) for app, scheme, variant in PINS if variant == "plain"}
    schemes = scheme_names("tls")
    assert plain == {(app, scheme) for app in TLS_APPLICATIONS for scheme in schemes}
    assert {variant for *_, variant in PINS} == {
        "plain", "tpp1", "timed", "swap", "metrics"
    }


def _all_keys():
    schemes = scheme_names("tls")
    keys = [(app, scheme, "plain") for app in sorted(TLS_APPLICATIONS)
            for scheme in schemes]
    keys += [("gzip", scheme, "tpp1") for scheme in schemes]
    keys += [("gzip", "Bulk", "timed"), ("gzip", "Eager", "swap"),
             ("parser", "Bulk", "metrics")]
    return keys


if __name__ == "__main__":  # pragma: no cover - pin regeneration aid
    for key in _all_keys():
        print(f"    {key!r}: \"{_run(key)}\",")
