"""SHA-256 pins of whole TM runs.

Each pin hashes a run's cycles, its ``TmStats``, every distinct cache's
``CacheStats``, the commit order and the non-zero final memory.  The
golden manifest only covers the default ``reproduce``; these pins also
cover the SMT, hot-swap and timed-bus paths, so a refactor of the TM hot
path must leave every simulated bit where it was.

To print the current digests (after a change that is *meant* to alter
the simulation)::

    PYTHONPATH=src python tests/tm/test_tm_pins.py
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import replace
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.interconnect import InterconnectConfig
from repro.obs import Observability
from repro.spec import scheme_entries
from repro.tm.params import TM_DEFAULTS
from repro.tm.system import TmSystem
from repro.workloads.kernels import TM_KERNELS, build_tm_workload

TXNS = 4
SEED = 42
SWAP_POLICY = "threshold:squash_rate>0,window=1"


def _plain(value: Any) -> Any:
    """A JSON-ready copy: dataclasses become dicts, enums their names."""
    if dataclasses.is_dataclass(value):
        return {
            spec.name: _plain(getattr(value, spec.name))
            for spec in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {
            (key.name if isinstance(key, enum.Enum) else str(key)): _plain(entry)
            for key, entry in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_plain(entry) for entry in value]
    return value


def fingerprint(system: TmSystem, result) -> str:
    caches = []
    for proc in system.processors:
        if all(proc.cache is not seen for seen in caches):
            caches.append(proc.cache)
    payload = {
        "cycles": result.cycles,
        "stats": _plain(result.stats),
        "caches": [_plain(cache.stats) for cache in caches],
        "commit_order": result.commit_order,
        "memory": sorted(
            (word, value) for word, value in result.memory.snapshot().items()
            if value
        ),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def _system(app: str, scheme: str, policy: Optional[str] = None,
            obs: Optional[Observability] = None, **overrides) -> TmSystem:
    entry = {e.name: e for e in scheme_entries("tm", include_variants=True)}[scheme]
    params = replace(TM_DEFAULTS, **{**entry.params, **overrides})
    traces = build_tm_workload(
        app, num_threads=params.num_processors, txns_per_thread=TXNS, seed=SEED
    )
    return TmSystem(traces, entry.factory(), params, obs=obs, policy=policy)


def _run(key: Tuple[str, ...]) -> str:
    app, scheme, variant = key
    obs = None
    if variant == "plain":
        system = _system(app, scheme)
    elif variant == "smt":
        system = _system(app, scheme, threads_per_core=2)
    elif variant == "swap":
        obs = Observability()
        system = _system(app, scheme, policy=SWAP_POLICY, obs=obs)
    elif variant == "timed":
        system = _system(
            app, scheme,
            interconnect=InterconnectConfig.parse("timed:latency=2"),
        )
    else:  # pragma: no cover - table typo
        raise ValueError(variant)
    digest = fingerprint(system, system.run())
    if obs is not None:
        assert obs.metrics.counter("scheme.swaps").value > 0
    return digest


#: (kernel, scheme, variant) -> digest.
PINS: Dict[Tuple[str, str, str], str] = {
    ('cb', 'Eager', 'plain'): "1e416cc1c105347646355dc0b4496706672a12a8da1901691dc7a90a393a9296",
    ('cb', 'Lazy', 'plain'): "674585b37b53f3ec2dc6b8d0c89d78fecb1896df9da1e1f8b4614c600ebb149a",
    ('cb', 'Bulk', 'plain'): "089ad1b7d89c1f6b027d26636c54a6dcf22cc433e74462cd1191aafbe96ee57c",
    ('cb', 'Bulk-Partial', 'plain'): "089ad1b7d89c1f6b027d26636c54a6dcf22cc433e74462cd1191aafbe96ee57c",
    ('jgrt', 'Eager', 'plain'): "1d8d84aaacea66d548edae6f90e2397a4e0f0f0960420fbf04e8bff39c73a203",
    ('jgrt', 'Lazy', 'plain'): "7e28bf161ce125781d8488b65d26dc1c3a52f608eed764278bca063798b02370",
    ('jgrt', 'Bulk', 'plain'): "ef7105431ce170233d1362a45f9272d8bb7817ed2d3934b66bf3b3597ca46048",
    ('jgrt', 'Bulk-Partial', 'plain'): "ef7105431ce170233d1362a45f9272d8bb7817ed2d3934b66bf3b3597ca46048",
    ('lu', 'Eager', 'plain'): "d8a63309a09e7e58e741d5c313cb4045afef45717efa44f9e39117fa06b5f721",
    ('lu', 'Lazy', 'plain'): "d2dcfdd603a1b03bbfc0da1395dcb2068ff0f3a73b6acbdb81d1107d58f68714",
    ('lu', 'Bulk', 'plain'): "81102c6e5673e78c08b601d6b91d9bce6a7c4918b3fd0cd497fd5793a6f9b769",
    ('lu', 'Bulk-Partial', 'plain'): "81102c6e5673e78c08b601d6b91d9bce6a7c4918b3fd0cd497fd5793a6f9b769",
    ('mc', 'Eager', 'plain'): "dade6e1667049de96d37239d62971a04628d7d6df21984ea2262deefe808dfab",
    ('mc', 'Lazy', 'plain'): "e32b25c8592396ec52507fe7d0b005f4d7d171b055d503532e5e8c8aac4981d3",
    ('mc', 'Bulk', 'plain'): "cd8c260d77e0fae1c429d6a40b3a6e07206d3abd5526a85b2a15d23ab892197b",
    ('mc', 'Bulk-Partial', 'plain'): "cd8c260d77e0fae1c429d6a40b3a6e07206d3abd5526a85b2a15d23ab892197b",
    ('moldyn', 'Eager', 'plain'): "8a0b7472a44fe2f1d6385c47be6f5d231c20920732eb54764d11caa5cd988729",
    ('moldyn', 'Lazy', 'plain'): "01b8ad232dd809171dc596ce38bbe9def415d18aa31080b1caf19849aae89a85",
    ('moldyn', 'Bulk', 'plain'): "b25f8bc4219584d04e34ba9bea81ea412e4841df899c92e3567c6c05a93aa8ba",
    ('moldyn', 'Bulk-Partial', 'plain'): "b25f8bc4219584d04e34ba9bea81ea412e4841df899c92e3567c6c05a93aa8ba",
    ('series', 'Eager', 'plain'): "693ff12cdc7f6a1a013adc3185d12bd723204a2c20ee5595d96686bd986f3c3e",
    ('series', 'Lazy', 'plain'): "7bb74ad5945e82e0ca43decd1bb446fa2f2d8e17fdfccc8eadd2b81beb513d5a",
    ('series', 'Bulk', 'plain'): "279c4311b08528fd116fb11ffcbbea5f62799acb7fb16de1ee3cc4cfa5b7fb08",
    ('series', 'Bulk-Partial', 'plain'): "279c4311b08528fd116fb11ffcbbea5f62799acb7fb16de1ee3cc4cfa5b7fb08",
    ('sjbb2k', 'Eager', 'plain'): "e85a2544efa5882aae840625a70b494e12f38482df23bb012fa5fbfd5eb4dd27",
    ('sjbb2k', 'Lazy', 'plain'): "eb78c9198b4353c4baea4b6108ed31b909836eac26b0a47dce2103b083a68de7",
    ('sjbb2k', 'Bulk', 'plain'): "d814fd7018b75cd70afea3038e10865dfef3f7a105c4a6c17140a8eb047ef630",
    ('sjbb2k', 'Bulk-Partial', 'plain'): "0ef7394a37f719abd0098876a672a51bc99162c0a0da7d280c17d4a465382937",
    ('mc', 'Bulk', 'smt'): "480118ff9f412679fe439b6328019ba47167d276385f5d454a2f99c9d32823d6",
    ('mc', 'Eager', 'swap'): "1c15391e6fe11d12999861f149b7a87f3fd31636dd38bb9bb29e8ef81cbceb17",
    ('mc', 'Bulk', 'timed'): "1bc71e9a98505e7db4d72f748a7fffa8c9784c9ec84f027923986ca698ba7876",
}


@pytest.mark.parametrize(
    "key", sorted(PINS), ids=lambda key: "-".join(key)
)
def test_run_matches_pin(key):
    assert _run(key) == PINS[key]


def test_pins_cover_every_kernel_and_scheme():
    plain = {(app, scheme) for app, scheme, variant in PINS if variant == "plain"}
    schemes = [e.name for e in scheme_entries("tm", include_variants=True)]
    assert plain == {(app, scheme) for app in TM_KERNELS for scheme in schemes}
    assert {variant for *_, variant in PINS} == {"plain", "smt", "swap", "timed"}


def _all_keys():
    schemes = [e.name for e in scheme_entries("tm", include_variants=True)]
    keys = [(app, scheme, "plain") for app in sorted(TM_KERNELS) for scheme in schemes]
    keys += [("mc", "Bulk", "smt"), ("mc", "Eager", "swap"), ("mc", "Bulk", "timed")]
    return keys


if __name__ == "__main__":  # pragma: no cover - pin regeneration aid
    for key in _all_keys():
        print(f"    {key!r}: \"{_run(key)}\",")
