"""Module -> layer map behind the ``prof.*`` per-layer shares.

The layers are the north-star layers of the reproduction: the speculative
event loop, signature encode, the codec (decode / expansion / RLE / BDM),
the memo caches, cache plus memory, the bus plus interconnect, workload
generation and analysis.  Code that is not on the reproduce path
(runner, service, trace store, CLI, errors) rolls up into ``other``;
code outside ``src/repro`` is ``builtins`` (C builtins and the standard
library) or ``harness`` (this benchmark's own files).

Packages map as a whole where every module belongs to one layer.
``repro.core`` mixes three layers, so each of its modules is listed on
its own: a new core module is *unmapped* until someone places it, and
:func:`layer_of` raises for it rather than guessing.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict

#: Every layer a ``prof.<layer>`` share is reported for, in table order.
LAYERS = (
    "event_loop",
    "sig_encode",
    "codec",
    "memo",
    "cache_mem",
    "bus",
    "workloads",
    "analysis",
    "obs",
    "other",
    "builtins",
    "harness",
)

#: Packages whose every module (present and future) is one layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "repro.tm": "event_loop",
    "repro.tls": "event_loop",
    "repro.checkpoint": "event_loop",
    "repro.spec": "event_loop",
    "repro.sim": "event_loop",
    "repro.core.backend": "codec",
    "repro.cache": "cache_mem",
    "repro.mem": "cache_mem",
    "repro.coherence": "bus",
    "repro.interconnect": "bus",
    "repro.workloads": "workloads",
    "repro.analysis": "analysis",
    "repro.obs": "obs",
    "repro.runner": "other",
    "repro.service": "other",
    "repro.trace": "other",
}

#: Modules placed one by one (``repro.core`` and the top level).
MODULE_LAYERS: Dict[str, str] = {
    "repro": "other",
    "repro.__main__": "other",
    "repro.cli": "other",
    "repro.errors": "other",
    "repro.core": "sig_encode",
    "repro.core.signature": "sig_encode",
    "repro.core.signature_config": "sig_encode",
    "repro.core.fields": "sig_encode",
    "repro.core.permutation": "sig_encode",
    "repro.core.bitvector": "sig_encode",
    "repro.core.disambiguation": "sig_encode",
    "repro.core.decode": "codec",
    "repro.core.expansion": "codec",
    "repro.core.rle": "codec",
    "repro.core.bdm": "codec",
    "repro.core.wordmask": "codec",
    "repro.core.memo": "memo",
}

#: ``calls.<name>`` counters: (module file suffix, function name).
CALL_COUNTERS = {
    "from_addresses": ("repro/core/signature.py", "from_addresses"),
    "flat_mask_many": ("repro/core/signature_config.py", "flat_mask_many"),
    "decode": ("repro/core/decode.py", "decode"),
    "rle_encode": ("repro/core/rle.py", "rle_encode"),
}


def layer_of(module: str) -> str:
    """The layer of a dotted ``repro`` module name.

    Raises :class:`LookupError` for a module no rule places.
    """
    layer = MODULE_LAYERS.get(module)
    if layer is not None:
        return layer
    package = module
    while package:
        layer = PACKAGE_LAYERS.get(package)
        if layer is not None:
            return layer
        package = package.rpartition(".")[0]
    raise LookupError(f"module {module!r} has no layer in perfbench/layers.py")


def module_name(src_dir: str, path: str) -> str:
    """Dotted module name of ``path``, a ``.py`` file under ``src_dir``."""
    relative = os.path.relpath(path, src_dir)[: -len(".py")]
    parts = relative.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def rollup(stats: pstats.Stats, src_dir: str, harness_dir: str) -> Dict[str, float]:
    """``prof.<layer>`` self-time shares (percent) and ``calls.<name>``
    counts from a cProfile run."""
    src_dir = os.path.abspath(src_dir)
    harness_dir = os.path.abspath(harness_dir)
    self_time = {layer: 0.0 for layer in LAYERS}
    calls = {name: 0 for name in CALL_COUNTERS}
    for (filename, _, function), (_, ncalls, tottime, _, _) in stats.stats.items():
        path = os.path.abspath(filename)
        if path.startswith(src_dir + os.sep):
            layer = layer_of(module_name(src_dir, path))
        elif path.startswith(harness_dir + os.sep):
            layer = "harness"
        else:
            layer = "builtins"
        self_time[layer] += tottime
        for name, (suffix, target) in CALL_COUNTERS.items():
            if function == target and filename.endswith(suffix):
                calls[name] += ncalls
    total = sum(self_time.values()) or 1.0
    out = {f"prof.{layer}": 100.0 * t / total for layer, t in self_time.items()}
    out.update({f"calls.{name}": count for name, count in calls.items()})
    return out
