"""One repetition of one workload, in the fresh interpreter it runs in.

Started by ``run.py`` as ``python child.py '<json request>'``; prints one
JSON line.  A fresh interpreter per repetition matters: the memo caches
(``repro.core.memo``) and codec counters (``repro.core.backend.codec``)
are process-global, so a repetition would otherwise warm them for the
next.  Both are read at the end of the repetition.

The request carries ``launched``, the parent's ``time.monotonic()`` just
before it started this process; CLOCK_MONOTONIC is system-wide, so the
set-up time spans interpreter start, ``import repro`` and the imports of
every layer, up to the first workload call.  ``wall_s`` and ``setup_s``
are calibrated to the reference host's speed (see ``phases.Timer``);
``wall_host_s`` and ``setup_host_s`` are the plain host seconds.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def measure(request: dict) -> dict:
    """Run the repetition ``request`` describes and return its record."""
    import repro  # noqa: F401  (set-up time includes the package import)

    import phases

    workload = request["workload"]
    mode = request.get("mode", "plain")
    timer = phases.Timer(request.get("run_id", "0"), trace=mode == "traced",
                         calibrate=mode != "profiled")
    runner = phases.RUNNERS[workload]
    profile = None
    if mode == "profiled":
        import cProfile

        profile = cProfile.Profile()
    launched = request.get("launched")
    setup_host_s = time.monotonic() - launched if launched is not None else 0.0
    if profile is not None:
        profile.enable()
    out = runner(request["seed"], request.get("backend"), timer, **request.get("sizes", {}))
    if profile is not None:
        profile.disable()
    timer.finish()

    phases.check(workload, out)
    failures = out.failures
    record = {
        "workload": workload,
        "mode": mode,
        "backend": request.get("backend") or _default_backend(),
        "setup_host_s": setup_host_s,
        "wall_host_s": timer.host_seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": phases.input_units(workload, out),
        "attempted": len(out.ops),
        "failed": len(failures),
        "failures": failures[:10],
        "digest": phases.digest(out),
        "sim": phases.simulated_metrics(workload, out),
        "counts": phases.layer_counts(workload, out),
    }
    if timer.calibrate:
        record["setup_s"] = setup_host_s * phases.REFERENCE_SLICE_S / timer.slices[0]
        record["wall_s"] = timer.calibrated_seconds()
    if mode == "traced":
        record["spans"] = timer.records
        record["span_self_s"] = timer.self_times()
        record["span_coverage_pct"] = timer.coverage_pct()
    if profile is not None:
        import pstats

        import layers

        here = os.path.dirname(os.path.abspath(__file__))
        record["prof"] = layers.rollup(pstats.Stats(profile), request["src"], here)
    return record


def _default_backend() -> str:
    from repro.tm.params import TM_DEFAULTS

    return TM_DEFAULTS.sig_backend


def main(argv) -> int:
    request = json.loads(argv[1])
    sys.path.insert(0, request["src"])
    print(json.dumps(measure(request)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
