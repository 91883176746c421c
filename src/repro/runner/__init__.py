"""Parallel experiment execution: grids, worker pools, result caching.

The evaluation's figure and table drivers all reduce to sweeping
``run_tm_comparison`` / ``run_tls_comparison`` /
``run_checkpoint_comparison`` over an (application × seed × knob) grid.  This package runs such grids across worker
processes with deterministic merging, per-point retry, and an on-disk
result cache keyed by parameters *and* simulator code.  One
point-resolution engine (:func:`resolve_point`: hit, claim and compute,
or wait) serves both :class:`GridRunner` and the job service — see
``docs/RUNNER.md`` for the full contract.

>>> from repro.runner import GridRunner, tm_point
>>> runner = GridRunner(jobs=4)                        # doctest: +SKIP
>>> merged = runner.run([tm_point("mc"), tm_point("cb")])  # doctest: +SKIP
"""

from repro.runner.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CLAIM_TTL,
    ResultCache,
    code_fingerprint,
)
from repro.runner.engine import (
    FailureRecord,
    Resolution,
    load_failure_records,
    resolve_point,
)
from repro.runner.grid import (
    GridExecutionError,
    GridPoint,
    GridResult,
    GridRunner,
    checkpoint_point,
    default_jobs,
    execution_cost,
    submission_order,
    tls_point,
    tm_point,
)
from repro.runner.serialize import (
    canonical_json,
    comparison_from_dict,
    comparison_to_dict,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CLAIM_TTL",
    "FailureRecord",
    "GridExecutionError",
    "GridPoint",
    "GridResult",
    "GridRunner",
    "Resolution",
    "ResultCache",
    "canonical_json",
    "checkpoint_point",
    "code_fingerprint",
    "comparison_from_dict",
    "comparison_to_dict",
    "default_jobs",
    "execution_cost",
    "load_failure_records",
    "resolve_point",
    "submission_order",
    "tls_point",
    "tm_point",
]
