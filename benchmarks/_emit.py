"""Machine-readable benchmark emission (the ``BENCH_*.json`` artifacts).

The human-facing benchmark output is an
:class:`repro.analysis.ExperimentReport` text table; this module adds the
machine-facing twin: one ``benchmarks/results/BENCH_<name>.json`` document
per benchmark, holding the *deterministic* metrics a CI regression guard
can compare run-over-run without flake.

The contract ``tools/check_bench_regression.py`` enforces:

* ``metrics`` holds only **count-based costs** (engine→backend crossings,
  kernel calls, cache hits, evaluations...) where *lower is better* and the
  value is a pure function of the code, never of machine load.  Wall-clock
  ratios belong in the text report, not here — timing flake must not gate
  CI.
* a committed baseline under ``benchmarks/baselines/`` pins each metric;
  the guard fails when a current value exceeds its baseline by more than
  the allowed fraction (default 30%), or when an expected metric vanishes.

Keep emission one call at the end of a benchmark body::

    from _emit import emit_json
    emit_json("exec_engine", {"recorded_evaluations": 28, "replay_served": 28, ...})
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Mapping, Optional

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Schema version of the emitted documents (bumped on layout changes so the
#: regression guard rejects stale artifacts loudly).
EMIT_VERSION = 1


def emit_json(
    name: str,
    metrics: Mapping[str, Any],
    extra: Optional[Mapping[str, Any]] = None,
) -> pathlib.Path:
    """Write one benchmark's machine-readable metrics document.

    ``metrics`` values must be plain numbers (the regression-guarded
    surface); ``extra`` carries free-form context (identity flags, sizes)
    that is recorded but never compared.
    """
    clean: Dict[str, float] = {}
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(
                f"metric {key!r} must be a plain number, got {value!r}; "
                "non-numeric context belongs in extra="
            )
        clean[str(key)] = value
    document = {
        "version": EMIT_VERSION,
        "benchmark": str(name),
        "metrics": clean,
        "extra": dict(extra or {}),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path


__all__ = ["EMIT_VERSION", "RESULTS_DIR", "emit_json"]
