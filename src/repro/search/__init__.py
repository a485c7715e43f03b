"""Adaptive characterization search: certified bisection, caching, warm starts.

The paper's threshold quantities (Vmin, Vcrash, the critical-region edges)
are discovered by the exhaustive drivers in :mod:`repro.harness.sweep` by
walking the whole voltage grid.  This subsystem finds the *same* grid answers
with an order of magnitude fewer fault-field evaluations:

* :class:`ThresholdBisector` — bracketing + bisection over the descending
  ladder, emitting a :class:`BisectionCertificate` that proves grid
  equivalence;
* :class:`EvalCache` — memoized operating-point evaluations shared across
  searches in-process and persisted per die by the campaign store;
* :class:`WarmStartModel` — fleet-quantile warm brackets (same part number
  first, pooled fallback, cold bisection when nothing is known);
* :class:`SearchReport` — uniform evaluation accounting for both modes.

See ``docs/adaptive_search.md`` for the algorithm and the equivalence
argument.
"""

from .bisect import (
    BisectionCertificate,
    BracketHint,
    CertificateEntry,
    ThresholdBisector,
    exhaustive_first_false,
)
from .cache import CACHE_VERSION, EvalCache, PointEvaluation, SearchError, point_key
from .outcome import (
    SEARCH_MODES,
    SearchReport,
    merge_search_documents,
    validate_search_mode,
)
from .warmstart import WarmStartModel

__all__ = [
    "BisectionCertificate",
    "BracketHint",
    "CACHE_VERSION",
    "CertificateEntry",
    "EvalCache",
    "PointEvaluation",
    "SEARCH_MODES",
    "SearchError",
    "SearchReport",
    "ThresholdBisector",
    "WarmStartModel",
    "exhaustive_first_false",
    "merge_search_documents",
    "point_key",
    "validate_search_mode",
]
