"""Uniform accounting of what a characterization search cost.

Both search modes produce a :class:`SearchReport`: the exhaustive drivers
report the grid walk they performed, the adaptive drivers report fresh
evaluations, cache hits, the certificates proving grid-equivalence, and the
evaluation count the exhaustive walk *would* have paid on the same grid.
Campaign unit summaries, CLI ``--json`` documents and the fleet reports all
carry this dictionary, which is what the ``bench_adaptive_search`` acceptance
benchmark sums into its >= 5x claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Tuple

from .bisect import BisectionCertificate

#: The two search modes every driver and campaign knob accepts.
SEARCH_MODES: Tuple[str, ...] = ("adaptive", "exhaustive")


def validate_search_mode(mode: str) -> str:
    """Normalize and validate a search-mode knob value."""
    normalized = str(mode).strip().lower()
    if normalized not in SEARCH_MODES:
        from .cache import SearchError

        raise SearchError(
            f"unknown search mode {mode!r}; expected one of {SEARCH_MODES}"
        )
    return normalized


@dataclass
class SearchReport:
    """What one search (or one exhaustive walk) actually evaluated.

    ``n_exhaustive_equivalent`` is the number of fault-field evaluations the
    exhaustive driver performs for the same answer on the same grid; for an
    exhaustive run it equals ``n_evaluations`` by construction.
    """

    mode: str
    n_evaluations: int
    n_cache_hits: int = 0
    n_exhaustive_equivalent: int = 0
    certificates: Tuple[BisectionCertificate, ...] = ()

    @property
    def evaluations_saved(self) -> int:
        """Evaluations avoided relative to the exhaustive walk (>= 0)."""
        return max(0, self.n_exhaustive_equivalent - self.n_evaluations)

    @property
    def saved_fraction(self) -> float:
        """Saved evaluations as a fraction of the exhaustive cost."""
        if self.n_exhaustive_equivalent <= 0:
            return 0.0
        return self.evaluations_saved / self.n_exhaustive_equivalent

    def verify_certificates(self) -> bool:
        """Re-check every attached certificate (no evaluations are re-run)."""
        for certificate in self.certificates:
            certificate.verify()
        return True

    def to_dict(self) -> Dict[str, Any]:
        """JSON form carried by unit summaries and ``--json`` documents."""
        return {
            "mode": self.mode,
            "n_evaluations": self.n_evaluations,
            "n_cache_hits": self.n_cache_hits,
            "n_exhaustive_equivalent": self.n_exhaustive_equivalent,
            "evaluations_saved": self.evaluations_saved,
            "certificates": [c.to_dict() for c in self.certificates],
        }


def merge_search_documents(documents: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Sum the JSON forms of several search reports into fleet totals.

    Accepts the dictionaries produced by :meth:`SearchReport.to_dict` (or
    loaded back from campaign unit summaries) and returns the aggregate the
    fleet reports publish: total evaluations, cache hits, the exhaustive
    equivalent, the saved fraction and the resulting speedup factor.
    """
    totals = {
        "n_units": 0,
        "n_evaluations": 0,
        "n_cache_hits": 0,
        "n_exhaustive_equivalent": 0,
    }
    for document in documents:
        if not document:
            continue
        totals["n_units"] += 1
        totals["n_evaluations"] += int(document.get("n_evaluations", 0))
        totals["n_cache_hits"] += int(document.get("n_cache_hits", 0))
        totals["n_exhaustive_equivalent"] += int(
            document.get("n_exhaustive_equivalent", 0)
        )
    saved = max(0, totals["n_exhaustive_equivalent"] - totals["n_evaluations"])
    totals["evaluations_saved"] = saved
    totals["saved_fraction"] = (
        saved / totals["n_exhaustive_equivalent"]
        if totals["n_exhaustive_equivalent"] > 0
        else 0.0
    )
    totals["speedup_factor"] = (
        totals["n_exhaustive_equivalent"] / totals["n_evaluations"]
        if totals["n_evaluations"] > 0
        else 0.0
    )
    return totals


__all__ = [
    "SEARCH_MODES",
    "SearchReport",
    "merge_search_documents",
    "validate_search_mode",
]
