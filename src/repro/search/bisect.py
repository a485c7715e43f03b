"""Certified bracketing + bisection over descending voltage ladders.

The paper's headline quantities — Vmin, Vcrash, the critical-region edges —
are *threshold crossings*: walking a rail down the 10 mV grid, some monotone
predicate (``no observable fault``, ``design still operates``) is true for a
prefix of the ladder and false for the rest.  The exhaustive drivers locate
the crossing by evaluating every grid point; :class:`ThresholdBisector`
locates the same crossing with ``O(log n)`` evaluations and *proves* the
answer is identical:

* the **bracket invariant** — at every moment the search holds an evaluated
  index where the predicate is true and an evaluated index where it is false;
* the **certificate** — every evaluation is recorded, and the final bracket
  is adjacent (``true at boundary-1``, ``false at boundary``), so under
  monotonicity the boundary equals what a full ladder walk would report.

Monotonicity itself is a property of the fault model (a bitcell that fires
at some voltage fires at every lower voltage; the run-axis median preserves
this), asserted by the property tests in ``tests/search/``.

Warm starts are *hints, not trust*: a bracket seeded from the fleet's
running quantiles is still evaluated at both ends, and the search degrades
gracefully — galloping outward — whenever a hint turns out wrong, so a bad
hint can cost evaluations but can never change the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.obs import trace as obs_trace

from .cache import SearchError


@dataclass(frozen=True)
class BracketHint:
    """A warm-start bracket for one threshold search, in volts.

    ``above_v`` is a voltage believed to be on the predicate-true side of the
    boundary (higher voltage), ``below_v`` one believed to be on the false
    side.  Either may be ``None``; a completely empty hint means a cold
    search.  Hints are clamped onto the ladder, so out-of-grid voltages are
    safe.
    """

    above_v: Optional[float] = None
    below_v: Optional[float] = None

    @property
    def is_cold(self) -> bool:
        """Whether the hint carries no information at all."""
        return self.above_v is None and self.below_v is None


@dataclass(frozen=True)
class CertificateEntry:
    """One recorded evaluation of the search predicate."""

    index: int
    voltage_v: float
    predicate: bool
    from_cache: bool = False


@dataclass(frozen=True)
class BisectionCertificate:
    """Proof object that a bisection found the exhaustive-walk boundary.

    ``boundary_index`` is the first ladder index where the predicate is
    false; ``len(ladder)`` means the predicate held all the way down the
    grid.  :meth:`verify` re-checks the evidence; it does not re-run any
    evaluation.
    """

    quantity: str
    ladder: Tuple[float, ...]
    boundary_index: int
    entries: Tuple[CertificateEntry, ...]

    @property
    def n_evaluations(self) -> int:
        """Number of fresh predicate evaluations the search paid for."""
        return sum(1 for entry in self.entries if not entry.from_cache)

    @property
    def n_cache_hits(self) -> int:
        """Number of probes served from a cache or an earlier search."""
        return sum(1 for entry in self.entries if entry.from_cache)

    @property
    def boundary_voltage_above(self) -> Optional[float]:
        """Lowest predicate-true ladder voltage (``None`` if none is true)."""
        if self.boundary_index == 0:
            return None
        return self.ladder[self.boundary_index - 1]

    @property
    def boundary_voltage_below(self) -> Optional[float]:
        """Highest predicate-false ladder voltage (``None`` if grid exhausted)."""
        if self.boundary_index >= len(self.ladder):
            return None
        return self.ladder[self.boundary_index]

    def verify(self) -> bool:
        """Check the certificate's evidence; raise :class:`SearchError` if bad.

        Valid evidence means: every recorded index is on the ladder with the
        ladder's voltage; the recorded predicates are consistent with one
        monotone boundary at ``boundary_index`` (true strictly above, false
        at or below); and the bracket is *adjacent* — ``boundary_index - 1``
        and ``boundary_index`` were both actually evaluated (grid edges
        excepted), which is exactly the evidence an exhaustive walk would
        hold at the crossing.
        """
        n = len(self.ladder)
        if not 0 <= self.boundary_index <= n:
            raise SearchError(
                f"{self.quantity}: boundary index {self.boundary_index} outside grid"
            )
        seen: Dict[int, bool] = {}
        for entry in self.entries:
            if not 0 <= entry.index < n:
                raise SearchError(f"{self.quantity}: evaluated index {entry.index} off grid")
            if self.ladder[entry.index] != entry.voltage_v:
                raise SearchError(
                    f"{self.quantity}: entry voltage {entry.voltage_v} does not match "
                    f"ladder[{entry.index}] = {self.ladder[entry.index]}"
                )
            if entry.index in seen and seen[entry.index] != entry.predicate:
                raise SearchError(
                    f"{self.quantity}: contradictory evaluations at index {entry.index}"
                )
            seen[entry.index] = entry.predicate
        for index, value in seen.items():
            expected = index < self.boundary_index
            if value != expected:
                raise SearchError(
                    f"{self.quantity}: evaluation at index {index} is {value}, "
                    f"inconsistent with boundary {self.boundary_index} under monotonicity"
                )
        if self.boundary_index > 0 and (self.boundary_index - 1) not in seen:
            raise SearchError(
                f"{self.quantity}: bracket not adjacent — index "
                f"{self.boundary_index - 1} (last true) was never evaluated"
            )
        if self.boundary_index < n and self.boundary_index not in seen:
            raise SearchError(
                f"{self.quantity}: bracket not adjacent — index "
                f"{self.boundary_index} (first false) was never evaluated"
            )
        return True

    def to_dict(self) -> Dict[str, object]:
        """Compact JSON form (stored in campaign unit summaries)."""
        return {
            "quantity": self.quantity,
            "n_grid_points": len(self.ladder),
            "boundary_index": self.boundary_index,
            "boundary_voltage_above": self.boundary_voltage_above,
            "boundary_voltage_below": self.boundary_voltage_below,
            "n_evaluations": self.n_evaluations,
            "n_cache_hits": self.n_cache_hits,
            "evaluated_indices": [entry.index for entry in self.entries],
        }


class ThresholdBisector:
    """Find the first false index of a monotone predicate on a ladder.

    Parameters
    ----------
    ladder:
        Descending voltage grid, index 0 at the highest voltage.
    probe:
        ``probe(index) -> (predicate, from_cache)``; called at most once per
        index per search (results are memoized internally).  ``from_cache``
        marks probes that cost no fresh fault-field evaluation.  May be
        ``None`` when the caller drives :meth:`search_steps` itself (the
        fleet bisector answers many dies' pending probes per batched wave).
    """

    def __init__(
        self,
        ladder: Sequence[float],
        probe: Optional[Callable[[int], Tuple[bool, bool]]] = None,
    ) -> None:
        if not ladder:
            raise SearchError("cannot bisect an empty voltage ladder")
        if any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise SearchError("bisection ladders must be strictly descending")
        self.ladder = tuple(float(v) for v in ladder)
        self._probe = probe
        self._seen: Dict[int, bool] = {}
        self._entries: List[CertificateEntry] = []

    # ------------------------------------------------------------------
    def _evaluate_step(
        self, index: int
    ) -> Generator[int, Tuple[bool, bool], bool]:
        """Yield one probe request, memoized, recording the certificate entry.

        The generator protocol of the whole search: yielded values are
        ladder indices to probe, sent values are ``(predicate,
        from_cache)`` answers.  A memoized index never reaches the caller.
        """
        if index in self._seen:
            return self._seen[index]
        predicate, from_cache = yield index
        self._seen[index] = bool(predicate)
        self._entries.append(
            CertificateEntry(
                index=index,
                voltage_v=self.ladder[index],
                predicate=bool(predicate),
                from_cache=bool(from_cache),
            )
        )
        return self._seen[index]

    def _index_at_or_above(self, voltage_v: float) -> int:
        """Highest-index ladder point with voltage >= ``voltage_v``, clamped."""
        candidates = [i for i, v in enumerate(self.ladder) if v >= voltage_v - 1e-9]
        return candidates[-1] if candidates else 0

    def _index_at_or_below(self, voltage_v: float) -> int:
        """Lowest-index ladder point with voltage <= ``voltage_v``, clamped."""
        for i, v in enumerate(self.ladder):
            if v <= voltage_v + 1e-9:
                return i
        return len(self.ladder) - 1

    # ------------------------------------------------------------------
    def find_first_false(
        self,
        quantity: str,
        hint: Optional[BracketHint] = None,
    ) -> BisectionCertificate:
        """Locate the monotone predicate's first false index, certified.

        Without a hint the search starts from the grid edges; with one it
        starts from the hinted bracket and gallops outward whenever an end
        of the bracket fails to hold, so wrong hints cost evaluations but
        never correctness.

        This is the sequential driver of :meth:`search_steps`: each yielded
        index is answered immediately by the constructor's ``probe``.
        """
        if self._probe is None:
            raise SearchError(
                "this bisector was built without a probe; drive search_steps "
                "directly instead"
            )
        steps = self.search_steps(quantity, hint)
        try:
            index = next(steps)
            while True:
                index = steps.send(self._probe(index))
        except StopIteration as stop:
            return stop.value

    def search_steps(
        self,
        quantity: str,
        hint: Optional[BracketHint] = None,
    ) -> Generator[int, Tuple[bool, bool], BisectionCertificate]:
        """The search as a resumable generator of probe requests.

        Yields ladder indices that need evaluating; the caller sends back
        ``(predicate, from_cache)`` and receives the next index, until the
        generator returns the :class:`BisectionCertificate` (as the
        ``StopIteration`` value).  Exactly the probe sequence — and
        therefore exactly the certificate — of :meth:`find_first_false`;
        the generator form exists so a fleet driver can hold many searches
        open at once and answer one *wave* of pending probes with a single
        batched kernel call.
        """
        with obs_trace.span("search.bisect", quantity=quantity):
            return (yield from self._search_steps(quantity, hint))

    def _search_steps(
        self,
        quantity: str,
        hint: Optional[BracketHint],
    ) -> Generator[int, Tuple[bool, bool], BisectionCertificate]:
        n = len(self.ladder)
        hint = hint or BracketHint()

        # --- establish an evaluated TRUE anchor --------------------------
        true_idx: Optional[int] = None
        candidate = 0 if hint.above_v is None else self._index_at_or_above(hint.above_v)
        stride = 1
        while True:
            if (yield from self._evaluate_step(candidate)):
                true_idx = candidate
                break
            if candidate == 0:
                break  # predicate false on the whole grid
            candidate = max(0, candidate - stride)
            stride *= 2

        if true_idx is None:
            return self._certificate(quantity, boundary_index=0)

        # --- establish an evaluated FALSE anchor -------------------------
        false_idx: Optional[int] = None
        if hint.below_v is not None:
            candidate = max(self._index_at_or_below(hint.below_v), true_idx + 1)
        else:
            candidate = true_idx + 1
        stride = 1
        while candidate < n:
            if not (yield from self._evaluate_step(candidate)):
                false_idx = candidate
                break
            true_idx = max(true_idx, candidate)
            candidate = min(n - 1, candidate + stride) if candidate < n - 1 else n
            stride *= 2

        if false_idx is None:
            return self._certificate(quantity, boundary_index=n)

        # --- bisect the bracket ------------------------------------------
        while false_idx - true_idx > 1:
            mid = (true_idx + false_idx) // 2
            if (yield from self._evaluate_step(mid)):
                true_idx = mid
            else:
                false_idx = mid
        return self._certificate(quantity, boundary_index=false_idx)

    def _certificate(self, quantity: str, boundary_index: int) -> BisectionCertificate:
        certificate = BisectionCertificate(
            quantity=quantity,
            ladder=self.ladder,
            boundary_index=boundary_index,
            entries=tuple(self._entries),
        )
        certificate.verify()
        return certificate


def exhaustive_first_false(
    ladder: Sequence[float], predicate: Callable[[int], bool]
) -> int:
    """Reference linear scan: first index where ``predicate`` is false.

    The property tests pit :class:`ThresholdBisector` against this on random
    monotone grids; it is also what the exhaustive sweep drivers implicitly
    compute.
    """
    for index in range(len(ladder)):
        if not predicate(index):
            return index
    return len(ladder)


__all__ = [
    "BracketHint",
    "BisectionCertificate",
    "CertificateEntry",
    "ThresholdBisector",
    "exhaustive_first_false",
]
