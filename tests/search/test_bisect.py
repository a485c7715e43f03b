"""Unit tests for certified bracketing + bisection."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.search import (
    BisectionCertificate,
    BracketHint,
    CertificateEntry,
    SearchError,
    ThresholdBisector,
    exhaustive_first_false,
)


def ladder_of(n, start=1.0, step=0.01):
    return tuple(round(start - step * i, 4) for i in range(n))


def counting_probe(boundary):
    """A monotone predicate probe that counts its fresh evaluations."""
    calls = []

    def probe(index):
        calls.append(index)
        return index < boundary, False

    return probe, calls


class TestBisector:
    @pytest.mark.parametrize("boundary", [1, 2, 17, 39, 46, 47])
    def test_finds_every_boundary_cold(self, boundary):
        ladder = ladder_of(47)
        probe, calls = counting_probe(boundary)
        certificate = ThresholdBisector(ladder, probe).find_first_false("vmin")
        assert certificate.boundary_index == boundary
        assert certificate.boundary_index == exhaustive_first_false(
            ladder, lambda i: i < boundary
        )
        assert certificate.verify()

    def test_logarithmic_evaluation_count(self):
        ladder = ladder_of(64)
        probe, calls = counting_probe(40)
        ThresholdBisector(ladder, probe).find_first_false("vmin")
        # Galloping + bisection: far below the 41 evaluations a walk pays.
        assert len(calls) <= 16

    def test_predicate_false_everywhere_certifies_boundary_zero(self):
        ladder = ladder_of(10)
        probe, _ = counting_probe(0)
        certificate = ThresholdBisector(ladder, probe).find_first_false("vmin")
        assert certificate.boundary_index == 0
        assert certificate.boundary_voltage_above is None
        assert certificate.verify()

    def test_predicate_true_everywhere_certifies_grid_exhausted(self):
        ladder = ladder_of(10)
        probe, _ = counting_probe(10)
        certificate = ThresholdBisector(ladder, probe).find_first_false("vmin")
        assert certificate.boundary_index == 10
        assert certificate.boundary_voltage_below is None
        assert certificate.boundary_voltage_above == ladder[-1]
        assert certificate.verify()

    def test_each_index_probed_at_most_once(self):
        ladder = ladder_of(50)
        probe, calls = counting_probe(23)
        ThresholdBisector(ladder, probe).find_first_false("vmin")
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("above,below", [(0.80, 0.74), (0.95, 0.40), (0.78, 0.77)])
    def test_correct_hint_shrinks_the_search(self, above, below):
        ladder = ladder_of(60)
        boundary = 23  # first false at 0.77
        probe, calls = counting_probe(boundary)
        certificate = ThresholdBisector(ladder, probe).find_first_false(
            "vmin", hint=BracketHint(above_v=above, below_v=below)
        )
        assert certificate.boundary_index == boundary
        assert certificate.verify()

    @pytest.mark.parametrize(
        "hint",
        [
            BracketHint(above_v=0.50, below_v=0.45),  # entirely below the boundary
            BracketHint(above_v=0.99, below_v=0.97),  # entirely above
            BracketHint(above_v=2.0, below_v=-1.0),   # off the grid both ways
            BracketHint(above_v=0.77),                # half-open, wrong side
            BracketHint(below_v=0.90),
        ],
    )
    def test_wrong_hints_never_change_the_answer(self, hint):
        ladder = ladder_of(60)
        boundary = 23
        probe, _ = counting_probe(boundary)
        certificate = ThresholdBisector(ladder, probe).find_first_false(
            "vmin", hint=hint
        )
        assert certificate.boundary_index == boundary
        assert certificate.verify()

    def test_single_point_ladder(self):
        for boundary in (0, 1):
            probe, _ = counting_probe(boundary)
            certificate = ThresholdBisector((0.61,), probe).find_first_false("vmin")
            assert certificate.boundary_index == boundary

    def test_rejects_empty_and_non_descending_ladders(self):
        probe, _ = counting_probe(1)
        with pytest.raises(SearchError):
            ThresholdBisector((), probe)
        with pytest.raises(SearchError):
            ThresholdBisector((0.5, 0.6), probe)
        with pytest.raises(SearchError):
            ThresholdBisector((0.5, 0.5), probe)

    def test_cache_flag_is_recorded_in_entries(self):
        ladder = ladder_of(20)

        def probe(index):
            return index < 7, index % 2 == 0  # even probes "came from cache"

        certificate = ThresholdBisector(ladder, probe).find_first_false("vmin")
        fresh = {e.index for e in certificate.entries if not e.from_cache}
        hits = {e.index for e in certificate.entries if e.from_cache}
        assert all(i % 2 == 1 for i in fresh)
        assert all(i % 2 == 0 for i in hits)
        assert certificate.n_evaluations == len(fresh)
        assert certificate.n_cache_hits == len(hits)


class TestCertificateVerification:
    LADDER = ladder_of(20)

    def entries(self, pairs):
        return tuple(
            CertificateEntry(index=i, voltage_v=self.LADDER[i], predicate=p)
            for i, p in pairs
        )

    def test_valid_certificate_passes(self):
        certificate = BisectionCertificate(
            quantity="vmin",
            ladder=self.LADDER,
            boundary_index=5,
            entries=self.entries([(0, True), (4, True), (5, False), (9, False)]),
        )
        assert certificate.verify()

    def test_rejects_non_adjacent_bracket(self):
        certificate = BisectionCertificate(
            quantity="vmin",
            ladder=self.LADDER,
            boundary_index=5,
            entries=self.entries([(0, True), (5, False)]),  # index 4 missing
        )
        with pytest.raises(SearchError, match="not adjacent"):
            certificate.verify()

    def test_rejects_evidence_inconsistent_with_monotonicity(self):
        certificate = BisectionCertificate(
            quantity="vmin",
            ladder=self.LADDER,
            boundary_index=5,
            entries=self.entries([(3, False), (4, True), (5, False)]),
        )
        with pytest.raises(SearchError, match="inconsistent"):
            certificate.verify()

    def test_rejects_wrong_ladder_voltage(self):
        entries = (
            CertificateEntry(index=4, voltage_v=0.123, predicate=True),
            CertificateEntry(index=5, voltage_v=self.LADDER[5], predicate=False),
        )
        certificate = BisectionCertificate(
            quantity="vmin", ladder=self.LADDER, boundary_index=5, entries=entries
        )
        with pytest.raises(SearchError, match="does not match"):
            certificate.verify()

    def test_rejects_out_of_range_boundary(self):
        certificate = BisectionCertificate(
            quantity="vmin", ladder=self.LADDER, boundary_index=99, entries=()
        )
        with pytest.raises(SearchError, match="outside grid"):
            certificate.verify()

    def test_to_dict_is_json_shaped(self):
        certificate = BisectionCertificate(
            quantity="vcrash",
            ladder=self.LADDER,
            boundary_index=5,
            entries=self.entries([(4, True), (5, False)]),
        )
        document = certificate.to_dict()
        assert document["quantity"] == "vcrash"
        assert document["boundary_index"] == 5
        assert document["boundary_voltage_above"] == self.LADDER[4]
        assert document["boundary_voltage_below"] == self.LADDER[5]
        assert document["evaluated_indices"] == [4, 5]


@st.composite
def boundary_cases(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    boundary = draw(st.integers(min_value=0, max_value=n))
    hint_above = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
    hint_below = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
    return n, boundary, hint_above, hint_below


class TestSearchStepsGenerator:
    """``search_steps`` is the generator form of ``find_first_false``: driving
    it by hand (answering each yielded index at once) yields the identical
    certificate for random boundaries and random, possibly wrong, hints."""

    @given(case=boundary_cases())
    @settings(max_examples=200, deadline=None)
    def test_hand_driven_generator_equals_sequential_driver(self, case):
        n, boundary, hint_above, hint_below = case
        ladder = ladder_of(n)

        def probe(index):
            return index < boundary, False

        hint = BracketHint(
            above_v=None if hint_above is None else ladder[hint_above],
            below_v=None if hint_below is None else ladder[hint_below],
        )
        sequential = ThresholdBisector(ladder, probe).find_first_false("vmin", hint)

        steps = ThresholdBisector(ladder).search_steps("vmin", hint)
        try:
            index = next(steps)
            while True:
                index = steps.send(probe(index))
        except StopIteration as stop:
            generated = stop.value
        assert generated == sequential
        assert generated.boundary_index == boundary
        assert generated.verify()
