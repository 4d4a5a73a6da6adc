from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legsum as L
from legsum import simplicity, sums
from legsum.simplicity import (
    CASE_BIG_PEAK,
    CASE_NONE,
    CASE_ONE_PEAK,
    CASE_TWO_PEAK,
)

from conftest import make_grid_specs, random_sums, wide_step_sums
from oracles import form_representations, full_window_verdict


# --- the shape criterion ---------------------------------------------------------


def test_criterion_cases(cat):
    U1, C, A, B, Ap = (cat[k] for k in ("U1", "C", "A", "B", "Aprime"))

    def case(parts):
        return L.criterion(L.SumSpec.of(parts))

    assert case([(U1, 3)]) == L.CriterionVerdict(True, CASE_ONE_PEAK, (("U1", 3, 1),))
    assert case([(U1, 1), (C, 2)]).matched_case == CASE_ONE_PEAK
    assert case([(A, 2)]) == L.CriterionVerdict(True, CASE_TWO_PEAK, (("A", 2, 2),))
    assert case([(A, 3)]).simple
    assert case([(B, 1)]) == L.CriterionVerdict(True, CASE_BIG_PEAK, (("B", 1, 3),))
    assert case([(C, 1), (B, 1)]).matched_case == CASE_BIG_PEAK
    assert case([(A, 1)]).matched_case == CASE_BIG_PEAK
    assert case([(B, 2)]) == L.CriterionVerdict(False, CASE_NONE, (("B", 2, 3),))
    assert not case([(A, 1), (B, 1)]).simple
    assert not case([(A, 1), (Ap, 1)]).simple
    assert not case([(U1, 1), (B, 2)]).simple


def test_criterion_two_peak_multiplicity_boundary(A, B):
    # two copies of a >=3-peak knot are nonsimple even with one-peak company
    assert not L.criterion(L.SumSpec.of([(B, 2)])).simple
    # but arbitrarily many copies of a two-peak knot stay simple
    assert L.criterion(L.SumSpec.of([(A, 5)])).matched_case == CASE_TWO_PEAK


# --- the window oracle ------------------------------------------------------------


def test_window_verdict_simple(A):
    v = L.simplicity_in_window(L.SumSpec.of([(A, 2)]), -7)
    assert v.simple_in_window
    assert v.witness is None
    assert (v.tb_min, v.top_tb) == (-7, 1)


def test_window_verdict_nonsimple_frozen(B):
    v = L.simplicity_in_window(L.SumSpec.of([(B, 2)]), -2)
    assert not v.simple_in_window
    assert v.witness.point == (1, 0)
    assert v.witness.tuple_a.id_string() == "B(0,-4)|B(0,4)"
    assert v.witness.tuple_b.id_string() == "B(0,0)|B(0,0)"


def test_window_witness_sits_at_nmax(cat):
    D = L.make_range("D", [(0, -2), (0, 4)])
    spec = L.SumSpec.of([(cat["A"], 1), (D, 1)])
    v = L.simplicity_in_window(spec, spec.top_tb - 4)
    assert not v.simple_in_window
    assert v.witness.point == (0, 1)
    poset = L.build_quotient(spec, spec.top_tb - 4)
    assert v.witness.point == L.find_nmax(poset)[0]


def test_window_workers_agree(B):
    spec = L.SumSpec.of([(B, 2)])
    assert L.simplicity_in_window(spec, -2, workers=2) == L.simplicity_in_window(
        spec, -2
    )


# --- verdicts built down to the first nonsimple row ---------------------------------


def assert_verdict_matches_the_full_window(spec: L.SumSpec, tb_min: int) -> None:
    assert L.simplicity_in_window(spec, tb_min) == full_window_verdict(spec, tb_min), (spec.label(), tb_min)


def test_verdicts_match_the_full_window_on_grid(cat):
    specs = make_grid_specs(cat, 4)
    assert len(specs) == 125
    for spec in specs:
        for depth in (0, 1, 3, 8, 12):
            assert_verdict_matches_the_full_window(spec, spec.top_tb - depth)


@given(st.one_of(random_sums(), wide_step_sums()), st.integers(0, 16))
def test_verdicts_match_the_full_window_on_random_ranges(spec, depth):
    assert_verdict_matches_the_full_window(spec, spec.top_tb - depth)


def test_verdicts_match_the_full_window_on_powers(B):
    for n in range(1, 8):
        spec = L.SumSpec.of([(B, n)])
        for depth in (0, 2):
            assert_verdict_matches_the_full_window(spec, spec.top_tb - depth)


def test_verdicts_do_not_rest_on_the_criterion(monkeypatch, cat):
    specs = make_grid_specs(cat, 4)
    want = [L.simplicity_in_window(spec, spec.top_tb - depth) for spec in specs for depth in (0, 3, 8)]
    real = simplicity.criterion
    flipped = []

    def opposite(spec: L.SumSpec) -> L.CriterionVerdict:
        flipped.append(spec)
        return L.CriterionVerdict(not real(spec).simple, CASE_NONE, ())

    monkeypatch.setattr(simplicity, "criterion", opposite)
    assert [L.simplicity_in_window(spec, spec.top_tb - depth) for spec in specs for depth in (0, 3, 8)] == want
    assert len(flipped) == len(want)


# --- the theorem, checked on the whole box ---------------------------------------


def assert_criterion_is_the_box_verdict(spec: L.SumSpec) -> None:
    """Check the criterion against the box scan down to F0, under which every point is simple, and the dichotomy at each maximal point."""
    report = sums._box_report(spec, sums._box_floor(spec))
    assert L.criterion(spec).simple == report.simple, spec.label()
    assert all(v.case in ("case1", "case2") for v in report.nmax), (spec.label(), report.nmax)


def test_criterion_is_the_box_verdict_on_the_catalog(cat):
    specs = make_grid_specs(cat, 5)
    assert len(specs) == 251
    for spec in specs:
        assert_criterion_is_the_box_verdict(spec)


@settings(max_examples=200)
@given(st.one_of(random_sums(max_n=6), wide_step_sums(max_n=5)))
def test_criterion_is_the_box_verdict_on_random_ranges(spec):
    assert_criterion_is_the_box_verdict(spec)


# --- explicit witnesses -------------------------------------------------------------


def witness_classes(spec: L.SumSpec, w: L.WitnessPair) -> tuple[int, int]:
    classes = L.enumerate_fiber(spec, *w.point)
    ia = [i for i, c in enumerate(classes) if w.tuple_a in c.members]
    ib = [i for i, c in enumerate(classes) if w.tuple_b in c.members]
    assert len(ia) == 1 and len(ib) == 1
    return ia[0], ib[0]


@given(st.one_of(random_sums(), wide_step_sums()))
def test_criterion_matches_window_on_random_ranges(spec):
    verdict = L.criterion(spec)
    tb_min = spec.top_tb - 3
    if not verdict.simple:
        w = L.nonsimplicity_witness(spec)
        ia, ib = witness_classes(spec, w)
        assert ia != ib
        tb_min = min(tb_min, w.point[0])
    assert L.simplicity_in_window(spec, tb_min).simple_in_window == verdict.simple


def test_witness_B2_valley_split_construction(B):
    spec = L.SumSpec.of([(B, 2)])
    w = L.nonsimplicity_witness(spec)
    assert w.point == (-1, 0)
    assert w.tuple_a.id_string() == "B(-1,-3)|B(-1,3)"
    assert w.tuple_b.id_string() == "B(-1,-1)|B(-1,1)"
    ia, ib = witness_classes(spec, w)
    assert ia != ib


def test_witness_two_summand_construction(A):
    # a second two-peak knot with the same shape under its own name
    Ap = L.make_range("Ap", [(0, -2), (0, 2)])
    spec = L.SumSpec.of([(A, 1), (Ap, 1)])
    w = L.nonsimplicity_witness(spec)
    assert w.point == (-1, 0)
    assert w.tuple_a.id_string() == "A(-1,-1)|Ap(-1,1)"
    assert w.tuple_b.id_string() == "A(-1,1)|Ap(-1,-1)"
    ia, ib = witness_classes(spec, w)
    assert ia != ib


def test_witness_catalog_translated_copy(A, Aprime):
    spec = L.SumSpec.of([(A, 1), (Aprime, 1)])
    w = L.nonsimplicity_witness(spec)
    assert w.point == (-1, 2)
    assert w.tuple_a.id_string() == "A(-1,-1)|Aprime(-1,3)"
    assert w.tuple_b.id_string() == "A(-1,1)|Aprime(-1,1)"
    ia, ib = witness_classes(spec, w)
    assert ia != ib


def test_witness_single_summand_with_filler(U1, B):
    spec = L.SumSpec.of([(U1, 1), (B, 2)])
    w = L.nonsimplicity_witness(spec)
    assert w.point == (-1, 0)
    assert w.tuple_a.id_string() == "U1(-1,0)|B(-1,-3)|B(-1,3)"
    assert w.tuple_b.id_string() == "U1(-1,0)|B(-1,-1)|B(-1,1)"
    ia, ib = witness_classes(spec, w)
    assert ia != ib


def test_witness_not_applicable(A):
    with pytest.raises(L.NotApplicable):
        L.nonsimplicity_witness(L.SumSpec.of([(A, 2)]))


def test_witness_pairs_always_split(cat):
    U1, C, A, B, Ap = (cat[k] for k in ("U1", "C", "A", "B", "Aprime"))
    probes = [
        [(B, 2)],
        [(A, 1), (B, 1)],
        [(A, 1), (Ap, 1)],
        [(B, 1), (Ap, 1)],
        [(U1, 1), (A, 1), (B, 1)],
        [(C, 1), (B, 2)],
        [(B, 3)],
    ]
    for parts in probes:
        spec = L.SumSpec.of(parts)
        w = L.nonsimplicity_witness(spec)
        assert w.tuple_a.invariants() == w.tuple_b.invariants() == w.point
        ia, ib = witness_classes(spec, w)
        assert ia != ib, spec.label()


# --- two-peak normal forms -----------------------------------------------------------


def test_canonical_form_frozen(A):
    assert L.canonical_form(A, 2, 1, 0) == L.CanonicalForm(0, 0, 1, 1)
    assert L.canonical_form(A, 2, -3, 0) == L.CanonicalForm(4, 0, 2, 0)
    assert L.canonical_form(A, 2, 1, 1) is None  # parity obstruction
    assert L.canonical_form(A, 2, 2, 0) is None  # above the top
    assert L.canonical_form(A, 1, 0, -2) == L.CanonicalForm(0, 0, 1, 0)


def test_canonical_form_requires_two_peaks(B, C):
    with pytest.raises(L.WrongPeakCount):
        L.canonical_form(B, 2, 0, 0)
    with pytest.raises(L.WrongPeakCount):
        L.xy_invariants(C, 2, 0, 0)
    with pytest.raises(L.LegsumError):
        L.canonical_form(L.catalog()["A"], 0, 0, 0)


def test_xy_frozen(A):
    assert L.xy_invariants(A, 2, 1, 0) == L.XYInvariants(2, -2)
    assert L.xy_invariants(A, 2, -3, 0) == L.XYInvariants(0, 0)
    v = A.valleys()[0]
    assert L.xy_invariants(A, 1, v.tb, v.r) == L.XYInvariants(0, 0)
    with pytest.raises(L.LegsumError):
        L.xy_invariants(A, 2, 1, 1)


def test_xy_needs_at_least_one_copy(A):
    with pytest.raises(L.LegsumError, match="^n must be at least 1, got 0$"):
        L.xy_invariants(A, 0, 0, 0)


def test_equal_point_representations_share_xy(A):
    # (-3, 0) for n=2 admits three representations; all carry X = Y = 0
    reps = form_representations([(-0, -2), (0, 2)], 2, -3, 0)
    assert reps == [(4, 0, 2, 0), (2, 2, 1, 1), (0, 4, 0, 2)]
    xy = L.xy_invariants(A, 2, -3, 0)
    p1, p2 = A.peaks
    v = A.valleys()[0]
    for a, b, p, q in reps:
        assert q * (p2.r - v.r) - b == xy.x
        assert p * (p1.r - v.r) + a == xy.y


@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_form_minimal_q_oracle(n, A):
    peaks = [(p.tb, p.r) for p in A.peaks]
    spec = L.SumSpec.of([(A, n)])
    tb_min = spec.top_tb - 6
    for tb in range(spec.top_tb, tb_min - 1, -1):
        for r in range(-3 * n - 7, 3 * n + 8):
            reps = form_representations(peaks, n, tb, r)
            form = L.canonical_form(A, n, tb, r)
            if not reps:
                assert form is None
            else:
                assert form == L.CanonicalForm(*min(reps, key=lambda f: f[3]))


def test_canonical_form_gap_six_knot():
    D = L.make_range("D", [(0, -2), (0, 4)])
    peaks = [(0, -2), (0, 4)]
    for tb in range(1, -6, -1):
        for r in range(-10, 12):
            reps = form_representations(peaks, 2, tb, r)
            form = L.canonical_form(D, 2, tb, r)
            if not reps:
                assert form is None
            else:
                assert form == L.CanonicalForm(*min(reps, key=lambda f: f[3]))
                assert L.form_point(D, 2, form) == (tb, r)


def test_form_point_and_tuple_round_trip(A):
    form = L.CanonicalForm(2, 1, 1, 1)
    pt = L.form_point(A, 2, form)
    t = L.form_tuple(A, 2, form)
    assert t.invariants() == pt
    spec = L.SumSpec.of([(A, 2)])
    classes = L.enumerate_fiber(spec, *pt)
    assert any(t in c.members for c in classes)
    with pytest.raises(L.LegsumError):
        L.form_point(A, 2, L.CanonicalForm(0, 0, 1, 2))  # p + q != n


# --- peak counting --------------------------------------------------------------------


def test_peak_count_formula_frozen(cat):
    A, B = cat["A"], cat["B"]
    assert L.peak_count_formula(L.SumSpec.of([(A, 3)])) == 4
    assert L.peak_count_formula(L.SumSpec.of([(B, 2)])) == 6
    assert L.peak_count_formula(L.SumSpec.of([(A, 1), (B, 1)])) == 6
    assert L.peak_count_formula(L.SumSpec.of([(cat["U1"], 2)])) == 1


@given(st.integers(1, 4), st.integers(1, 3))
def test_peak_count_formula_matches_enumeration(cat, n_a, n_b):
    spec = L.SumSpec.of([(cat["A"], n_a), (cat["B"], n_b)])
    assert L.peak_count_formula(spec) == len(L.peaks_of_sum(spec))
