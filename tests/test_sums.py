from __future__ import annotations

import functools
import gc
import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legsum as L
from legsum import sums
from legsum.cli import main

from conftest import make_grid_specs, random_sums, wide_step_sums
from oracles import bfs_members, fiber_signatures, point_window, relation_neighbors, relation_window, valley_depth_classes


def fiber_as_signatures(classes: list[L.PosetNode]) -> set[frozenset[str]]:
    return {frozenset(m.id_string() for m in c.members) for c in classes}


def oracle_signatures(spec: L.SumSpec, tb: int, r: int) -> set[frozenset[str]]:
    slot_knots: list[str] = []
    for s in spec.summands:
        slot_knots.extend([s.knot_id] * s.count)
    tops = {rng.knot_id: rng.top_tb for rng in spec.ranges}
    factor_tb = tb - (spec.n - 1)
    members = {}
    for rng in spec.ranges:
        floor = factor_tb - sum(
            tops[k] for i, k in enumerate(slot_knots) if k != rng.knot_id
        ) - tops[rng.knot_id] * (slot_knots.count(rng.knot_id) - 1)
        members[rng.knot_id] = bfs_members([(p.tb, p.r) for p in rng.peaks], floor)
    return fiber_signatures(slot_knots, members, tops, tb, r)


# --- spec construction ---------------------------------------------------------------


def test_spec_construction(A, B):
    spec = L.SumSpec.of([(A, 2), (B, 1)])
    assert spec.n == 3
    assert spec.label() == "A^2#B"
    assert spec.top_tb == 0 + 0 + 0 + 2
    assert spec.point_parity == (0 + 0 + 0 + 2) % 2
    assert spec.range_of("B") is B
    with pytest.raises(KeyError):
        spec.range_of("nope")


def test_spec_rejects_bad_input(A, B):
    with pytest.raises(L.InvalidSummand):
        L.SumSpec.of([])
    with pytest.raises(L.InvalidSummand):
        L.SumSpec.of([(A, 0)])
    with pytest.raises(L.InvalidSummand):
        L.SumSpec.of([(A, 1), (A, 2)])  # repeated id
    with pytest.raises(L.InvalidSummand):
        L.SumSpec.of([(L.make_range("N", [(0, 0)], prime=False), 1)])
    with pytest.raises(L.InvalidSummand):
        L.SumSpec.of([(L.make_range("X", [(0, 2), (0, -2)]), 1)])  # invalid range
    with pytest.raises(L.InvalidSummand):
        L.SumSpec((L.Summand("Y", 1),), (A,))  # id mismatch


def test_factor_floor(A, B, C):
    spec = L.SumSpec.of([(B, 2)])
    assert spec.factor_floor(-2, "B") == -3
    two = L.SumSpec.of([(A, 1), (C, 1)])
    assert two.factor_floor(-2, "A") == -4
    assert two.factor_floor(-2, "C") == -3


# --- sum invariants -----------------------------------------------------------------


def test_sum_invariants_frozen(A, B, C):
    t = L.TupleClass((L.SimpleClass("B", -1, -3), L.SimpleClass("B", -1, 3)))
    assert t.invariants() == (-1, 0)
    single = L.TupleClass((L.SimpleClass("C", 1, 0),))
    assert single.invariants() == (1, 0)
    triple = L.TupleClass(
        (
            L.SimpleClass("A", 0, -2),
            L.SimpleClass("A", 0, 2),
            L.SimpleClass("C", 1, 0),
        )
    )
    assert triple.invariants() == (3, 0)


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=4))
def test_sum_invariants_additive(pts):
    t = L.TupleClass(tuple(L.SimpleClass("K", tb, r) for tb, r in pts))
    tb, r = t.invariants()
    assert tb == sum(p[0] for p in pts) + len(pts) - 1
    assert r == sum(p[1] for p in pts)


# --- canonicalization ---------------------------------------------------------------


def test_canonicalize_frozen(A, C):
    spec = L.SumSpec.of([(A, 2)])
    got = L.canonicalize_tuple(spec, [A.point(-1, 1), A.point(0, -2)])
    assert got.id_string() == "A(0,-2)|A(-1,1)"
    assert L.canonicalize_tuple(spec, got.factors) == got  # idempotent
    mixed = L.SumSpec.of([(A, 1), (C, 1)])
    one = L.canonicalize_tuple(mixed, [C.point(1, 0), A.point(0, 2)])
    two = L.canonicalize_tuple(mixed, [A.point(0, 2), C.point(1, 0)])
    assert one == two
    assert one.id_string() == "A(0,2)|C(1,0)"


def test_canonicalize_orders_equal_tb_by_ascending_r(A):
    spec = L.SumSpec.of([(A, 2)])
    got = L.canonicalize_tuple(spec, [A.point(-1, 1), A.point(-1, -1)])
    assert got.id_string() == "A(-1,-1)|A(-1,1)"


def test_canonicalize_rejects_mismatches(A, B):
    spec = L.SumSpec.of([(A, 2)])
    with pytest.raises(L.MultiplicityMismatch):
        L.canonicalize_tuple(spec, [A.point(0, 2)])
    with pytest.raises(L.MultiplicityMismatch):
        L.canonicalize_tuple(spec, [A.point(0, 2), L.SimpleClass("B", 0, 0)])
    with pytest.raises(L.NotAMember):
        L.canonicalize_tuple(spec, [L.SimpleClass("A", 0, 0), A.point(0, 2)])


@given(st.data())
def test_canonicalize_permutation_invariant(cat, data):
    A, B = cat["A"], cat["B"]
    spec = L.SumSpec.of([(A, 2), (B, 1)])
    pool_a = [(tb, r) for tb in range(-4, 1) for r in A.level_points(tb)]
    pool_b = [(tb, r) for tb in range(-4, 1) for r in B.level_points(tb)]
    pa = data.draw(st.lists(st.sampled_from(pool_a), min_size=2, max_size=2))
    pb = data.draw(st.sampled_from(pool_b))
    factors = [L.SimpleClass("A", *pa[0]), L.SimpleClass("A", *pa[1]), L.SimpleClass("B", *pb)]
    perm = data.draw(st.permutations(factors))
    assert L.canonicalize_tuple(spec, perm) == L.canonicalize_tuple(spec, factors)


# --- relation neighbors ---------------------------------------------------------------


def test_relation_neighbors_frozen(A):
    spec = L.SumSpec.of([(A, 2)])
    t = L.canonicalize_tuple(spec, [A.point(-1, -1), A.point(0, 2)])
    nbs = {n.id_string() for n in relation_neighbors(spec, t)}
    assert nbs == {"A(0,-2)|A(-1,3)"}

    v = L.canonicalize_tuple(spec, [A.point(-2, 0), A.point(0, 2)])
    nbs2 = {n.id_string() for n in relation_neighbors(spec, v)}
    assert nbs2 == {"A(-1,-1)|A(-1,3)", "A(-1,1)|A(-1,1)"}


def test_relation_neighbors_single_factor(C):
    spec = L.SumSpec.of([(C, 1)])
    t = L.canonicalize_tuple(spec, [C.point(0, 1)])
    assert relation_neighbors(spec, t) == set()


@given(st.data())
def test_relation_neighbors_preserve_invariants(cat, data):
    A, B = cat["A"], cat["B"]
    spec = L.SumSpec.of([(A, 1), (B, 1)])
    pool_a = [(tb, r) for tb in range(-4, 1) for r in A.level_points(tb)]
    pool_b = [(tb, r) for tb in range(-4, 1) for r in B.level_points(tb)]
    fa = data.draw(st.sampled_from(pool_a))
    fb = data.draw(st.sampled_from(pool_b))
    t = L.canonicalize_tuple(spec, [L.SimpleClass("A", *fa), L.SimpleClass("B", *fb)])
    for nb in relation_neighbors(spec, t):
        assert nb.invariants() == t.invariants()
        assert nb != t


# --- canonical tuple enumeration ------------------------------------------------------


def brute_canonical_tuples(spec: L.SumSpec, factor_tb_sum: int) -> set[L.TupleClass]:
    per_slot: list[list[L.SimpleClass]] = []
    for s, rng in zip(spec.summands, spec.ranges):
        floor = spec.factor_floor(factor_tb_sum + spec.n - 1, s.knot_id)
        pts = [
            L.SimpleClass(s.knot_id, tb, r)
            for tb in range(rng.top_tb, floor - 1, -1)
            for r in rng.level_points(tb)
        ]
        per_slot.extend([pts] * s.count)
    out = set()
    for combo in itertools.product(*per_slot):
        if sum(f.tb for f in combo) == factor_tb_sum:
            out.add(L.canonicalize_tuple(spec, combo))
    return out


def test_iter_canonical_tuples_matches_brute_force(A, B, C):
    # A:3, B:3 and A:2,B:2 put the last two positions in one summand, where
    # they may tie on tb.
    for spec in (
        L.SumSpec.of([(A, 2)]),
        L.SumSpec.of([(B, 2)]),
        L.SumSpec.of([(A, 1), (C, 1)]),
        L.SumSpec.of([(A, 2), (C, 1)]),
        L.SumSpec.of([(A, 3)]),
        L.SumSpec.of([(B, 3)]),
        L.SumSpec.of([(A, 2), (B, 2)]),
    ):
        for depth in range(0, 4):
            budget = spec.top_tb - depth - (spec.n - 1)
            got = list(L.iter_canonical_tuples(spec, budget))
            assert len(got) == len(set(got)), "duplicates yielded"
            for t in got:
                assert L.canonicalize_tuple(spec, t.factors) == t
                assert sum(f.tb for f in t.factors) == budget
            assert set(got) == brute_canonical_tuples(spec, budget), (
                spec.label(),
                depth,
            )


@given(random_sums(), st.integers(0, 4))
def test_iter_canonical_tuples_matches_brute_force_on_random_ranges(spec, depth):
    budget = spec.top_tb - depth - (spec.n - 1)
    got = list(L.iter_canonical_tuples(spec, budget))
    assert len(got) == len(set(got)), "duplicates yielded"
    for t in got:
        assert L.canonicalize_tuple(spec, t.factors) == t
        assert sum(f.tb for f in t.factors) == budget
    assert set(got) == brute_canonical_tuples(spec, budget)


# --- fibers ----------------------------------------------------------------------------


def test_fiber_B2_top_frozen(B):
    spec = L.SumSpec.of([(B, 2)])
    classes = L.enumerate_fiber(spec, 1, 0)
    assert [c.representative.id_string() for c in classes] == [
        "B(0,-4)|B(0,4)",
        "B(0,0)|B(0,0)",
    ]
    assert [len(c.members) for c in classes] == [1, 1]


def test_fiber_B2_one_below_frozen(B):
    spec = L.SumSpec.of([(B, 2)])
    classes = L.enumerate_fiber(spec, 0, 1)
    assert len(classes) == 2
    assert sorted(len(c.members) for c in classes) == [1, 2]


def test_fiber_B2_witness_pair_distinct(B):
    spec = L.SumSpec.of([(B, 2)])
    classes = L.enumerate_fiber(spec, -1, 0)
    assert len(classes) >= 2
    ids = [frozenset(m.id_string() for m in c.members) for c in classes]
    outer = [s for s in ids if "B(-1,-3)|B(-1,3)" in s]
    inner = [s for s in ids if "B(-1,-1)|B(-1,1)" in s]
    assert len(outer) == 1 and len(inner) == 1
    assert outer[0] != inner[0]


def test_fiber_A_C_always_single(A, C):
    spec = L.SumSpec.of([(A, 1), (C, 1)])
    for tb in range(spec.top_tb, spec.top_tb - 5, -1):
        for r in range(-8, 9):
            classes = L.enumerate_fiber(spec, tb, r)
            assert len(classes) <= 1


def test_fiber_empty_point(A):
    spec = L.SumSpec.of([(A, 2)])
    assert L.enumerate_fiber(spec, 1, 1) == []  # wrong parity
    assert L.enumerate_fiber(spec, 2, 0) == []  # above the top
    assert L.enumerate_fiber(spec, 1, -2) == []  # between the top generators' cones


def test_fibers_match_adjacent_generator_oracle(cat):
    A, B, C, U1 = cat["A"], cat["B"], cat["C"], cat["U1"]
    probes = [
        (L.SumSpec.of([(A, 2)]), 4),
        (L.SumSpec.of([(B, 2)]), 4),
        (L.SumSpec.of([(A, 1), (B, 1)]), 4),
        (L.SumSpec.of([(A, 1), (C, 1)]), 4),
        (L.SumSpec.of([(U1, 1), (A, 1), (B, 1)]), 3),
        (L.SumSpec.of([(A, 2), (B, 1)]), 3),
    ]
    for spec, depth in probes:
        for tb in range(spec.top_tb, spec.top_tb - depth - 1, -1):
            rs = sorted(
                {
                    t.invariants()[1]
                    for t in L.iter_canonical_tuples(spec, tb - (spec.n - 1))
                }
            )
            for r in rs:
                lib = fiber_as_signatures(L.enumerate_fiber(spec, tb, r))
                assert lib == oracle_signatures(spec, tb, r), (spec.label(), tb, r)


# --- peaks of the sum --------------------------------------------------------------------


def test_peaks_of_sum_frozen(A, B):
    spec = L.SumSpec.of([(A, 2)])
    peaks = L.peaks_of_sum(spec)
    assert [t.invariants() for t in peaks] == [(1, -4), (1, 0), (1, 4)]
    assert len(L.peaks_of_sum(L.SumSpec.of([(B, 2)]))) == 6
    assert len(L.peaks_of_sum(L.SumSpec.of([(A, 1), (B, 1)]))) == 6


def test_peak_tuples_are_singleton_classes(B):
    spec = L.SumSpec.of([(B, 2)])
    for t in L.peaks_of_sum(spec):
        tb, r = t.invariants()
        classes = L.enumerate_fiber(spec, tb, r)
        match = [c for c in classes if t in c.members]
        assert len(match) == 1
        assert match[0].members == (t,)


# --- quotient windows -----------------------------------------------------------------


def test_build_quotient_single_peak(C):
    poset = L.build_quotient(L.SumSpec.of([(C, 1)]), -1)
    assert len(poset) == 6
    assert all(node.size == 1 for node in poset)
    assert sorted(node.point for node in poset) == [
        (-1, -2),
        (-1, 0),
        (-1, 2),
        (0, -1),
        (0, 1),
        (1, 0),
    ]


def test_build_quotient_n1_matches_range(A):
    poset = L.build_quotient(L.SumSpec.of([(A, 1)]), -4)
    for tb in range(0, -5, -1):
        level = sorted(node.r for node in poset if node.tb == tb)
        assert level == A.level_points(tb)
    assert all(node.size == 1 for node in poset)


def test_build_quotient_windows_frozen(A, B):
    a2 = L.build_quotient(L.SumSpec.of([(A, 2)]), -3)
    assert all(a2.fiber_size(node.tb, node.r) == 1 for node in a2)
    b2 = L.build_quotient(L.SumSpec.of([(B, 2)]), -2)
    assert len(b2) == 42
    assert max(node.size for node in b2) >= 2
    assert b2.fiber_size(1, 0) == 2


def test_build_quotient_empty_window(A):
    with pytest.raises(L.WindowEmpty):
        L.build_quotient(L.SumSpec.of([(A, 2)]), 2)


def test_build_quotient_edges_and_structure(cat):
    A, B = cat["A"], cat["B"]
    for spec in (L.SumSpec.of([(A, 2)]), L.SumSpec.of([(B, 2)])):
        poset = L.build_quotient(spec, spec.top_tb - 3)
        assert L.structure_violations(poset) == []
        for node in poset:
            assert node.point == node.members[0].invariants()
            if node.tb > poset.tb_min:
                for sign in ("+", "-"):
                    kids = poset.children(node.key, sign)
                    assert len(kids) == 1
                    child = poset.node(kids[0])
                    assert child.tb == node.tb - 1
                    assert child.r == node.r + (1 if sign == "+" else -1)


def test_workers_agree(B):
    spec = L.SumSpec.of([(B, 2)])
    serial = L.build_quotient(spec, -2, workers=1)
    threaded = L.build_quotient(spec, -2, workers=3)
    assert [(n.key, n.point, n.size) for n in serial] == [
        (n.key, n.point, n.size) for n in threaded
    ]
    assert L.dump_json(L.to_jsonable(serial)) == L.dump_json(L.to_jsonable(threaded))


def test_workers_agree_on_a_deeper_window(A, B):
    spec = L.SumSpec.of([(A, 2), (B, 2)])
    serial = L.build_quotient(spec, spec.top_tb - 8)
    threaded = L.build_quotient(spec, spec.top_tb - 8, workers=3)
    assert window_parts(serial) == window_parts(threaded)
    assert L.dump_json(L.to_jsonable(serial)) == L.dump_json(L.to_jsonable(threaded))


def test_fiber_sizes_translation_invariant(A, B):
    base = L.SumSpec.of([(A, 1), (B, 1)])
    moved_rng = L.make_range("A", [(p.tb, p.r + 2) for p in A.peaks])
    moved = L.SumSpec.of([(moved_rng, 1), (B, 1)])
    p1 = L.build_quotient(base, base.top_tb - 4)
    p2 = L.build_quotient(moved, moved.top_tb - 4)
    sizes1 = sorted((n.tb, n.r, n.size) for n in p1)
    sizes2 = sorted((n.tb, n.r - 2, n.size) for n in p2)
    assert sizes1 == sizes2


# --- generator quotient against the relation-move oracle ----------------------------------


def window_parts(poset: L.QuotientPoset) -> tuple[list, tuple[L.Edge, ...]]:
    return [(n.key, n.point, n.members) for n in poset], poset.edges


def assert_matches_relation_oracle(spec: L.SumSpec, tb_min: int) -> None:
    want = relation_window(spec, tb_min)
    assert window_parts(L.build_quotient(spec, tb_min)) == window_parts(want), spec.label()
    for pt in sorted({node.point for node in want}):
        fiber = sorted(want.fiber(*pt), key=lambda c: c.representative.sort_key())
        assert L.enumerate_fiber(spec, *pt) == fiber, (spec.label(), pt)


def test_generator_quotient_matches_relation_oracle_on_grid(grid_specs):
    for spec in grid_specs:
        assert_matches_relation_oracle(spec, spec.top_tb - 5)


def test_generator_quotient_matches_relation_oracle_on_powers(A, B):
    for parts in ([(A, 4)], [(B, 4)], [(A, 2), (B, 2)]):
        spec = L.SumSpec.of(parts)
        assert_matches_relation_oracle(spec, spec.top_tb - 6)


@given(random_sums(), st.integers(0, 4))
def test_generator_quotient_matches_relation_oracle_on_random_ranges(spec, depth):
    assert_matches_relation_oracle(spec, spec.top_tb - depth)


@given(wide_step_sums(), st.integers(0, 10))
def test_generator_quotient_matches_relation_oracle_on_wide_steps(spec, depth):
    assert_matches_relation_oracle(spec, spec.top_tb - depth)


# --- windows built a level row at a time against the point-by-point builder ---------------------


def assert_matches_point_window(spec: L.SumSpec, depth: int) -> None:
    """Check node order, keys, members and child positions against :func:`oracles.point_window`."""
    got, want = L.build_quotient(spec, spec.top_tb - depth), point_window(spec, spec.top_tb - depth)
    assert window_parts(got) == window_parts(want), spec.label()
    assert got._down == want._down, spec.label()


def test_row_builds_match_point_builds_on_grid(grid_specs):
    assert len(grid_specs) == 55
    for spec in grid_specs:
        for depth in (3, 10):
            assert_matches_point_window(spec, depth)


@given(st.one_of(random_sums(), wide_step_sums()), st.integers(0, 10))
def test_row_builds_match_point_builds_on_random_ranges(spec, depth):
    assert_matches_point_window(spec, depth)


def assert_presence_joins_match_valley_depths(spec: L.SumSpec, depth: int) -> None:
    """Check generator classes against the valley-depth oracle on the top depth + 1 levels.

    Every r from one step left of a level to one step right of it is
    compared, so absent points and points of the other parity are too.
    """
    gens = sums._Generators(spec)
    for tb in range(spec.top_tb, spec.top_tb - depth - 1, -1):
        level = gens.level_points(tb)
        for r in range(level[0] - 1, level[-1] + 2):
            groups: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
            for gen, root in gens.components(tb, r).items():
                groups.setdefault(root, set()).add(gen)
            assert {frozenset(g) for g in groups.values()} == valley_depth_classes(spec, tb, r), (spec.label(), tb, r)


def test_presence_joins_match_valley_depths_on_grid(cat):
    for spec in make_grid_specs(cat, 5):
        assert_presence_joins_match_valley_depths(spec, 8)


@given(st.one_of(random_sums(max_n=5), wide_step_sums(max_n=5)), st.integers(0, 12))
def test_presence_joins_match_valley_depths_on_random_ranges(spec, depth):
    assert_presence_joins_match_valley_depths(spec, depth)


# --- the box outside which a point has one class ----------------------------------------------


def assert_one_class_outside_the_box(spec: L.SumSpec, depth: int) -> int:
    """Check that every point of the sum outside the box on the top depth + 1 levels has one component.

    Returns the number of such points.
    """
    gens = sums._Generators(spec)
    outside = 0
    for tb in range(spec.top_tb, spec.top_tb - depth - 1, -1):
        for r in gens.level_points(tb):
            if not gens.boxed(tb, r):
                outside += 1
                assert len(set(gens.components(tb, r).values())) == 1, (spec.label(), tb, r)
    return outside


def test_points_outside_the_box_have_one_class_on_grid(cat):
    specs = make_grid_specs(cat, 5)
    assert len(specs) == 251
    assert all(assert_one_class_outside_the_box(spec, 12) for spec in specs)


@given(st.one_of(random_sums(max_n=5), wide_step_sums(max_n=5)), st.integers(0, 12))
def test_points_outside_the_box_have_one_class_on_random_ranges(spec, depth):
    assert_one_class_outside_the_box(spec, depth)


def test_window_builds_join_generators_only_inside_the_box(monkeypatch, A, B):
    joined = record_calls(monkeypatch, sums._Generators, "components", lambda gens, tb, r: gens.boxed(tb, r))
    for parts, depth in (([(A, 2), (B, 2)], 8), ([(B, 3)], 10)):
        spec = L.SumSpec.of(parts)
        window = L.build_quotient(spec, spec.top_tb - depth)
        L.to_jsonable(window)
        assert not L.nonsimple_report(window).simple
    assert joined and all(joined)


def test_fibers_outside_the_sum_are_empty(grid_specs):
    for spec in grid_specs:
        gens = sums._Generators(spec)
        tb = spec.top_tb - 3
        level = gens.level_points(tb)
        for point in (
            (spec.top_tb + 1, 0), (spec.top_tb + 2, spec.point_parity),  # above the top
            (tb, level[0] + 1), (tb, level[-1] - 1),  # wrong parity
            (tb, level[0] - 2), (tb, level[-1] + 2), (tb, -100), (tb, 100),  # outside every cone
        ):
            assert point[1] not in gens.level_points(point[0])
            assert L.enumerate_fiber(spec, *point) == [], (spec.label(), point)


# --- lazy members ----------------------------------------------------------------------------


def test_verdicts_and_figures_never_expand_members(monkeypatch, A, B):
    expanded: list[tuple[int, int]] = []
    members = sums._Generators.members

    def counted(gens, tb, r):
        expanded.append((tb, r))
        return members(gens, tb, r)

    monkeypatch.setattr(sums._Generators, "members", counted)
    windows = []
    for parts, depth in (([(A, 2), (B, 2)], 8), ([(B, 3)], 6)):
        spec = L.SumSpec.of(parts)
        window = L.build_quotient(spec, spec.top_tb - depth)
        verdict = L.simplicity_in_window(spec, window.tb_min)
        assert not verdict.simple_in_window
        assert verdict.witness.tuple_a != verdict.witness.tuple_b
        assert not L.nonsimple_report(window).simple
        assert L.detect_valleys(window)
        assert L.render_svg(window).startswith("<svg")
        windows.append(window)
    assert expanded == []

    for window in windows:
        expanded.clear()
        for node in window:
            assert node.members[0] == node.representative
            assert node.key == node.representative.id_string()
        # One pass per point, shared by every class there.
        assert len(expanded) == len(window.points())


def test_classes_read_in_full_release_their_builder(monkeypatch, A, B):
    made = []
    init = sums._Generators.__init__

    def recorded(gens, spec):
        init(gens, spec)
        made.append(weakref.ref(gens))

    monkeypatch.setattr(sums._Generators, "__init__", recorded)
    # A one-class point, whose representative is left unread, and a two-class point.
    for parts, pt, count in (([(A, 2)], (-1, 0), 1), ([(B, 2)], (1, 0), 2)):
        made.clear()
        classes = L.enumerate_fiber(L.SumSpec.of(parts), *pt)
        assert len(classes) == count and made[0]() is not None
        for c in classes:
            assert c.members
        gc.collect()
        assert made[0]() is None


# --- per-tuple and per-edge work ---------------------------------------------------------------


def record_calls(monkeypatch, owner, name: str, note=lambda *args: args) -> list:
    """Replace ``owner.name`` by a wrapper that appends ``note(*args)`` for every call."""
    calls = []
    original = getattr(owner, name)

    def recorded(*args):
        calls.append(note(*args))
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_windows_of_one_class_points_label_nothing(monkeypatch, A, B, U1):
    labels = record_calls(monkeypatch, sums._Generators, "label")
    for parts in ([(B, 1)], [(A, 1), (U1, 1)]):
        spec = L.SumSpec.of(parts)
        assert L.build_quotient(spec, spec.top_tb - 8).edges
    assert labels == []


def test_builds_label_only_tuples_of_multi_class_points(monkeypatch, A, B):
    def classes_at(gens, factors):
        tb = sum(f.tb for f in factors) + len(factors) - 1
        return len(set(gens.components(tb, sum(f.r for f in factors)).values()))

    labelled = record_calls(monkeypatch, sums._Generators, "label", classes_at)
    spec = L.SumSpec.of([(A, 2), (B, 2)])
    L.build_quotient(spec, spec.top_tb - 8)
    assert labelled and min(labelled) > 1


def test_verdicts_and_figures_walk_only_multi_class_points(monkeypatch, capsys, A, B):
    walked = record_calls(monkeypatch, sums._Generators, "walk", lambda gens, tb, r, text: (gens, tb, r))
    for parts, text, depth in (([(A, 2), (B, 2)], "A:2,B:2", 8), ([(B, 3)], "B:3", 6)):
        walked.clear()
        window = ("--spec", text, "--depth", str(depth))
        for argv in (("simple",) + window, ("nmax",) + window, ("render",) + window + ("--render", "svg")):
            assert main(argv) == 0
        capsys.readouterr()
        spec = L.SumSpec.of(parts)
        poset = L.build_quotient(spec, spec.top_tb - depth)
        assert not L.nonsimple_report(poset).simple
        assert L.render_svg(poset).startswith("<svg")
        assert walked and all(len(set(gens.components(tb, r).values())) > 1 for gens, tb, r in walked)
        for node in poset:
            assert node.key == node.representative.id_string()
        assert poset.edges == L.build_quotient(spec, poset.tb_min).edges


def test_listing_members_tests_no_membership(monkeypatch, A, B):
    contains = record_calls(monkeypatch, L.MountainRange, "contains")
    spec = L.SumSpec.of([(A, 2), (B, 2)])
    doc = L.to_jsonable(L.build_quotient(spec, spec.top_tb - 8))
    assert sum(len(node["members"]) for node in doc["nodes"]) == 66829
    assert contains == []


def test_labels_read_the_factor_table(monkeypatch, A, B):
    spec = L.SumSpec.of([(A, 2), (B, 2)])
    gens = sums._Generators(spec)
    points = [(tb, r) for tb in range(spec.top_tb, spec.top_tb - 7, -1) for r in gens.level_points(tb)]
    tuples = [t for pt in points for t in gens.tuples(*pt)]
    cones = record_calls(monkeypatch, L.ranges, "_cone_coords")
    interned = record_calls(monkeypatch, sums._Generators, "_intern")
    labels = [gens.label(t.factors) for t in tuples]
    assert cones == [] and interned == []
    # Each factor counts towards the leftmost peak of its range whose cone holds it.
    offsets = {"A": 0, "B": A.peak_count}
    for t, label in zip(tuples, labels):
        want = [0] * (A.peak_count + B.peak_count)
        for f in t.factors:
            peaks = spec.range_of(f.knot_id).peaks
            want[offsets[f.knot_id] + next(j for j, p in enumerate(peaks) if L.ranges._cone_coords(p, f.tb, f.r) is not None)] += 1
        assert label == tuple(want)


def test_a_window_holds_one_factor_per_point(B):
    spec = L.SumSpec.of([(B, 3)])
    factors = [f for node in L.build_quotient(spec, spec.top_tb - 4) for t in node.members for f in t.factors]
    assert len({id(f) for f in factors}) == len(set(factors))


def test_listing_a_window_interns_and_formats_each_factor_point_once(monkeypatch, A, B):
    formatted = []
    text = L.SimpleClass.__dict__["_text"]
    counted = functools.cached_property(lambda f: formatted.append(f) or text.func(f))
    counted.__set_name__(L.SimpleClass, "_text")
    monkeypatch.setattr(L.SimpleClass, "_text", counted)
    interned = record_calls(monkeypatch, sums._Generators, "_intern", lambda gens, rng, row, tb, r: (rng.knot_id, tb, r))
    for parts, depth in (([(B, 3)], 8), ([(A, 2), (B, 2)], 8)):
        interned.clear()
        spec = L.SumSpec.of(parts)
        members = [t for node in L.build_quotient(spec, spec.top_tb - depth) for t in node.members]
        ids = [t.id_string() for t in members]
        assert len(ids) == len(set(ids)) > 1000
        assert sorted(interned) == sorted({(f.knot_id, f.tb, f.r) for t in members for f in t.factors})
        assert all(f"{f.knot_id}({f.tb},{f.r})" in t.id_string().split("|") for t in members[::97] for f in t.factors)
    assert formatted == []


def test_import_leaves_the_thread_pool_unloaded():
    code = "import sys, legsum; legsum.catalog(); print('concurrent.futures' in sys.modules)"
    src = str(Path(L.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"
