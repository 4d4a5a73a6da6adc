from __future__ import annotations

import collections
import functools
import gc
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legsum as L
from legsum import cli, simplicity, sums
from legsum.cli import main

from conftest import make_grid_specs, random_sums, wide_step_sums
from oracles import bfs_members, canonical_signature, fiber_signatures, peak_multisets, point_window, relation_neighbors, relation_window, tuples_with_budget, valley_depth_classes


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
            if not (tb + r > gens.U_min and tb - r > gens.V_min):
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
    joined = record_calls(monkeypatch, sums._Generators, "components", lambda gens, tb, r: tb + r > gens.U_min and tb - r > gens.V_min)
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


def test_fibers_outside_the_sum_make_no_level_row(monkeypatch, capsys):
    def no_rows(*args):
        raise AssertionError("a level row was made")

    monkeypatch.setattr(L.ranges, "_level_points", no_rows)
    monkeypatch.setattr(sums, "_level_points", no_rows)
    # A point of the wrong parity, and one outside every cone, 10^8 levels down.
    for r in ("--r=0", "--r=300000001"):
        assert main(["fiber", "--spec", "A:2", "--tb=-100000000", r]) == 0
        assert capsys.readouterr().out.endswith("\nclasses\t0\n")


def test_a_dropped_window_leaves_no_level_row_alive(A):
    """Level rows belong to the builder that made them, so they die with its window."""
    spec = L.SumSpec.of([(A, 1)])
    tracemalloc.start()
    try:
        window = L.build_quotient(spec, spec.top_tb - 400)
        del window
        gc.collect()
        live = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, L.ranges.__file__)])
    finally:
        tracemalloc.stop()
    assert len(live.traces) == 0


# --- lazy members ----------------------------------------------------------------------------


def test_verdicts_and_figures_list_only_multi_class_points(monkeypatch, A, B):
    walked = record_calls(monkeypatch, sums._Generators, "walk", lambda gens, tb, r, text: (tb, r))
    for parts, depth in (([(A, 2), (B, 2)], 8), ([(B, 3)], 6)):
        spec = L.SumSpec.of(parts)
        walked.clear()
        window = L.build_quotient(spec, spec.top_tb - depth)
        multi = {pt for pt in window.points() if len(window.fiber(*pt)) > 1}
        assert multi and collections.Counter(walked) == dict.fromkeys(multi, 1)
        # The verdict builds its own window down to its first nonsimple row,
        # so it walks that row's multi-class points; the analyses of this
        # window walk nothing.
        walked.clear()
        verdict = L.simplicity_in_window(spec, window.tb_min)
        assert not verdict.simple_in_window
        assert verdict.witness.tuple_a != verdict.witness.tuple_b
        assert not L.nonsimple_report(window).simple
        assert L.detect_valleys(window)
        assert L.render_svg(window).startswith("<svg")
        first_row = max(tb for tb, _r in multi)
        assert collections.Counter(walked) == {pt: 1 for pt in multi if pt[0] == first_row}

        walked.clear()
        for node in window:
            assert node.members[0] == node.representative
            assert node.key == node.representative.id_string()
        assert collections.Counter(walked) == dict.fromkeys(set(window.points()) - multi, 1)


def test_classes_read_in_full_release_their_builder(monkeypatch, A, B):
    made = []
    init = sums._Generators.__init__

    def recorded(gens, spec):
        init(gens, spec)
        made.append(weakref.ref(gens))

    monkeypatch.setattr(sums._Generators, "__init__", recorded)
    # A one-class point holds its builder until its members are read; a
    # two-class point keeps its members and frees its builder at once.
    for parts, pt, count in (([(A, 2)], (-1, 0), 1), ([(B, 2)], (1, 0), 2)):
        made.clear()
        classes = L.enumerate_fiber(L.SumSpec.of(parts), *pt)
        gc.collect()
        assert len(classes) == count and (made[0]() is None) == (count > 1)
        for c in classes:
            assert c.members
        gc.collect()
        assert made[0]() is None


def build_work(spec: L.SumSpec, tb_min: int) -> tuple[int, int]:
    """The ``_Generators.walk`` and ``_Generators.label`` calls made building the window of ``spec`` down to tb_min."""
    with pytest.MonkeyPatch.context() as mp:
        walks = record_calls(mp, sums._Generators, "walk")
        labels = record_calls(mp, sums._Generators, "label")
        L.build_quotient(spec, tb_min)
    return len(walks), len(labels)


def assert_build_work_bounded_by_the_box(spec: L.SumSpec) -> tuple[int, int]:
    """Check that a build below F0, under which the box holds no point, walks and labels no more; return the work."""
    gens = sums._Generators(spec)
    f0 = (gens.U_min + gens.V_min) // 2
    work = build_work(spec, f0)
    assert build_work(spec, f0 - 10) == work, spec.label()
    return work


def test_build_work_is_bounded_by_the_box_on_grid(grid_specs):
    assert any(walks for walks, _labels in map(assert_build_work_bounded_by_the_box, grid_specs))


@given(random_sums())
def test_build_work_is_bounded_by_the_box_on_random_ranges(spec):
    assert_build_work_bounded_by_the_box(spec)


# --- verdicts built down to the box floor -----------------------------------------------------


def assert_box_corner_is_the_least_of_the_tops(spec: L.SumSpec) -> None:
    gens = sums._Generators(spec)
    tops = gens._top_points
    assert sums._box_corner(spec) == (min(tb + r for tb, r in tops), min(tb - r for tb, r in tops)), spec.label()


def test_box_corner_is_the_least_of_the_tops_on_grid(cat):
    specs = make_grid_specs(cat, 4)
    assert len(specs) == 125
    for spec in specs:
        assert_box_corner_is_the_least_of_the_tops(spec)


@given(st.one_of(random_sums(max_n=5), wide_step_sums(max_n=5)))
def test_box_corner_is_the_least_of_the_tops_on_random_ranges(spec):
    assert_box_corner_is_the_least_of_the_tops(spec)


def test_peak_multisets_match_the_combinations(cat):
    for rng in cat.values():
        for count in range(1, 9):
            assert sums._peak_multisets(rng, count) == peak_multisets(rng, count), (rng.knot_id, count)
    assert sums._peak_multisets(cat["B"], 100) == peak_multisets(cat["B"], 100)


def assert_clamped_verdicts_match(spec: L.SumSpec, below: int) -> None:
    """Check that verdicts read from the window down to the box floor F0 match those of the window ``below`` levels under it."""
    f0 = sums._box_floor(spec)
    clamped = L.nonsimple_report(L.build_quotient(spec, f0))
    full = L.nonsimple_report(L.build_quotient(spec, f0 - below))
    assert (clamped.nonsimple, clamped.nmax) == (full.nonsimple, full.nmax), spec.label()
    verdict = L.simplicity_in_window(spec, f0 - below)
    assert verdict.tb_min == f0 - below
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicity, "_box_floor", lambda spec: f0 - below)
        assert L.simplicity_in_window(spec, f0 - below) == verdict, spec.label()


def test_clamped_verdicts_match_deeper_windows_on_grid(grid_specs):
    for spec in grid_specs:
        assert_clamped_verdicts_match(spec, 3)


@given(st.one_of(random_sums(), wide_step_sums()), st.integers(1, 4))
def test_clamped_verdicts_match_deeper_windows_on_random_ranges(spec, below):
    assert_clamped_verdicts_match(spec, below)


@pytest.mark.parametrize("command", ["simple", "nmax"])
def test_deep_verdicts_build_only_down_to_the_box_floor(monkeypatch, capsys, A, B, command):
    # A is simple.  B:2 is not (top 1, F0 -7, first nonsimple row 1), so
    # `simple` scans its box before it builds the window.
    rows = record_calls(monkeypatch, sums._Generators, "level_points")
    for arg, spec in (("A", L.SumSpec.of([(A, 1)])), ("B:2", L.SumSpec.of([(B, 2)]))):
        rows.clear()
        assert main([command, "--spec", arg, "--depth", "2000"]) == 0
        assert 0 < len(rows) <= spec.top_tb - sums._box_floor(spec) + 1, arg
        assert f"\ntb_min\t{spec.top_tb - 2000}\n" in capsys.readouterr().out


def test_deep_verdicts_build_only_down_to_the_first_nonsimple_row(monkeypatch, A, B, Aprime):
    spec = L.SumSpec.of([(A, 4), (B, 4), (Aprime, 4)])
    # The window is built with the scan's builder, by the private `_window`.
    floors = record_calls(monkeypatch, sums, "_window", lambda spec, gens, tb_min, workers: tb_min)
    verdict = L.simplicity_in_window(spec, spec.top_tb - 100)
    f0 = sums._box_floor(spec)
    first = sums._box_report(spec, f0).nonsimple[0][0]
    assert floors == [first[0]] and first[0] > f0
    assert verdict.witness.point == first and verdict.tb_min == spec.top_tb - 100


@pytest.mark.parametrize("parts, first", [
    ((("A", 4), ("B", 4), ("Aprime", 4)), ((11, -20), 3, "case1")),
    ((("B", 60),), ((59, -232), 2, "case1")),
], ids=["A:4,B:4,Aprime:4", "B:60"])
def test_box_scan_stops_at_its_first_nonsimple_point(monkeypatch, cat, parts, first):
    spec = L.SumSpec.of([(cat[knot], count) for knot, count in parts])
    f0 = sums._box_floor(spec)
    read = record_calls(monkeypatch, sums._Generators, "components", lambda gens, tb, r: (tb, r))
    assert next(sums._box_scan(spec, f0)) == first
    # The boxed points read come in window order and end at the one returned.
    assert read == sorted(set(read), key=lambda pt: (-pt[0], pt[1])) and read[-1] == first[0]
    report = sums._box_report(spec, first[0][0])
    assert (report.nonsimple[0], report.nmax[0]) == (first[:2], L.DichotomyVerdict(*first))


def assert_box_report_matches_the_window(spec: L.SumSpec, tb_min: int) -> None:
    """Check that the box scan gives the report of the clamped window, naming the caller's ``tb_min``."""
    window = L.build_quotient(spec, max(tb_min, sums._box_floor(spec)))
    report = L.nonsimple_report(window)
    want = L.NonsimpleReport(tb_min=tb_min, top_tb=report.top_tb, nonsimple=report.nonsimple, nmax=report.nmax)
    assert sums._box_report(spec, tb_min) == want, (spec.label(), tb_min)


def test_box_report_matches_the_window_on_grid(grid_specs):
    assert len(grid_specs) == 55
    for spec in grid_specs:
        f0 = sums._box_floor(spec)
        for tb_min in [spec.top_tb - depth for depth in (0, 3, 8, 12)] + [f0, f0 - 3]:
            assert_box_report_matches_the_window(spec, tb_min)


@given(st.one_of(random_sums(), wide_step_sums()), st.integers(0, 16))
def test_box_report_matches_the_window_on_random_ranges(spec, depth):
    assert_box_report_matches_the_window(spec, spec.top_tb - depth)


def test_box_report_matches_the_window_on_powers(B):
    for n in range(1, 9):
        spec = L.SumSpec.of([(B, n)])
        for depth in (0, 4):
            assert_box_report_matches_the_window(spec, spec.top_tb - depth)


@pytest.mark.parametrize("argv", [
    pytest.param(("nmax", "--spec", "A:2,B:2", "--depth", "8"), id="A:2,B:2-8"),
    pytest.param(("nmax", "--spec", "B:30", "--depth", "0"), id="B:30-0"),
    pytest.param(("render", "--spec", "A:2,B:2", "--depth", "8", "--render", "svg"), id="render-A:2,B:2-8"),
    pytest.param(("render", "--spec", "B:30", "--depth", "0", "--render", "svg"), id="render-B:30-0"),
])
def test_nmax_builds_no_window_and_walks_no_tuple(monkeypatch, capsys, argv):
    # `render --spec` reads the same box, and the level rows, with the same builder.
    builds = [record_calls(monkeypatch, owner, "build_quotient") for owner in (sums, cli)]
    walks = record_calls(monkeypatch, sums._Generators, "walk")
    builders = record_calls(monkeypatch, sums._Generators, "__init__")
    nodes = [record_calls(monkeypatch, L.PosetNode, name) for name in ("__init__", "_lazy")]
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if argv[0] == "nmax":
        assert "\nsimple\tfalse\ncandidate\t" in out
    else:
        assert out.startswith("<svg") and "#8e44ad" in out  # a point of several classes
    assert (builds, walks, nodes, len(builders)) == ([[], []], [], [[], []], 1)


@pytest.mark.parametrize("argv", [
    pytest.param(("simple", "--spec", "B:2", "--depth", "3"), id="B:2-3"),
    pytest.param(("simple", "--spec", "A:4,B:4,Aprime:4", "--depth", "100"), id="A:4,B:4,Aprime:4-100"),
])
def test_a_nonsimple_verdict_makes_one_builder(monkeypatch, capsys, argv):
    # The box scan and the window down to its first nonsimple row share it.
    builders = record_calls(monkeypatch, sums._Generators, "__init__")
    assert main(list(argv)) == 0
    assert "\nsimple_in_window\tfalse\n" in capsys.readouterr().out
    assert len(builders) == 1


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
    tuples = [t for pt in points for t in gens.walk(*pt, False)]
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


def assert_ids_match_tuples(spec: L.SumSpec, depth: int) -> None:
    """Check that the id walk lists the tuple walk's ids at every point of a window and beside its rows.

    The two forms share one builder's factor rows, so each order is checked
    on a builder of its own: ids first, then tuples, and the reverse.
    """
    for ids_first in (True, False):
        gens = sums._Generators(spec)
        points = []
        for tb in range(spec.top_tb, spec.top_tb - depth - 1, -1):
            row = gens.level_points(tb)
            points += [(tb, r) for r in [row[0] - 2, *row, row[-1] + 1, row[-1] + 2]]
        forms = [True, False] if ids_first else [False, True]
        walked = {text: [list(gens.walk(tb, r, text)) for tb, r in points] for text in forms}
        tuples = [[t.id_string() for t in ts] for ts in walked[False]]
        assert walked[True] == tuples, (spec.label(), ids_first)
        assert any(tuples)


def test_ids_match_tuples_on_grid(grid_specs):
    assert len(grid_specs) == 55
    for spec in grid_specs:
        assert_ids_match_tuples(spec, 8)


@given(st.one_of(random_sums(), wide_step_sums()), st.integers(0, 10))
def test_ids_match_tuples_on_random_ranges(spec, depth):
    assert_ids_match_tuples(spec, depth)


def test_ids_match_tuples_on_powers_and_long_sums(A, B, Aprime):
    # n = 3 sums such as A:2,B are grid specs.
    for n in range(1, 9):
        assert_ids_match_tuples(L.SumSpec.of([(B, n)]), 4)
    assert_ids_match_tuples(L.SumSpec.of([(A, 3), (B, 3), (Aprime, 3)]), 4)


def assert_rows_list_like_walks(spec: L.SumSpec, depths: range) -> bool:
    """Check that each level row's listing gives :meth:`walk`'s ids at every point of the row; return whether a factor row had a gap.

    The listing and the walks read builders of their own.
    """
    listing, walking = sums._Generators(spec), sums._Generators(spec)
    for depth in depths:
        tb = spec.top_tb - depth
        lists = listing._list_row(tb)
        row = walking.level_points(tb)
        assert sorted(lists) == row, (spec.label(), tb)
        for r in row:
            assert lists[r] == list(walking.walk(tb, r, True)), (spec.label(), tb, r)
    factor_rows = [row[0] for slot in listing._slots for row in slot[8].values()]
    return any(b - a > 2 for level in factor_rows for a, b in zip(level, level[1:]))


def test_rows_list_like_walks_on_grid(cat):
    # Four-factor sums stop at depth 8: their rows at depths 9 to 12 hold
    # 15 of the 19 million ids that depths 0 to 12 would walk.
    specs = make_grid_specs(cat, 4)
    assert len(specs) == 125
    gaps = [assert_rows_list_like_walks(spec, range(13 if spec.n < 4 else 9)) for spec in specs]
    assert any(gaps) and not all(gaps)


@given(st.one_of(random_sums(), wide_step_sums(), random_sums(min_n=1, max_n=1)), st.integers(0, 10))
def test_rows_list_like_walks_on_random_ranges(spec, depth):
    assert_rows_list_like_walks(spec, range(depth, depth + 2))


def test_rows_list_like_walks_on_powers_and_one_summand(cat):
    # Equal-tb factors of one summand are ordered by r (the tie rule).
    for knot in cat.values():
        for count in range(1, 5):
            assert_rows_list_like_walks(L.SumSpec.of([(knot, count)]), range(9))


def test_rows_list_like_walks_where_factor_rows_have_gaps(A, B):
    # B's peaks are 4 apart in r, so its top factor row comes in three runs: -4, 0 and 4.
    for spec in (L.SumSpec.of([(B, 1)]), L.SumSpec.of([(A, 1), (B, 2)]), L.SumSpec.of([(B, 2), (A, 2)])):
        assert assert_rows_list_like_walks(spec, range(13)), spec.label()


def test_a_window_read_in_full_holds_no_row_listing(monkeypatch, A, B):
    listed = record_calls(monkeypatch, sums._Generators, "_list_row", lambda gens, tb: tb)
    spec = L.SumSpec.of([(A, 2), (B, 2)])
    window = L.build_quotient(spec, spec.top_tb - 6)
    gens = next(node._gens for node in window if node._gens)
    ids = [node.ids for node in window]
    crowded = {pt for pt in window.points() if len(window.fiber(*pt)) > 1}
    assert crowded and sorted(listed, reverse=True) == list(range(spec.top_tb, spec.top_tb - 7, -1))
    assert set(gens._listed) == set(listed) and not any(gens._listed.values())
    # The ids read from the rows are those the walks list.
    walking = sums._Generators(spec)
    assert ids == [node.ids if node.point in crowded else tuple(walking.walk(*node.point, True)) for node in window]


def test_a_window_built_on_threads_reads_the_same_ids(A, B):
    for spec in (L.SumSpec.of([(A, 2), (B, 2)]), L.SumSpec.of([(B, 3)])):
        serial, threaded = (L.build_quotient(spec, spec.top_tb - 8, workers=w) for w in (0, 2))
        assert [node.ids for node in threaded] == [node.ids for node in serial]
        assert [node.ids for node in threaded] == [tuple(t.id_string() for t in node.members) for node in threaded]


def assert_id_walk_matches_brute_force(spec: L.SumSpec, depth: int) -> None:
    """Check the id walk at every point of a window and beside its rows against :func:`tuples_with_budget`.

    The enumerator fills slots in any order; the walk must list each
    canonical id it finds once, in :meth:`TupleClass.sort_key` order.
    """
    slot_knots = [s.knot_id for s in spec.summands for _ in range(s.count)]
    tops = {rng.knot_id: rng.top_tb for rng in spec.ranges}
    factor_tb_min = spec.top_tb - depth - (spec.n - 1)
    members = {
        rng.knot_id: bfs_members(
            [(p.tb, p.r) for p in rng.peaks],
            factor_tb_min - sum(tops[k] for k in slot_knots) + rng.top_tb,
        )
        for rng in spec.ranges
    }
    gens = sums._Generators(spec)
    for tb in range(spec.top_tb, spec.top_tb - depth - 1, -1):
        row = gens.level_points(tb)
        for r in range(row[0] - 2, row[-1] + 3):
            found = {}
            for t in tuples_with_budget(slot_knots, members, tops, tb, r):
                factors = [L.SimpleClass(k, *pt) for k, pt in zip(slot_knots, t)]
                found[canonical_signature(slot_knots, t)] = L.canonicalize_tuple(spec, factors).sort_key()
            assert list(gens.walk(tb, r, True)) == sorted(found, key=found.get), (spec.label(), tb, r)


def test_id_walk_matches_brute_force_on_grid_and_a_power(grid_specs, B):
    for spec in grid_specs:
        assert_id_walk_matches_brute_force(spec, 3)
    assert_id_walk_matches_brute_force(L.SumSpec.of([(B, 4)]), 3)


@pytest.mark.parametrize("spec, tb, r", [("B,Aprime", -11, -4), ("A,B", -10, 3), ("A:2,B", -8, 0), ("A", -3, 1)])
def test_fiber_ids_make_no_factor_object(monkeypatch, capsys, spec, tb, r):
    interned = record_calls(monkeypatch, sums._Generators, "_intern")
    made = record_calls(monkeypatch, L.SimpleClass, "__init__")
    assert main(["fiber", "--spec", spec, f"--tb={tb}", f"--r={r}"]) == 0
    rows = [row.split("\t") for row in capsys.readouterr().out.splitlines()]
    assert rows[2] == ["classes", "1"] and rows[3] == ["class", "0", str(len(rows) - 4), rows[4][2]]
    assert (interned, made) == ([], [])


def test_sum_json_ids_make_no_factor_object(monkeypatch, capsys):
    # U1,A is simple, so the writer lists every class's ids by the id walk.
    interned = record_calls(monkeypatch, sums._Generators, "_intern")
    made = record_calls(monkeypatch, L.SimpleClass, "__init__")
    assert main(["sum", "--spec", "U1,A", "--depth", "10", "--format", "json"]) == 0
    nodes = json.loads(capsys.readouterr().out)["nodes"]
    assert len({tuple(node["point"]) for node in nodes}) == len(nodes)
    assert sum(node["size"] for node in nodes) > len(nodes)
    assert (interned, made) == ([], [])


def test_import_leaves_the_thread_pool_unloaded():
    code = "import sys, legsum; legsum.catalog(); print('concurrent.futures' in sys.modules)"
    src = str(Path(L.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"
