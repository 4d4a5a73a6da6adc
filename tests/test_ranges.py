from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import legsum as L
from legsum.ranges import SIGNS, other_sign, r_step

from oracles import bfs_level, bfs_members, bfs_valleys


@st.composite
def valid_ranges(draw):
    k = draw(st.integers(1, 3))
    parity = draw(st.integers(0, 1))
    r0 = draw(st.integers(-6, 0))
    gaps = draw(st.lists(st.sampled_from([2, 4, 6]), min_size=k - 1, max_size=k - 1))
    rs = [r0]
    for g in gaps:
        rs.append(rs[-1] + g)
    peaks = []
    for r in rs:
        tb = draw(st.integers(-2, 2))
        tb += (parity - (tb + r)) % 2
        peaks.append((tb, r))
    rng = L.make_range("K", peaks)
    assume(rng.is_valid)
    return rng


# --- stabilization arithmetic -------------------------------------------------------


def test_stabilize_moves():
    cls = L.SimpleClass("A", 0, 2)
    assert cls.stabilized("+") == L.SimpleClass("A", -1, 3)
    assert cls.stabilized("-") == L.SimpleClass("A", -1, 1)
    assert str(cls) == "A(0,2)"


def test_sign_helpers():
    assert r_step("+") == 1 and r_step("-") == -1
    assert other_sign("+") == "-" and other_sign("-") == "+"
    with pytest.raises(ValueError):
        r_step("x")


@given(st.integers(-20, 20), st.integers(-20, 20), st.sampled_from(SIGNS))
def test_stabilize_drops_tb_and_flips_r(tb, r, sign):
    out = L.SimpleClass("K", tb, r).stabilized(sign)
    assert out.tb == tb - 1
    assert abs(out.r - r) == 1
    assert (out.tb + out.r) % 2 == (tb + r) % 2


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_stabilizations_commute(tb, r):
    cls = L.SimpleClass("K", tb, r)
    one = cls.stabilized("+").stabilized("-")
    two = cls.stabilized("-").stabilized("+")
    assert one == two == L.SimpleClass("K", tb - 2, r)


# --- validation ---------------------------------------------------------------------


def codes(rng: L.MountainRange) -> set[str]:
    return {v.code for v in rng.validate().violations}


def test_catalog_ranges_are_valid(cat):
    for rng in cat.values():
        assert rng.is_valid, rng.validate()


def test_empty_range_invalid():
    assert codes(L.make_range("E", [])) == {"empty"}


def test_peaks_out_of_order():
    assert "order" in codes(L.make_range("K", [(0, 2), (0, -2)]))


def test_peak_parity_mismatch():
    bad = L.make_range("K", [(0, 0), (0, 1)])
    assert {"parity", "valley-nonintegral"} <= codes(bad)


def test_domination():
    assert "domination" in codes(L.make_range("K", [(1, 0), (0, 1)]))


def test_misplaced_valley():
    bad = L.make_range("K", [(0, 0), (-1, 1)])
    assert "valley-misplaced" in codes(bad)
    with pytest.raises(L.RangeInvalid) as exc:
        bad.require_valid()
    assert "valley" in str(exc.value)


def test_bennequin_bound():
    too_small = L.make_range("A", [(0, -2), (0, 2)], genus=1)
    assert codes(too_small) == {"bennequin"}
    assert L.make_range("A", [(0, -2), (0, 2)], genus=2).is_valid


def test_report_lists_all_violations():
    bad = L.make_range("K", [(3, 0), (0, 1)], genus=0)
    report = bad.validate()
    assert not report.ok
    assert len(report.violations) >= 3  # parity, domination, bennequin at least


@given(valid_ranges())
def test_valid_ranges_have_one_more_peak_than_valleys(rng):
    assert rng.peak_count == len(rng.valleys()) + 1


# --- valleys -----------------------------------------------------------------------


def test_valleys_frozen(A, B):
    assert A.valleys() == (L.Valley(-2, 0, 0, 1),)
    assert B.valleys() == (L.Valley(-2, -2, 0, 1), L.Valley(-2, 2, 1, 2))
    D = L.make_range("D", [(0, -2), (0, 4)])
    assert D.valleys() == (L.Valley(-3, 1, 0, 1),)


def test_valleys_match_bfs_oracle(cat):
    for rng in cat.values():
        peaks = [p.tb for p in rng.peaks]  # touch to keep rng referenced
        pts = [(p.tb, p.r) for p in rng.peaks]
        expected = bfs_valleys(pts, rng.top_tb - 8)
        got = sorted((v.tb, v.r) for v in rng.valleys())
        assert got == expected, rng.knot_id
        assert len(peaks) == rng.peak_count


@given(valid_ranges())
def test_valleys_match_bfs_oracle_random(rng):
    pts = [(p.tb, p.r) for p in rng.peaks]
    expected = bfs_valleys(pts, rng.top_tb - 10)
    assert sorted((v.tb, v.r) for v in rng.valleys()) == expected


# --- membership and level slices ---------------------------------------------------


def test_membership_frozen(A):
    assert not A.contains(0, 0)
    assert A.contains(-2, 0)
    assert A.membership(-2, 0).peak_indices == (0, 1)
    assert A.membership(-1, -3).peak_indices == (0,)
    assert A.level_points(0) == [-2, 2]
    assert A.level_points(-1) == [-3, -1, 1, 3]
    assert A.level_points(-2) == [-4, -2, 0, 2, 4]
    assert A.level_points(1) == []


def test_point_accessor(A):
    assert A.point(0, 2) == L.SimpleClass("A", 0, 2)
    with pytest.raises(L.NotAMember):
        A.point(0, 0)


def test_membership_matches_bfs_oracle(cat):
    for rng in cat.values():
        pts = [(p.tb, p.r) for p in rng.peaks]
        floor = rng.top_tb - 6
        members = bfs_members(pts, floor)
        for tb in range(floor, rng.top_tb + 1):
            assert rng.level_points(tb) == [r for _, r in bfs_level(pts, tb)]
        for tb in range(floor, rng.top_tb + 2):
            for r in range(-14, 15):
                assert rng.contains(tb, r) == ((tb, r) in members)


@given(valid_ranges(), st.integers(0, 8), st.integers(-16, 16))
def test_membership_matches_bfs_oracle_random(rng, depth, r):
    pts = [(p.tb, p.r) for p in rng.peaks]
    tb = rng.top_tb - depth
    members = bfs_members(pts, tb)
    assert rng.contains(tb, r) == ((tb, r) in members)


@given(valid_ranges(), st.integers(0, 6), st.sampled_from(SIGNS))
def test_members_closed_under_stabilization(rng, depth, sign):
    tb = rng.top_tb - depth
    for r in rng.level_points(tb):
        child = rng.point(tb, r).stabilized(sign)
        assert rng.contains(child.tb, child.r)


# --- destabilization ----------------------------------------------------------------


def test_destabilize_frozen(A):
    cls = A.point(-1, 1)
    assert A.destabilize(cls, "+") is None
    assert A.destabilize(cls, "-") == L.SimpleClass("A", 0, 2)
    with pytest.raises(L.NotAMember):
        A.destabilize(L.SimpleClass("B", -1, 1), "+")


def test_peaks_have_no_parents(cat):
    for rng in cat.values():
        for p in rng.peaks:
            cls = rng.point(p.tb, p.r)
            assert rng.destabilize(cls, "+") is None
            assert rng.destabilize(cls, "-") is None


@given(valid_ranges(), st.integers(0, 5), st.sampled_from(SIGNS))
def test_destabilize_inverts_stabilize(rng, depth, sign):
    tb = rng.top_tb - depth
    for r in rng.level_points(tb):
        cls = rng.point(tb, r)
        child = cls.stabilized(sign)
        assert rng.destabilize(child, sign) == cls


# --- shape helpers ------------------------------------------------------------------


def test_max_peak_and_translation(B, A, Aprime):
    assert B.max_peak() == L.Peak(0, 4)
    moved = A.translated(2, "A2")
    assert [(p.tb, p.r) for p in moved.peaks] == [(p.tb, p.r) for p in Aprime.peaks]
    assert moved.knot_id == "A2"
    # the genus annotation travels along, and the shifted peak now breaks
    # its Bennequin bound; re-annotating restores validity
    assert codes(moved) == {"bennequin"}
    assert L.MountainRange("A2", moved.peaks, genus=3).is_valid
    assert [(v.tb, v.r) for v in moved.valleys()] == [(-2, 2)]


def test_parity_and_top(A, U1, C):
    assert A.parity == 0 and A.top_tb == 0
    assert U1.parity == 1 and U1.top_tb == -1
    assert C.parity == 1 and C.top_tb == 1


def test_simple_class_text_is_no_field():
    a, b = L.SimpleClass("A", -1, 2), L.SimpleClass("A", -1, 2)
    assert str(a) == "A(-1,2)"
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b) == "SimpleClass(knot_id='A', tb=-1, r=2)"
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)), pickle.loads(pickle.dumps(b))):
        assert c == a and hash(c) == hash(a) and str(c) == "A(-1,2)"
