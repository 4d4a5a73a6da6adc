from __future__ import annotations

import copy
import pickle
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest

import legsum as L
from legsum.poset import QuotientPoset


def fixture_poset(nodes, edges, tb_min, top_tb, top_is_global=False):
    return QuotientPoset.from_parts(nodes, edges, tb_min, top_tb, top_is_global)


@pytest.fixture(scope="module")
def b2_window(request):
    cat = L.catalog()
    return L.build_quotient(L.SumSpec.of([(cat["B"], 2)]), -2)


# --- construction and accessors ------------------------------------------------------


def test_constructor_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        fixture_poset([("x", 0, 0), ("x", 0, 2)], [], 0, 0)
    with pytest.raises(ValueError, match="duplicate"):
        fixture_poset([("y", 1, 1), ("x", 0, 0), ("x", 0, 0)], [], 0, 1)


def test_constructor_rejects_out_of_window_nodes():
    with pytest.raises(ValueError, match="outside the window"):
        fixture_poset([("x", 3, 0)], [], 0, 2)
    with pytest.raises(ValueError, match="outside the window"):
        fixture_poset([("x", 2, 0), ("y", 1, 1), ("z", -1, 1)], [], 0, 2)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError, match="unknown node"):
        fixture_poset([("x", 1, 0)], [("x", "+", "y")], 0, 1)
    with pytest.raises(ValueError, match="stabilization step"):
        fixture_poset(
            [("x", 1, 0), ("y", 0, -1)], [("x", "+", "y")], 0, 1
        )
    with pytest.raises(ValueError, match="sign"):
        fixture_poset(
            [("x", 1, 0), ("y", 0, 1)], [("x", "?", "y")], 0, 1
        )


def built_poset(nodes, pos, neg, tb_min=0, top_tb=1):
    """A window handed over as a build does: nodes in window order, child positions per sign."""
    return QuotientPoset([L.PosetNode(*n) for n in nodes], {"+": pos, "-": neg}, tb_min, top_tb)


def test_built_windows_are_checked():
    nodes = [("x", 1, 0), ("y", 0, -1), ("z", 0, 1)]
    ok = built_poset(nodes, [[2], [], []], [[1], [], []])
    assert ok.edges == (L.Edge("x", "+", "z"), L.Edge("x", "-", "y"))
    assert ok.parents("z") == ("x",) and ok.children("x", "-") == ("y",)
    with pytest.raises(ValueError, match="stabilization step"):
        built_poset(nodes, [[1], [], []], [[2], [], []])
    with pytest.raises(ValueError, match="duplicate"):
        built_poset([("x", 1, 0), ("x", 1, 0)], [[], []], [[], []])
    with pytest.raises(ValueError, match="window order"):
        built_poset([("y", 0, -1), ("x", 1, 0)], [[], []], [[], []])
    with pytest.raises(ValueError, match="outside the window"):
        built_poset([("x", 2, 0)], [[]], [[]])


def test_accessors(b2_window):
    poset = b2_window
    assert len(poset) == 42
    keys = [n.key for n in poset]
    assert len(set(keys)) == 42
    order = [(-n.tb, n.r, n.key) for n in poset]
    assert order == sorted(order)
    top = poset.fiber(1, 0)
    assert [n.key for n in top] == ["B(0,-4)|B(0,4)", "B(0,0)|B(0,0)"]
    assert poset.fiber_size(1, 0) == 2
    assert poset.fiber_size(5, 5) == 0
    assert "B(0,0)|B(0,0)" in poset
    assert poset.node("B(0,0)|B(0,0)").point == (1, 0)
    assert (1, 0) in poset.points()
    kid = poset.children("B(0,0)|B(0,0)", "+")
    assert len(kid) == 1 and poset.node(kid[0]).point == (0, 1)
    assert "B(0,0)|B(0,0)" in poset.parents(kid[0], "+")


def test_structure_violations_empty_on_real_windows(cat):
    for parts in ([(cat["A"], 2)], [(cat["A"], 1), (cat["B"], 1)]):
        spec = L.SumSpec.of(parts)
        poset = L.build_quotient(spec, spec.top_tb - 3)
        assert L.structure_violations(poset) == []


# --- peaks and valleys ----------------------------------------------------------------


def test_detect_peaks_frozen(cat, b2_window):
    single = L.build_quotient(L.SumSpec.of([(cat["C"], 1)]), -2)
    assert [n.point for n in L.detect_peaks(single)] == [(1, 0)]
    a2 = L.build_quotient(L.SumSpec.of([(cat["A"], 2)]), -3)
    assert [n.point for n in L.detect_peaks(a2)] == [(1, -4), (1, 0), (1, 4)]
    assert len(L.detect_peaks(b2_window)) == 6


def test_detect_peaks_match_peaks_of_sum(cat):
    for parts in ([(cat["A"], 2)], [(cat["B"], 2)], [(cat["A"], 1), (cat["B"], 1)]):
        spec = L.SumSpec.of(parts)
        poset = L.build_quotient(spec, spec.top_tb - 2)
        got = sorted(n.key for n in L.detect_peaks(poset))
        want = sorted(t.id_string() for t in L.peaks_of_sum(spec))
        assert got == want


def test_detect_valleys_frozen(cat):
    a1 = L.build_quotient(L.SumSpec.of([(cat["A"], 1)]), -4)
    assert [n.point for n in L.detect_valleys(a1)] == [(-2, 0)]
    c1 = L.build_quotient(L.SumSpec.of([(cat["C"], 1)]), -4)
    assert L.detect_valleys(c1) == ()
    a2 = L.build_quotient(L.SumSpec.of([(cat["A"], 2)]), -3)
    assert sorted(n.point for n in L.detect_valleys(a2)) == [(-1, -2), (-1, 2)]
    assert len(L.detect_valleys(a2)) == len(L.detect_peaks(a2)) - 1


def test_detect_valleys_window_guard(cat):
    shallow = L.build_quotient(L.SumSpec.of([(cat["A"], 1)]), -1)
    assert L.detect_valleys(shallow) == ()
    deep_enough = L.build_quotient(L.SumSpec.of([(cat["A"], 1)]), -2)
    assert [n.point for n in L.detect_valleys(deep_enough)] == [(-2, 0)]


# --- nonsimple points and the dichotomy ------------------------------------------------


def test_nonsimple_points_frozen(b2_window):
    pts = dict(L.nonsimple_points(b2_window))
    assert pts[(1, 0)] == 2
    assert all(size >= 2 for size in pts.values())


def test_find_nmax_B2(b2_window):
    assert L.find_nmax(b2_window) == [(1, 0)]
    verdicts = L.check_nmax_dichotomy(b2_window)
    assert verdicts == [L.DichotomyVerdict((1, 0), 2, "case1")]


def test_find_nmax_looks_past_simple_parents():
    # (0, 0) lies below the nonsimple top only through the simple point (1, 1).
    fx = fixture_poset(
        [("a1", 2, 0), ("a2", 2, 0), ("m", 1, 1), ("b1", 0, 0), ("b2", 0, 0)],
        [("a1", "+", "m"), ("a2", "+", "m"), ("m", "-", "b1"), ("m", "-", "b2")],
        tb_min=0,
        top_tb=2,
    )
    assert L.find_nmax(fx) == [(2, 0)]


def test_nmax_case2_below_top(cat):
    # four distinct top peaks, so nonsimplicity first appears strictly below
    # the top level, at an image valley with a two-class fiber
    D = L.make_range("D", [(0, -2), (0, 4)])
    spec = L.SumSpec.of([(cat["A"], 1), (D, 1)])
    poset = L.build_quotient(spec, spec.top_tb - 4)
    assert len(L.detect_peaks(poset)) == 4
    assert L.find_nmax(poset) == [(0, 1)]
    assert L.check_nmax_dichotomy(poset) == [L.DichotomyVerdict((0, 1), 2, "case2")]


def test_nmax_negative_control_flags_violation():
    # hand-built poset: a two-class fiber that is neither parentless nor an
    # image valley ((2,0) is occupied), which no real quotient can produce
    fx = fixture_poset(
        [("g", 2, 0), ("p1", 1, -1), ("p2", 1, 1), ("n1", 0, 0), ("n2", 0, 0)],
        [("g", "-", "p1"), ("g", "+", "p2"), ("p1", "+", "n1"), ("p2", "-", "n2")],
        tb_min=0,
        top_tb=2,
    )
    assert L.find_nmax(fx) == [(0, 0)]
    assert L.check_nmax_dichotomy(fx) == [L.DichotomyVerdict((0, 0), 2, "violation")]
    assert len(L.structure_violations(fx)) == 3


def test_nmax_flags_a_two_class_point_missing_an_upper_neighbor():
    # both classes at (0, 0) have their parent at (1, -1); with no point at
    # (1, 1) the fiber is no image valley, which no real quotient can produce
    fx = fixture_poset(
        [("p", 1, -1), ("n1", 0, 0), ("n2", 0, 0)],
        [("p", "+", "n1"), ("p", "+", "n2")],
        tb_min=0,
        top_tb=1,
    )
    assert (fx.fiber_size(1, -1), fx.fiber_size(1, 1)) == (1, 0)
    assert L.find_nmax(fx) == [(0, 0)]
    assert L.check_nmax_dichotomy(fx) == [L.DichotomyVerdict((0, 0), 2, "violation")]


def test_nmax_valley_guard_requires_global_top():
    fx = fixture_poset(
        [("q1", 0, -1), ("q2", 0, 1), ("m1", -1, 0), ("m2", -1, 0)],
        [("q1", "+", "m1"), ("q2", "-", "m2")],
        tb_min=-1,
        top_tb=0,
    )
    assert L.find_nmax(fx) == [(-1, 0)]
    with pytest.raises(L.WindowTooShallow):
        L.check_nmax_dichotomy(fx)


def test_nmax_parentless_guard_requires_global_top():
    nodes = [("x1", 0, 0), ("x2", 0, 0)]
    fx = fixture_poset(nodes, [], tb_min=0, top_tb=0)
    with pytest.raises(L.WindowTooShallow):
        L.classify_nmax_point(fx, (0, 0))
    trusted = fixture_poset(nodes, [], tb_min=0, top_tb=0, top_is_global=True)
    assert L.classify_nmax_point(trusted, (0, 0)).case == "case1"


def test_nonsimple_report(cat, b2_window):
    rep = L.nonsimple_report(b2_window)
    assert not rep.simple
    assert rep.tb_min == -2 and rep.top_tb == 1
    assert ((1, 0), 2) in rep.nonsimple
    assert rep.nmax[0].case == "case1"

    a2 = L.build_quotient(L.SumSpec.of([(cat["A"], 2)]), -3)
    rep2 = L.nonsimple_report(a2)
    assert rep2.simple
    assert rep2.nonsimple == () and rep2.nmax == ()


def test_nonsimple_report_finds_each_set_once(monkeypatch, b2_window):
    want = (tuple(L.nonsimple_points(b2_window)), tuple(L.check_nmax_dichotomy(b2_window)))
    calls = []
    for name in ("nonsimple_points", "find_nmax", "_maximal"):
        def counted(*args, _name=name, _original=getattr(L.poset, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(L.poset, name, counted)
    rep = L.nonsimple_report(b2_window)
    assert (rep.nonsimple, rep.nmax) == want
    assert sorted(calls) == ["_maximal", "nonsimple_points"]


# --- node values ---------------------------------------------------------------------------


def test_node_value_semantics(cat):
    spec = L.SumSpec.of([(cat["A"], 1), (cat["B"], 1)])
    one, two = (L.build_quotient(spec, spec.top_tb - 4) for _ in range(2))
    assert [hash(n) for n in one] == [hash(n) for n in two]
    assert list(one) == list(two) and set(one) == set(two)
    for node in one:
        assert node.size == len(node.members) >= 1
        assert node.representative == node.members[0]
        same = L.PosetNode(node.key, node.tb, node.r, members=node.members)
        assert same == node and hash(same) == hash(node) and repr(same) == repr(node)
        assert node != L.PosetNode(node.key, node.tb, node.r)
        assert copy.deepcopy(node) == node and pickle.loads(pickle.dumps(node)) == node

    built = next(iter(one))
    t = built.representative
    kw = L.PosetNode("k", built.tb, built.r, members=(t,))
    assert kw.members == (t,) and kw.representative == t and kw.size == 1
    assert repr(kw) == f"PosetNode(key='k', tb={built.tb}, r={built.r}, members=({t!r},))"

    fixture = fixture_poset([("x", 0, 0)], [], tb_min=0, top_tb=0).node("x")
    assert fixture.size == 0 and fixture.representative is None and fixture.members == ()
    assert fixture == L.PosetNode("x", 0, 0) and hash(fixture) == hash(L.PosetNode("x", 0, 0))
    assert fixture != kw and fixture != ("x", 0, 0, ())
    assert repr(fixture) == "PosetNode(key='x', tb=0, r=0, members=())"

    for node in (built, kw, fixture):
        for name in ("key", "tb", "members", "representative", "extra"):
            with pytest.raises(FrozenInstanceError):
                setattr(node, name, None)
        with pytest.raises(FrozenInstanceError):
            del node.key


def test_concurrent_first_reads_of_members_agree(cat):
    spec = L.SumSpec.of([(cat["B"], 3)])
    want = {n.key: n.members for n in L.build_quotient(spec, spec.top_tb - 4)}
    nodes = list(L.build_quotient(spec, spec.top_tb - 4))
    seen: list[dict] = []
    errors: list[Exception] = []
    start = threading.Barrier(8)

    def read() -> None:
        try:
            start.wait(timeout=60)
            seen.append({n.key: n.members for n in nodes})
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert seen == [want] * 8


def test_concurrent_first_reads_of_ids_and_members_agree(cat):
    spec = L.SumSpec.of([(cat["A"], 2), (cat["B"], 1)])
    want = [(n.key, n.ids, n.members) for n in L.build_quotient(spec, spec.top_tb - 6)]
    nodes = list(L.build_quotient(spec, spec.top_tb - 6))
    seen: list[list] = []
    errors: list[Exception] = []
    start = threading.Barrier(8)

    def view(n: L.PosetNode, ids_first: bool) -> tuple:
        if ids_first:
            ids, key, members = n.ids, n.key, n.members
        else:
            members, key, ids = n.members, n.key, n.ids
        return key, ids, members

    def read(ids_first: bool) -> None:
        try:
            start.wait(timeout=60)
            seen.append([view(n, ids_first) for n in nodes])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k % 2 == 0,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert seen == [want] * 8


def test_edges_come_in_key_order_and_are_counted(grid_specs):
    windows = [L.build_quotient(spec, spec.top_tb - 3) for spec in grid_specs]
    windows.append(fixture_poset(
        [("x", 1, 0), ("y", 0, 1), ("w", 0, 1), ("z", 0, -1)],
        [("x", "+", "y"), ("x", "+", "w"), ("x", "-", "z")],
        0, 1,
    ))
    # Child positions as a builder passes them, two of one sign out of key order.
    nodes = [L.PosetNode("z", 1, 0), L.PosetNode("b", 0, -1), L.PosetNode("a", 0, 1), L.PosetNode("c", 0, 1)]
    windows.append(QuotientPoset(nodes, {L.POS: [[3, 2], [], [], []], L.NEG: [[1], [], [], []]}, 0, 1, False))
    for window in windows:
        keys = [n.key for n in window]
        links = [(keys[i], sign, keys[c]) for sign, down in window._down.items() for i, kids in enumerate(down) for c in kids]
        assert [(e.parent, e.sign, e.child) for e in window.edges] == sorted(links)
        assert window.edge_count == len(window.edges) == len(links)
    assert windows[-1].edge_count == 3
    assert fixture_poset([("x", 0, 0)], [], 0, 0).edge_count == 0
