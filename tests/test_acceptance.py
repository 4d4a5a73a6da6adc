"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Each test emits a line of the form ``ACCEPTANCE <n> PASS: ...`` (or FAIL)
outside pytest's capture, so the verdicts are visible in any capture mode;
run ``pytest tests/test_acceptance.py`` and look for those lines.
"""

import itertools
from contextlib import contextmanager

import pytest
from hypothesis import given, strategies as st

import legsum as L
from oracles import all_window_points, form_representations, relation_neighbors


@pytest.fixture
def verdict(capfd):
    @contextmanager
    def _verdict(num: int, desc: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"ACCEPTANCE {num} FAIL: {desc}", flush=True)
            raise
        with capfd.disabled():
            print(f"ACCEPTANCE {num} PASS: {desc}", flush=True)

    return _verdict


def witness_class_indices(spec, w):
    classes = L.enumerate_fiber(spec, *w.point)
    ia = [i for i, c in enumerate(classes) if w.tuple_a in c.members]
    ib = [i for i, c in enumerate(classes) if w.tuple_b in c.members]
    return classes, ia, ib


# --- 1: closed-form criterion vs. exhaustive window oracle ---------------------------


def test_acceptance_1_criterion_matches_window_oracle(verdict, grid_specs):
    with verdict(
        1,
        "closed-form simplicity criterion matches the depth-8 window oracle "
        "on all 55 grid specs; every nonsimple verdict is backed by a "
        "class-splitting witness",
    ):
        assert len(grid_specs) == 55
        nonsimple = 0
        for spec in grid_specs:
            cv = L.criterion(spec)
            wv = L.simplicity_in_window(spec, spec.top_tb - 8)
            assert cv.simple == wv.simple_in_window, spec.label()
            if cv.simple:
                assert wv.witness is None, spec.label()
            else:
                nonsimple += 1
                w = wv.witness
                assert w is not None, spec.label()
                classes, ia, ib = witness_class_indices(spec, w)
                assert len(classes) >= 2, spec.label()
                assert len(ia) == 1 and len(ib) == 1, spec.label()
                assert ia != ib, spec.label()
        assert nonsimple == 20


# --- 2: peak counts --------------------------------------------------------------------


def test_acceptance_2_peak_counts(verdict, grid_specs, cat):
    with verdict(
        2,
        "peak counts agree on every grid spec: multiset formula == "
        "enumerated peak tuples == peaks detected in the built window",
    ):
        for spec in grid_specs:
            pts = L.peaks_of_sum(spec)
            formula = L.peak_count_formula(spec)
            assert len(pts) == formula, spec.label()
            poset = L.build_quotient(spec, spec.top_tb - 2)
            detected = L.detect_peaks(poset)
            assert len(detected) == formula, spec.label()
            assert {n.point for n in detected} == {t.invariants() for t in pts}
            assert {n.members[0] for n in detected} == set(pts)
        frozen = [
            ([("A", 2)], 3),
            ([("A", 3)], 4),
            ([("B", 2)], 6),
            ([("A", 1), ("B", 1)], 6),
        ]
        for parts, expected in frozen:
            spec = L.SumSpec.of([(cat[k], n) for k, n in parts])
            assert L.peak_count_formula(spec) == expected, parts


# --- 3: canonical-form bijection for two-peak powers --------------------------------------


def test_acceptance_3_canonical_form_bijection(verdict, A):
    with verdict(
        3,
        "normal forms of two-peak self-sums biject with window points for "
        "n=2,3 at depth 8, and all representations of one point share one class",
    ):
        peaks = [(p.tb, p.r) for p in A.peaks]
        for n in (2, 3):
            spec = L.SumSpec.of([(A, n)])
            depth = 8
            tb_min = spec.top_tb - depth
            poset = L.build_quotient(spec, tb_min)
            window = {node.point for node in poset}
            assert window == all_window_points(peaks, n, tb_min)
            # two-peak powers are simple: one class per point
            assert all(poset.fiber_size(*pt) == 1 for pt in window)

            forms = {}
            for node in poset:
                form = L.canonical_form(A, n, *node.point)
                assert form is not None, node.point
                assert L.form_point(A, n, form) == node.point
                assert L.form_tuple(A, n, form) in node.members
                # the canonical representative is the minimal-q representation
                reps = form_representations(peaks, n, *node.point)
                assert (form.a, form.b, form.p, form.q) == reps[0]
                forms[node.point] = (form.a, form.b, form.p, form.q)
            assert len(set(forms.values())) == len(poset)

            # onto: every valid form whose point lands in the window is hit,
            # and every representation realizes a tuple of the point's class
            for q in range(n + 1):
                p = n - q
                for a in range(depth + 1):
                    for b in range(depth + 1 - a):
                        form = L.CanonicalForm(a, b, p, q)
                        pt = L.form_point(A, n, form)
                        if pt[0] < tb_min:
                            continue
                        assert pt in window, form
                        node = poset.fiber(*pt)[0]
                        assert L.form_tuple(A, n, form) in node.members

            # points of the right bounding box that are not in the mountain
            # range have no canonical form
            r_lo = min(pt[1] for pt in window)
            r_hi = max(pt[1] for pt in window)
            for tb in range(tb_min, spec.top_tb + 1):
                for r in range(r_lo, r_hi + 1):
                    if (tb, r) not in window:
                        assert L.canonical_form(A, n, tb, r) is None, (tb, r)

        # frozen example: three representations of one point, one class
        reps = form_representations(peaks, 2, -3, 0)
        assert reps == [(4, 0, 2, 0), (2, 2, 1, 1), (0, 4, 0, 2)]
        spec2 = L.SumSpec.of([(A, 2)])
        inv = L.xy_invariants(A, 2, -3, 0)
        assert (inv.x, inv.y) == (0, 0)
        ids = {
            L.form_tuple(A, 2, L.CanonicalForm(a, b, p, q)).id_string()
            for a, b, p, q in reps
        }
        classes = L.enumerate_fiber(spec2, -3, 0)
        assert len(classes) == 1  # every representation sits in one fiber class
        assert ids <= {t.id_string() for t in classes[0].members}
        form = L.canonical_form(A, 2, -3, 0)
        assert (form.a, form.b, form.p, form.q) == (4, 0, 2, 0)


# --- 4: dichotomy at maximal nonsimple points ---------------------------------------------


def test_acceptance_4_nmax_dichotomy(verdict, grid_specs):
    with verdict(
        4,
        "every maximal nonsimple point of every nonsimple grid spec is "
        "case1 or case2 (never a violation); a hand-built violating window "
        "is flagged",
    ):
        checked = 0
        for spec in grid_specs:
            if L.criterion(spec).simple:
                continue
            checked += 1
            poset = L.build_quotient(spec, spec.top_tb - 8)
            assert L.structure_violations(poset) == [], spec.label()
            verdicts = L.check_nmax_dichotomy(poset)
            assert verdicts, spec.label()
            for v in verdicts:
                assert v.case in ("case1", "case2"), (spec.label(), v)
                assert v.fiber_size >= 2
        assert checked == 20

        control = L.QuotientPoset.from_parts(
            [("g", 2, 0), ("p1", 1, -1), ("p2", 1, 1), ("n1", 0, 0), ("n2", 0, 0)],
            [("g", "-", "p1"), ("g", "+", "p2"), ("p1", "+", "n1"), ("p2", "-", "n2")],
            tb_min=0,
            top_tb=2,
        )
        assert [v.case for v in L.check_nmax_dichotomy(control)] == ["violation"]
        assert L.structure_violations(control) != []


# --- 5: path search against the fiber oracle ----------------------------------------------


def test_acceptance_5_path_oracle_consistency(verdict, cat):
    with verdict(
        5,
        "in every two-summand relatively-prime grid spec at depth 6, "
        "equivalent tuples are joined by a word of length <= 24 that "
        "validates as transfer moves, and no word joins inequivalent tuples",
    ):
        connected = 0
        split = 0
        for k1, k2 in itertools.combinations(sorted(cat), 2):
            spec = L.SumSpec.of([(cat[k1], 1), (cat[k2], 1)])
            r1, r2 = spec.ranges
            tb_min = spec.top_tb - 6
            floor = min(spec.factor_floor(tb_min, s.knot_id) for s in spec.summands)
            poset = L.build_quotient(spec, tb_min)
            for node in poset:
                for t1, t2 in itertools.combinations(node.members, 2):
                    w = L.find_connecting_path(
                        r1, r2,
                        t1.factors[0], t2.factors[0],
                        t1.factors[1], t2.factors[1],
                        tb_floor=floor, max_len=24,
                    )
                    assert w is not None, (spec.label(), t1.id_string(), t2.id_string())
                    assert len(w) <= 24
                    assert L.check_multipath(spec, [w, w.reverse()], t1, t2)
                    connected += 1
            # soundness: representatives of distinct classes never connect
            for pt in poset.points():
                nodes = poset.fiber(*pt)
                for n1, n2 in itertools.combinations(nodes, 2):
                    t1, t2 = n1.members[0], n2.members[0]
                    w = L.find_connecting_path(
                        r1, r2,
                        t1.factors[0], t2.factors[0],
                        t1.factors[1], t2.factors[1],
                        tb_floor=floor, max_len=24,
                    )
                    assert w is None, (spec.label(), t1.id_string(), t2.id_string())
                    split += 1
        assert connected == 33026
        assert split == 20


# --- 6: arithmetic and structural property suite ------------------------------------------


def test_acceptance_6_property_suite(verdict, cat):
    with verdict(
        6,
        "property suite: stabilization commutativity, parity conservation, "
        "invariant additivity, cone closure, peak/valley count, "
        "transfer-move invariance, genus bound",
    ):
        ranges = sorted(cat.values(), key=lambda r: r.knot_id)
        range_st = st.sampled_from(ranges)
        sign_st = st.sampled_from(("+", "-"))

        @st.composite
        def member_of(draw, rng):
            tb = draw(st.integers(rng.top_tb - 6, rng.top_tb))
            r = draw(st.sampled_from(rng.level_points(tb)))
            return rng.point(tb, r)

        @given(st.data())
        def check_commutativity_and_cone(data):
            rng = data.draw(range_st)
            cls = data.draw(member_of(rng))
            a = cls.stabilized("+").stabilized("-")
            b = cls.stabilized("-").stabilized("+")
            assert a == b
            assert rng.point(a.tb, a.r) == a  # cone closure: still a member

        @given(st.data())
        def check_parity(data):
            rng = data.draw(range_st)
            cls = data.draw(member_of(rng))
            sign = data.draw(sign_st)
            after = cls.stabilized(sign)
            assert (after.tb + after.r) % 2 == (cls.tb + cls.r) % 2 == rng.parity

        @given(st.data())
        def check_additivity(data):
            k1, k2 = data.draw(
                st.sampled_from(list(itertools.combinations(sorted(cat), 2)))
            )
            spec = L.SumSpec.of([(cat[k1], 1), (cat[k2], 1)])
            c1 = data.draw(member_of(cat[k1]))
            c2 = data.draw(member_of(cat[k2]))
            t = L.canonicalize_tuple(spec, [c1, c2])
            assert t.invariants() == (c1.tb + c2.tb + 1, c1.r + c2.r)
            assert spec.top_tb == cat[k1].top_tb + cat[k2].top_tb + 1

        @given(st.data())
        def check_transfer_moves_preserve_invariants(data):
            k1, k2 = data.draw(
                st.sampled_from(list(itertools.combinations(sorted(cat), 2)))
            )
            spec = L.SumSpec.of([(cat[k1], 1), (cat[k2], 1)])
            c1 = data.draw(member_of(cat[k1]))
            c2 = data.draw(member_of(cat[k2]))
            t = L.canonicalize_tuple(spec, [c1, c2])
            for nb in relation_neighbors(spec, t):
                assert nb.invariants() == t.invariants()

        @given(st.data())
        def check_genus_bound(data):
            rng = data.draw(range_st)
            cls = data.draw(member_of(rng))
            assert cls.tb + abs(cls.r) <= 2 * rng.genus - 1

        check_commutativity_and_cone()
        check_parity()
        check_additivity()
        check_transfer_moves_preserve_invariants()
        check_genus_bound()

        for rng in ranges:
            assert len(rng.peaks) == len(rng.valleys()) + 1
        # a genus annotation that is too small is caught
        bad = L.MountainRange("X", ((1, 0),), genus=0)
        assert {v.code for v in bad.validate().violations} == {"bennequin"}


# --- 7: determinism --------------------------------------------------------------------


def test_acceptance_7_determinism(verdict, grid_specs):
    with verdict(
        7,
        "serial, parallel, and repeated runs produce byte-identical JSON "
        "reports and byte-identical figures for every grid spec",
    ):
        for spec in grid_specs:
            tb_min = spec.top_tb - 4
            q1 = L.build_quotient(spec, tb_min, workers=1)
            q2 = L.build_quotient(spec, tb_min, workers=2)
            q3 = L.build_quotient(spec, tb_min, workers=2)
            j1, j2, j3 = (L.dump_json(L.to_jsonable(q)) for q in (q1, q2, q3))
            assert j1 == j2 == j3, spec.label()
            for fmt in ("ascii", "svg"):
                figs = {L.render(q, L.RenderSpec(fmt, tb_min)) for q in (q1, q2, q3)}
                assert len(figs) == 1, (spec.label(), fmt)
