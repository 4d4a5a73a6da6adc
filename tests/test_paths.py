from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

import legsum as L
from legsum.paths import PathLetter, PathWord


def letters(word: L.PathWord) -> list[tuple[str, int]]:
    return [(l.epsilon, l.eta) for l in word.letters]


# --- letters and words ------------------------------------------------------------


def test_letter_basics():
    plus = PathLetter("+", 1)
    assert plus.token() == "+"
    assert PathLetter("-", -1).token() == "-^-1"
    assert plus.reversed() == PathLetter("+", -1)
    ident = PathLetter("0", -1)  # identity normalizes its exponent
    assert ident.eta == 1 and ident.is_identity
    assert ident.reversed() == ident
    with pytest.raises(ValueError):
        PathLetter("x", 1)
    with pytest.raises(ValueError):
        PathLetter("+", 2)


def test_reverse_negates_in_place():
    w = PathWord((PathLetter("+", 1), PathLetter("-", -1), PathLetter("0", 1)))
    rev = w.reverse()
    assert letters(rev) == [("+", -1), ("-", 1), ("0", 1)]
    assert rev.reverse() == w
    assert PathWord(()).reverse() == PathWord(())


def test_concat_applies_first_then_second(A):
    s_plus = PathWord((PathLetter("+", 1),))
    s_minus = PathWord((PathLetter("-", 1),))
    combo = L.concat(s_minus, s_plus)
    assert letters(combo) == [("+", 1), ("-", 1)]
    assert L.realize(combo, A, A.point(0, -2)) == frozenset({A.point(-2, -2)})


def test_format_puts_first_applied_rightmost():
    w = PathWord((PathLetter("+", 1), PathLetter("-", -1)))
    assert L.format_word(w) == "-^-1 +"
    assert L.format_word(PathWord(())) == ""


def test_parse_round_trip():
    w = L.parse_word("S-^-1 S+")
    assert letters(w) == [("+", 1), ("-", -1)]
    assert L.format_word(w) == "-^-1 +"
    assert L.parse_word("-^-1 +") == w  # the S prefix is optional
    assert L.parse_word("") == PathWord(())
    assert letters(L.parse_word("0 + 0")) == [("0", 1), ("+", 1), ("0", 1)]


@given(
    st.lists(
        st.tuples(st.sampled_from("0+-"), st.sampled_from((1, -1))),
        max_size=8,
    )
)
def test_parse_format_inverse(pairs):
    word = PathWord(tuple(PathLetter(e, n) for e, n in pairs))
    assert L.parse_word(L.format_word(word)) == word


def test_parse_errors():
    with pytest.raises(L.ParseError):
        L.parse_word("q")
    with pytest.raises(L.ParseError):
        L.parse_word("0^-1")
    with pytest.raises(L.ParseError):
        L.parse_word("+ ^-1")


# --- realization on ranges ------------------------------------------------------------


def test_realize_on_range_frozen(A):
    up = L.parse_word("+^-1")
    assert L.realize(up, A, A.point(-1, 3)) == frozenset({A.point(0, 2)})
    # destabilizing past a peak dies out
    assert L.realize(up, A, A.point(0, 2)) == frozenset()
    ident = L.parse_word("0")
    assert L.realize(ident, A, A.point(0, 2)) == frozenset({A.point(0, 2)})
    with pytest.raises(L.NotAMember):
        L.realize(up, A, L.SimpleClass("A", 0, 0))


def test_realize_accepts_bare_points(A):
    word = L.parse_word("-")
    assert L.realize(word, A, (0, 2)) == frozenset({A.point(-1, 1)})


@given(
    st.lists(
        st.tuples(st.sampled_from("+-"), st.sampled_from((1, -1))), max_size=6
    ),
    st.integers(0, 3),
)
def test_realization_on_ranges_is_at_most_one_point(cat, pairs, idx):
    A = cat["A"]
    starts = [(0, -2), (0, 2), (-1, 1), (-2, 0)]
    word = PathWord(tuple(PathLetter(e, n) for e, n in pairs))
    out = L.realize(word, A, A.point(*starts[idx]))
    assert len(out) <= 1
    for cls in out:
        assert A.contains(cls.tb, cls.r)


# --- realization on posets ------------------------------------------------------------


@pytest.fixture(scope="module")
def b2():
    cat = L.catalog()
    spec = L.SumSpec.of([(cat["B"], 2)])
    return spec, L.build_quotient(spec, -2)


def test_realize_on_poset(b2):
    spec, poset = b2
    start = poset.fiber(1, 0)[0]
    assert start.key == "B(0,-4)|B(0,4)"
    out = L.realize(L.parse_word("+"), poset, start)
    assert out == frozenset({"B(0,-4)|B(-1,5)"})
    back = L.realize(L.parse_word("+^-1 +"), poset, start)
    assert back == frozenset({start.key})
    idle = L.realize(L.parse_word("0 0"), poset, start.key)
    assert idle == frozenset({start.key})
    with pytest.raises(KeyError):
        L.realize(L.parse_word("+"), poset, "nope")


def test_realize_on_poset_truncates(b2):
    spec, poset = b2
    start = poset.fiber(1, 0)[0]
    with pytest.raises(L.Truncated):
        L.realize(L.parse_word("+ + + +"), poset, start)


def test_realize_rejects_unknown_model():
    with pytest.raises(TypeError):
        L.realize(L.parse_word("+"), object(), (0, 0))


def test_realize_on_poset_starts_from_the_class_of_a_member_tuple(b2):
    spec, poset = b2
    node = next(n for n in poset if len(n.members) > 1)
    member = node.members[-1]
    assert member != node.representative
    assert L.realize(L.parse_word("0"), poset, member) == frozenset({node.key})
    assert L.realize(L.parse_word("+"), poset, member) == L.realize(L.parse_word("+"), poset, node)


def test_realize_on_poset_rejects_a_tuple_outside_the_window(b2):
    spec, poset = b2
    B = spec.ranges[0]
    deep = L.canonicalize_tuple(spec, [B.point(-3, 1), B.point(-3, -1)])
    assert deep.invariants()[0] < poset.tb_min
    with pytest.raises(KeyError) as exc:
        L.realize(L.parse_word("+"), poset, deep)
    assert exc.value.args == ("tuple B(-3,-1)|B(-3,1) is not in the window",)


# --- multipath checking ------------------------------------------------------------


def test_multipath_single_transfer(A):
    spec = L.SumSpec.of([(A, 2)])
    start = L.canonicalize_tuple(spec, [A.point(-1, -1), A.point(0, 2)])
    end = L.canonicalize_tuple(spec, [A.point(0, -2), A.point(-1, 3)])
    # canonical order puts (0,2) first; it takes the S+ move while (-1,-1)
    # takes the S+^-1 move
    words = [PathWord((PathLetter("+", 1),)), PathWord((PathLetter("+", -1),))]
    assert L.check_multipath(spec, words, start, end)


def test_multipath_rejects_mixed_level(A):
    spec = L.SumSpec.of([(A, 2)])
    start = L.canonicalize_tuple(spec, [A.point(-1, -1), A.point(-1, 1)])
    words = [PathWord((PathLetter("+", -1),)), PathWord((PathLetter("-", 1),))]
    assert not L.check_multipath(spec, words, start, start)


def test_multipath_rejects_levels_of_other_than_two_moves(A):
    idle = PathWord((PathLetter("0", 1),))
    two = L.SumSpec.of([(A, 2)])
    t = L.canonicalize_tuple(two, [A.point(0, -2), A.point(0, 2)])
    assert not L.check_multipath(two, [idle, idle], t, t)
    three = L.SumSpec.of([(A, 3)])
    start = L.canonicalize_tuple(three, [A.point(-1, -1), A.point(-1, 1), A.point(-1, 3)])
    down, up = PathWord((PathLetter("+", 1),)), PathWord((PathLetter("+", -1),))
    assert not L.check_multipath(three, [down, up, down], start, start)


def test_multipath_rejects_words_that_do_not_land(A, B):
    spec = L.SumSpec.of([(A, 1), (B, 1)])
    start = L.canonicalize_tuple(spec, [A.point(0, 2), B.point(-1, 1)])
    # A(0,2) is a peak: its S+^-1 lands nowhere
    words = [PathWord((PathLetter("+", -1),)), PathWord((PathLetter("+", 1),))]
    assert L.realize(words[0], A, start.factors[0]) == frozenset()
    assert not L.check_multipath(spec, words, start, start)


def test_multipath_rejects_an_end_with_another_knot_at_a_position(A, B):
    spec = L.SumSpec.of([(A, 1), (B, 1)])
    a, b = A.point(0, 2), B.point(-1, 1)
    start = L.canonicalize_tuple(spec, [a, b])
    # The same factors in swapped positions: each word lands on its own
    # factor, whose knot is not the end's at that position.
    swapped = L.TupleClass((b, a))
    assert not L.check_multipath(spec, [PathWord(()), PathWord(())], start, swapped)


def test_multipath_empty_words(A):
    spec = L.SumSpec.of([(A, 2)])
    t = L.canonicalize_tuple(spec, [A.point(0, -2), A.point(0, 2)])
    assert L.check_multipath(spec, [PathWord(()), PathWord(())], t, t)


def test_multipath_length_mismatch(A):
    spec = L.SumSpec.of([(A, 2)])
    t = L.canonicalize_tuple(spec, [A.point(0, -2), A.point(0, 2)])
    with pytest.raises(L.LengthMismatch):
        L.check_multipath(spec, [PathWord(())], t, t)
    with pytest.raises(L.LengthMismatch):
        L.check_multipath(
            spec, [PathWord(()), PathWord((PathLetter("+", 1),))], t, t
        )


def test_multipath_needs_permutation(A, B):
    # same-knot factors may swap roles between start and end
    spec = L.SumSpec.of([(A, 2)])
    start = L.canonicalize_tuple(spec, [A.point(0, -2), A.point(-2, 2)])
    end = L.canonicalize_tuple(spec, [A.point(-1, -3), A.point(-1, 3)])
    words = [PathWord((PathLetter("-", 1),)), PathWord((PathLetter("-", -1),))]
    assert L.check_multipath(spec, words, start, end)


def test_multipath_permutes_within_a_block_of_two_summands(A, B):
    spec = L.SumSpec.of([(A, 2), (B, 1)])
    b = B.point(-1, 1)
    start = L.canonicalize_tuple(spec, [A.point(-1, -1), A.point(0, 2), b])
    end = L.canonicalize_tuple(spec, [A.point(0, -2), A.point(-1, 3), b])
    words = [
        PathWord((PathLetter("+", 1),)),
        PathWord((PathLetter("+", -1),)),
        PathWord((PathLetter("0", 1),)),
    ]
    landed = [L.realize(w, spec.range_of(f.knot_id), f) for w, f in zip(words, start.factors)]
    # the A words land on the A end factors only in swapped order
    assert [end.factors[1], end.factors[0], b] == [next(iter(e)) for e in landed]
    assert L.check_multipath(spec, words, start, end)
    other = L.canonicalize_tuple(spec, [A.point(0, -2), A.point(-1, 3), B.point(-1, -1)])
    assert not L.check_multipath(spec, words, start, other)


@pytest.mark.parametrize("n", [10, 40])
def test_multipath_is_fast_on_large_blocks(A, n):
    # listing the n! permutations of the A block would never finish here
    spec = L.SumSpec.of([(A, n)])
    points = [A.point(0, -2), A.point(0, 2), A.point(-1, -1), A.point(-1, 1), A.point(-1, 3)]
    start = L.canonicalize_tuple(spec, [points[i % 5] for i in range(n)])
    moved = L.canonicalize_tuple(spec, [points[i % 5] for i in range(n - 1)] + [A.point(-2, 0)])
    words = [PathWord(())] * n
    assert L.check_multipath(spec, words, start, start)
    assert not L.check_multipath(spec, words, start, moved)


# --- connecting-path search ------------------------------------------------------------


def test_connecting_path_trivial(A, C):
    w = L.find_connecting_path(
        A, C, A.point(0, 2), A.point(0, 2), C.point(1, 0), C.point(1, 0),
        tb_floor=-6, max_len=10,
    )
    assert w == PathWord(())


def test_connecting_path_shortest_destabilization(A, C):
    w = L.find_connecting_path(
        A, C, A.point(-1, 3), A.point(0, 2), C.point(1, 0), C.point(0, 1),
        tb_floor=-8, max_len=24,
    )
    assert L.format_word(w) == "+^-1"
    assert L.realize(w, A, A.point(-1, 3)) == frozenset({A.point(0, 2)})
    assert L.realize(w.reverse(), C, C.point(1, 0)) == frozenset({C.point(0, 1)})


def test_connecting_path_across_valley(A, C):
    w = L.find_connecting_path(
        A, C, A.point(-1, -1), A.point(-1, 1), C.point(0, 1), C.point(0, -1),
        tb_floor=-8, max_len=24,
    )
    assert len(w) == 2
    assert L.format_word(w) == "-^-1 +"
    assert L.realize(w, A, A.point(-1, -1)) == frozenset({A.point(-1, 1)})
    assert L.realize(w.reverse(), C, C.point(0, 1)) == frozenset({C.point(0, -1)})


def test_connecting_path_respects_bounds(A, C):
    args = (A, C, A.point(-1, -1), A.point(-1, 1), C.point(0, 1), C.point(0, -1))
    assert L.find_connecting_path(*args, tb_floor=-8, max_len=1) is None
    assert L.find_connecting_path(*args, tb_floor=-8, max_len=-1) is None
    # the only route crosses the valley at (-2, 0); a floor of -1 blocks it
    assert L.find_connecting_path(*args, tb_floor=-1, max_len=24) is None


def test_connecting_path_errors(A, C):
    with pytest.raises(ValueError):
        L.find_connecting_path(
            A, A, A.point(0, 2), A.point(0, 2), A.point(0, -2), A.point(0, -2),
            tb_floor=-4, max_len=4,
        )
    with pytest.raises(L.InvariantMismatch) as exc:
        L.find_connecting_path(
            A, C, A.point(0, 2), A.point(0, 2), C.point(1, 0), C.point(0, 1),
            tb_floor=-4, max_len=4,
        )
    assert str(exc.value).startswith("invariant mismatch:")
    with pytest.raises(L.NotAMember):
        L.find_connecting_path(
            A, C, L.SimpleClass("A", 0, 0), A.point(0, 2), C.point(1, 0),
            C.point(1, 0), tb_floor=-4, max_len=4,
        )


def test_connecting_path_agrees_with_fibers(A, B):
    spec = L.SumSpec.of([(A, 1), (B, 1)])
    tb_min = spec.top_tb - 3
    floor = min(spec.factor_floor(tb_min, "A"), spec.factor_floor(tb_min, "B"))
    poset = L.build_quotient(spec, tb_min)
    for node in poset:
        classes = L.enumerate_fiber(spec, node.tb, node.r)
        for cls in classes:
            for a, b in itertools.combinations(cls.members, 2):
                w = L.find_connecting_path(
                    A, B, a.factors[0], b.factors[0], a.factors[1], b.factors[1],
                    tb_floor=floor, max_len=24,
                )
                assert w is not None
                assert L.check_multipath(spec, [w, w.reverse()], a, b)
        for ca, cb in itertools.combinations(classes, 2):
            a, b = ca.representative, cb.representative
            w = L.find_connecting_path(
                A, B, a.factors[0], b.factors[0], a.factors[1], b.factors[1],
                tb_floor=floor, max_len=24,
            )
            assert w is None
