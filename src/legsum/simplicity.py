"""Deciding Legendrian simplicity of connected sums.

Two independent routes are provided and deliberately kept apart:

* :func:`criterion` evaluates the closed-form classification on the shape
  of the summands alone (how many peaks each has, with what multiplicity);
  its verdict is global.
* :func:`simplicity_in_window` decides whether any (tb, r) point in a
  truncated window carries two distinct classes; it reads the generator
  components at boxed points and walks tuples only at points of several
  classes.  Its verdict is about the window only.

For sums that are not simple, :func:`nonsimplicity_witness` builds the
explicit colliding pair: two tuples assembled from valley parents that share
their invariants but are not related by any sequence of transfer moves.

For powers of a single two-peak knot every class has a normal form
``(a, b, p, q)``: a positive and b negative stabilizations applied to the
sum of p copies of the left peak and q copies of the right one.  The pair
of diagonal coordinates (X, Y) determines the class, and
:func:`canonical_form` picks the minimal-q representation.
"""

from __future__ import annotations

import math

from ._values import Value, init
from .errors import LegsumError, NotApplicable, WrongPeakCount
from .poset import nonsimple_points
from .ranges import NEG, POS, MountainRange, SimpleClass
from .sums import SumSpec, TupleClass, _box_floor, _box_scan, build_quotient, canonicalize_tuple

CASE_ONE_PEAK = "all-one-peak"
CASE_TWO_PEAK = "one-two-peak-with-multiplicity>=2"
CASE_BIG_PEAK = "one-big-peak-multiplicity-1"
CASE_NONE = "none"


class CriterionVerdict(Value):
    """Global verdict of the shape criterion.

    ``peak_counts`` lists (knot_id, multiplicity, peak count) per summand.
    """

    __slots__ = __match_args__ = ("simple", "matched_case", "peak_counts")

    def __init__(self, simple: bool, matched_case: str, peak_counts: tuple[tuple[str, int, int], ...]) -> None:
        init(self, simple, matched_case, peak_counts)


def criterion(spec: SumSpec) -> CriterionVerdict:
    """Classify a sum by its summand peak counts.

    The sum is simple exactly when at most one summand has several peaks,
    and that summand either has exactly two peaks, or occurs only once.
    """
    counts = tuple(
        (s.knot_id, s.count, rng.peak_count)
        for s, rng in zip(spec.summands, spec.ranges)
    )
    multi = [(count, peaks) for _id, count, peaks in counts if peaks >= 2]
    if not multi:
        return CriterionVerdict(True, CASE_ONE_PEAK, counts)
    if len(multi) == 1:
        count, peaks = multi[0]
        if count == 1:
            return CriterionVerdict(True, CASE_BIG_PEAK, counts)
        if peaks == 2:
            return CriterionVerdict(True, CASE_TWO_PEAK, counts)
    return CriterionVerdict(False, CASE_NONE, counts)


class WitnessPair(Value):
    """Two tuples with equal invariants lying in distinct classes."""

    __slots__ = __match_args__ = ("point", "tuple_a", "tuple_b")

    def __init__(self, point: tuple[int, int], tuple_a: TupleClass, tuple_b: TupleClass) -> None:
        init(self, point, tuple_a, tuple_b)


class WindowVerdict(Value):
    """Result of the window check: generator components at boxed points, tuples walked only where a point has several classes."""

    __slots__ = __match_args__ = ("simple_in_window", "tb_min", "top_tb", "witness")

    def __init__(self, simple_in_window: bool, tb_min: int, top_tb: int, witness: WitnessPair | None) -> None:
        init(self, simple_in_window, tb_min, top_tb, witness)


def simplicity_in_window(spec: SumSpec, tb_min: int, workers: int = 0) -> WindowVerdict:
    """Check fiber sizes across the window, built only as deep as the verdict needs.

    Every point at or below the box floor F0 = (U_min + V_min) // 2 has one
    class (see :class:`legsum.sums._Generators`), so the window goes at most
    down to ``max(tb_min, F0)``; the verdict still names the caller's
    ``tb_min``.  When :func:`criterion` says nonsimple, the window stops at
    the row of the first nonsimple point that the box scan
    (:func:`legsum.sums._box_scan`) finds.  The verdict is still read from
    the built window, so it never rests on the criterion: its witness sits
    at the window's first point of several classes, which is maximal, and
    names the first two class representatives there.
    """
    floor = max(tb_min, _box_floor(spec))
    if not criterion(spec).simple:
        found = next(_box_scan(spec, floor), None)
        if found:
            floor = found[0][0]
    poset = build_quotient(spec, floor, workers=workers)
    crowded = nonsimple_points(poset)
    if not crowded:
        return WindowVerdict(True, tb_min, poset.top_tb, None)
    pt = crowded[0][0]
    first, second = poset.fiber(*pt)[:2]
    witness = WitnessPair(pt, first.representative, second.representative)
    return WindowVerdict(False, tb_min, poset.top_tb, witness)


def _valley_parents(rng: MountainRange, which: int) -> tuple[SimpleClass, SimpleClass]:
    """(left, right) parents of the given valley of a range."""
    v = rng.valleys()[which]
    left = rng.destabilize(SimpleClass(rng.knot_id, v.tb, v.r), POS)
    right = rng.destabilize(SimpleClass(rng.knot_id, v.tb, v.r), NEG)
    assert left is not None and right is not None
    return left, right


def nonsimplicity_witness(spec: SumSpec) -> WitnessPair:
    """The explicit colliding pair behind a negative criterion verdict.

    Two valleys are split, each given as (range, valley index): the first
    valley of each of the first two multi-peak summands, or, with a single
    multi-peak summand (several peaks, several copies), its first two
    valleys.  Tuple A takes the left parent of the first and the right
    parent of the second, tuple B the other diagonal.  Every other copy of
    every summand sits at its knot's maximal peak.
    """
    if criterion(spec).simple:
        raise NotApplicable("the sum is simple; no witness exists")
    multi = [rng for rng in spec.ranges if rng.peak_count >= 2]
    split = [(multi[0], 0), (multi[1], 0)] if len(multi) >= 2 else [(multi[0], 0), (multi[0], 1)]
    (l1, r1), (l2, r2) = (_valley_parents(rng, which) for rng, which in split)
    rest: list[SimpleClass] = []
    for s, rng in zip(spec.summands, spec.ranges):
        p = rng.max_peak()
        rest += [SimpleClass(rng.knot_id, p.tb, p.r)] * (s.count - sum(rng is used for used, _ in split))
    tuple_a = canonicalize_tuple(spec, [l1, r2, *rest])
    tuple_b = canonicalize_tuple(spec, [r1, l2, *rest])
    return WitnessPair(tuple_a.invariants(), tuple_a, tuple_b)


# --- two-peak powers: normal forms and diagonal coordinates ---------------------


class CanonicalForm(Value):
    """S+^a S-^b applied to p copies of the left peak and q of the right."""

    __slots__ = __match_args__ = ("a", "b", "p", "q")

    def __init__(self, a: int, b: int, p: int, q: int) -> None:
        init(self, a, b, p, q)


class XYInvariants(Value):
    __slots__ = __match_args__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        init(self, x, y)


def _two_peak_data(rng: MountainRange):
    rng.require_valid()
    if rng.peak_count != 2:
        raise WrongPeakCount(
            f"{rng.knot_id} has {rng.peak_count} peaks; this needs exactly 2"
        )
    p1, p2 = rng.peaks
    v = rng.valleys()[0]
    return p1, p2, v


def xy_invariants(rng: MountainRange, n: int, tb: int, r: int) -> XYInvariants:
    """Diagonal coordinates of a point of the n-fold self-sum.

    X counts right-slope steps and Y left-slope steps relative to the sum of
    n valleys; they are invariant across all (a, b, p, q) representations:
    X = q*(r(P2) - r(V)) - b and Y = p*(r(P1) - r(V)) + a.
    """
    _p1, _p2, v = _two_peak_data(rng)
    if n < 1:
        raise LegsumError(f"n must be at least 1, got {n}")
    sx = (tb + r) - n * (v.tb + v.r) - (n - 1)
    sy = (tb - r) - n * (v.tb - v.r) - (n - 1)
    if sx % 2 or sy % 2:
        raise LegsumError(
            f"({tb},{r}) has the wrong parity for the {n}-fold sum of {rng.knot_id}"
        )
    return XYInvariants(sx // 2, -(sy // 2))


def canonical_form(rng: MountainRange, n: int, tb: int, r: int) -> CanonicalForm | None:
    """Minimal-q normal form of a point of the n-fold self-sum, if it is one.

    Returns None when (tb, r) is not a member point (including parity
    obstructions).
    """
    p1, p2, v = _two_peak_data(rng)
    if n < 1:
        raise LegsumError(f"n must be at least 1, got {n}")
    try:
        inv = xy_invariants(rng, n, tb, r)
    except LegsumError:
        return None
    r1 = p1.r - v.r  # negative: left peak sits left of the valley
    r2 = p2.r - v.r  # positive
    q = max(0, -(-inv.x // r2))
    if q > n:
        return None
    p = n - q
    b = q * r2 - inv.x
    a = inv.y - p * r1
    if a < 0 or b < 0:
        return None
    return CanonicalForm(a, b, p, q)


def form_point(rng: MountainRange, n: int, form: CanonicalForm) -> tuple[int, int]:
    """The (tb, r) invariants of a normal form of the n-fold self-sum."""
    p1, p2, _v = _two_peak_data(rng)
    if form.p + form.q != n or min(form.a, form.b, form.p, form.q) < 0:
        raise LegsumError(f"{form} is not a normal form for n={n}")
    tb = form.p * p1.tb + form.q * p2.tb + (n - 1) - form.a - form.b
    r = form.p * p1.r + form.q * p2.r + form.a - form.b
    return (tb, r)


def form_tuple(rng: MountainRange, n: int, form: CanonicalForm) -> TupleClass:
    """A concrete factor tuple realizing a normal form.

    All stabilizations are applied to the first factor; any other placement
    is a transfer move away, hence in the same class.
    """
    p1, p2, _v = _two_peak_data(rng)
    peaks = [p1] * form.p + [p2] * form.q
    factors = [SimpleClass(rng.knot_id, p.tb, p.r) for p in peaks]
    first = factors[0]
    factors[0] = SimpleClass(
        rng.knot_id,
        first.tb - form.a - form.b,
        first.r + form.a - form.b,
    )
    spec = SumSpec.of([(rng, n)])
    return canonicalize_tuple(spec, factors)


def peak_count_formula(spec: SumSpec) -> int:
    """Number of quotient peaks: a product of multiset coefficients."""
    out = 1
    for s, rng in zip(spec.summands, spec.ranges):
        out *= math.comb(rng.peak_count + s.count - 1, s.count)
    return out
