"""Connected sums of Legendrian-simple knots as quotients of factor tuples.

A connected sum of prime summands is described by tuples of factor classes,
one per summand copy, taken modulo two moves:

1. moving one stabilization between two positions: replace a factor by one
   of its parents and stabilize any other factor with the same sign;
2. permuting factors that belong to the same knot type.

Both moves preserve the summed invariants

    tb = sum(tb_i) + (n - 1),        r = sum(r_i)

so the quotient is graded by (tb, r).  A class is fixed by which peaks its
factors hang from and how many positive and negative stabilizations sit
below them; two such peak multisets one valley move apart are joined at a
point where both are present, so the classes at a point are the components
of those joins.  Where a point has several classes, this module walks its
canonical tuples in canonical order, labelling each with the component of
its peak-multiset generator, and stops once every component has its first
tuple: that tuple is the class's representative and names its node.  A
one-class point's representative, and every class's members, are found
only when first read, the members in one pass over the point shared by all
classes there, so only outputs that name or list them pay for them.  The
walk has a second leaf form for outputs that list member ids only: it
carries the text of the tuple so far and makes each id by one string
concatenation, with no :class:`TupleClass`.  A one-class point's member ids
come from that walk, and its key is the first of them.

Windows and tuples are both read a level row at a time.  A window of the
quotient poset is a stack of the sum's level rows, from the top down.  The
box of the generator tops cuts each row into a run of points that may have
several classes and the one-class points on either side of it, which are
made with no joins.  Each class finds its two children in the next row by
r, and at a point of several classes by its generator too, so edges are
led from component to component.  Tuples are assembled from factor rows:
per range and level, the level's r values and one factor per point,
interned with its text on first use.  So the last factor of a tuple is
found by one lookup of its r, and every tuple that holds a factor point
holds the same factor.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import Iterable, Iterator, Sequence

from .errors import InvalidSummand, MultiplicityMismatch, WindowEmpty
from .poset import PosetNode, QuotientPoset
from .ranges import NEG, POS, MountainRange, SimpleClass, _level_points


@dataclass(frozen=True)
class Summand:
    knot_id: str
    count: int


@dataclass(frozen=True)
class SumSpec:
    """A formal connected sum: distinct prime summands with multiplicities.

    Summand order is significant only for canonical presentation; the sum
    itself is commutative.  Construction rejects invalid ranges, non-prime
    declarations, and repeated knot ids.
    """

    summands: tuple[Summand, ...]
    ranges: tuple[MountainRange, ...]

    def __post_init__(self) -> None:
        if not self.summands or len(self.summands) != len(self.ranges):
            raise InvalidSummand("spec needs matching summand and range lists")
        seen: set[str] = set()
        for s, rng in zip(self.summands, self.ranges):
            if s.count < 1:
                raise InvalidSummand(f"summand {s.knot_id} has multiplicity {s.count}")
            if s.knot_id != rng.knot_id:
                raise InvalidSummand(f"summand {s.knot_id} paired with range {rng.knot_id}")
            if s.knot_id in seen:
                raise InvalidSummand(f"summand {s.knot_id} repeated; use a multiplicity instead")
            seen.add(s.knot_id)
            if not rng.prime:
                raise InvalidSummand(f"summand {s.knot_id} is not declared prime")
            report = rng.validate()
            if not report.ok:
                raise InvalidSummand(
                    f"summand {s.knot_id} has an invalid range: "
                    + "; ".join(v.code for v in report.violations)
                )

    @classmethod
    def of(cls, parts: Sequence[tuple[MountainRange, int]]) -> "SumSpec":
        return cls(
            tuple(Summand(rng.knot_id, count) for rng, count in parts),
            tuple(rng for rng, _count in parts),
        )

    @property
    def n(self) -> int:
        """Total number of factors."""
        return sum(s.count for s in self.summands)

    @property
    def top_tb(self) -> int:
        """The largest tb in the quotient: all factors at maximal peaks."""
        return sum(s.count * rng.top_tb for s, rng in zip(self.summands, self.ranges)) + self.n - 1

    @property
    def point_parity(self) -> int:
        """Parity of tb + r shared by every point of the quotient."""
        p = sum(s.count * rng.parity for s, rng in zip(self.summands, self.ranges))
        return (p + self.n - 1) % 2

    def range_of(self, knot_id: str) -> MountainRange:
        for s, rng in zip(self.summands, self.ranges):
            if s.knot_id == knot_id:
                return rng
        raise KeyError(knot_id)

    def label(self) -> str:
        return "#".join(
            s.knot_id if s.count == 1 else f"{s.knot_id}^{s.count}"
            for s in self.summands
        )

    def factor_floor(self, tb_min: int, knot_id: str) -> int:
        """Least tb a factor of the given knot can have in a window tuple.

        Tuples at sum level tb_min have factor tb sum tb_min - (n - 1); one
        factor is smallest when every other factor sits at its top.
        """
        others = sum(
            s.count * rng.top_tb for s, rng in zip(self.summands, self.ranges)
        ) - self.range_of(knot_id).top_tb
        return tb_min - (self.n - 1) - others


@dataclass(frozen=True)
class TupleClass:
    """A canonical factor tuple: grouped by summand, each group ordered.

    The in-group order is descending tb, then ascending r; build these with
    :func:`canonicalize_tuple` rather than directly.
    """

    factors: tuple[SimpleClass, ...]

    def invariants(self) -> tuple[int, int]:
        tb = sum(f.tb for f in self.factors) + len(self.factors) - 1
        r = sum(f.r for f in self.factors)
        return (tb, r)

    def sort_key(self) -> tuple[tuple[int, int], ...]:
        return tuple((-f.tb, f.r) for f in self.factors)

    def id_string(self) -> str:
        return "|".join([f._text for f in self.factors])

    def __str__(self) -> str:
        return self.id_string()


def _factor_key(f: SimpleClass) -> tuple[int, int]:
    return (-f.tb, f.r)


def canonicalize_tuple(spec: SumSpec, factors: Iterable[SimpleClass]) -> TupleClass:
    """Canonical form of a factor multiset for the given spec.

    Validates multiplicities and membership; groups factors by summand in
    spec order and sorts each group by descending tb, ascending r.
    """
    groups: dict[str, list[SimpleClass]] = {s.knot_id: [] for s in spec.summands}
    for f in factors:
        if f.knot_id not in groups:
            raise MultiplicityMismatch(f"factor knot {f.knot_id!r} is not a summand")
        groups[f.knot_id].append(f)
    ordered: list[SimpleClass] = []
    for s, rng in zip(spec.summands, spec.ranges):
        grp = groups[s.knot_id]
        if len(grp) != s.count:
            raise MultiplicityMismatch(
                f"summand {s.knot_id} needs {s.count} factors, got {len(grp)}"
            )
        for f in grp:
            rng.point(f.tb, f.r)  # raises NotAMember on junk input
        ordered.extend(sorted(grp, key=_factor_key))
    return TupleClass(tuple(ordered))


# --- canonical tuple enumeration -----------------------------------------------


def iter_canonical_tuples(spec: SumSpec, factor_tb_sum: int) -> Iterator[TupleClass]:
    """All canonical tuples whose factor tb values sum to the given total, point by point."""
    tb = factor_tb_sum + spec.n - 1
    gens = _Generators(spec)
    for r in gens.level_points(tb):
        yield from gens.tuples(tb, r)


# --- generator quotient --------------------------------------------------------------


Generator = tuple[int, ...]
# A factor row: a range's r values at one level, its factor at each (None
# until interned) and the label region of each interned factor.
_Row = tuple[tuple[int, ...], dict[int, SimpleClass | None], dict[int, int]]


class _Generators:
    """The peak-multiset generators of one spec, joined across valleys.

    A generator ``(P, a, b)`` is ``S+^a S-^b`` applied to one sum of peaks:
    ``P`` picks a multiset of peaks per summand, stored as one flat tuple of
    copy counts with a slot per (summand, peak).  At a point (tb, r) the
    counts (a, b) are the cone coordinates of the point below the summed peak
    point of ``P``, so ``P`` alone names the generator there.  Moving one copy
    of summand peak j to peak j + 1 crosses their valley, which the left peak
    reaches by alpha positive steps and the right one by beta negative
    steps; it joins ``P`` to the moved ``P'`` at every point where both are
    present.  That is the valley test ``a >= alpha``.  Write u = tb + r and
    v = tb - r, and U(P), V(P) for those of the summed peak point of ``P``.
    ``P`` is present at a point of the sum's parity iff u <= U(P) and
    v <= V(P), and then a = (V(P) - v) / 2.  The move adds 2 beta to U and
    takes 2 alpha from V, so where ``P`` is present, ``P'`` is present iff
    a >= alpha.  The classes at a point are the components of these joins,
    computed once per point and cached; a point computed twice by concurrent
    callers gets the same components both times.

    Most points need no joins.  Let U_min and V_min be the least U and V of
    the generator tops: those of the all-leftmost and the all-rightmost
    generator, since a move right adds to U and a move left adds to V.  At a
    point of the sum with u <= U_min, every present generator reaches the
    all-leftmost one by left moves; each left move raises V and lowers U,
    so every step stays present (v <= V, u <= U_min <= U) and the point has
    one class.  With v <= V_min the same holds for right moves and the
    all-rightmost generator.  So a point of the sum has several classes
    only inside the box u > U_min, v > V_min (:meth:`boxed`), and only
    there are components computed.  The lemma says nothing of points
    outside the sum, which have no class.  The canonical tuples of a point
    come from :meth:`tuples`.
    """

    def __init__(self, spec: SumSpec) -> None:
        self._width = sum(rng.peak_count for rng in spec.ranges)
        self._parity = spec.point_parity
        n = spec.n
        # Per summand: its range, copy count, top, and the r reach of one
        # copy: the max of p.r + p.tb and the min of p.r - p.tb over its peaks.
        summands = [
            (rng, s.count, rng.top_tb, max(p_r + p_tb for p_tb, p_r in rng._peak_points),
             min(p_r - p_tb for p_tb, p_r in rng._peak_points))
            for s, rng in zip(spec.summands, spec.ranges)
        ]
        # Per factor position: its range, the index of its first peak in a
        # generator, its top, the bounds :meth:`tuples` enumerates within,
        # and its range's factor rows (see :meth:`_row`), shared by the
        # positions of one summand.
        self._slots: list[tuple[MountainRange, int, int, bool, int, int, int, int, dict[int, _Row]]] = []
        moves: list[int] = []  # the index of the left peak of each valley
        per_summand = []  # per summand: each multiset of its peaks, as copy counts, summed tb and summed r
        offset = 0
        other_top = sum(count * top for _rng, count, top, _hi, _lo in summands)
        r_hi = sum(count * hi for _rng, count, _top, hi, _lo in summands)
        r_lo = sum(count * lo for _rng, count, _top, _hi, lo in summands)
        for rng, count, top, hi, lo in summands:
            other_top -= count * top
            rows: dict[int, _Row] = {}
            for k in range(count):
                r_hi -= hi
                r_lo -= lo
                self._slots.append((rng, offset, top, k > 0, count - 1 - k, other_top, r_hi, r_lo, rows))
            width = rng.peak_count
            moves.extend(range(offset, offset + width - 1))
            points = rng._peak_points
            per_summand.append([
                (tuple(combo.count(j) for j in range(width)), sum(points[j][0] for j in combo), sum(points[j][1] for j in combo))
                for combo in combinations_with_replacement(range(width), count)
            ])
            offset += width
        # Per generator: its top (tb, r), and the generators its valley moves reach.
        self._tops: list[tuple[Generator, int, int, list[Generator]]] = []
        for parts in product(*per_summand):
            counts, tbs, rs = zip(*parts)
            gen = sum(counts, ())
            moved = [gen[:k] + (gen[k] - 1, gen[k + 1] + 1) + gen[k + 2:] for k in moves if gen[k]]
            self._tops.append((gen, sum(tbs) + n - 1, sum(rs), moved))
        self._top_points = tuple((tb, r) for _gen, tb, r, _moved in self._tops)
        self.U_min = min(tb + r for tb, r in self._top_points)
        self.V_min = min(tb - r for tb, r in self._top_points)
        self._components: dict[tuple[int, int], dict[Generator, Generator]] = {}

    def level_points(self, tb: int) -> tuple[int, ...]:
        """The r values of the sum's points at level tb: the cone slices of the generator tops."""
        return _level_points(self._top_points, tb)

    def boxed(self, tb: int, r: int) -> bool:
        """Whether (tb, r) lies in the box u > U_min, v > V_min, outside which a point of the sum has one class."""
        return tb + r > self.U_min and tb - r > self.V_min

    def roots(self, tb: int, r: int) -> tuple[dict[Generator, Generator], set[Generator | None]]:
        """The components at a point of the sum and the set of their roots.

        Outside the box the point has one class, with root ``None``, and no
        components are computed.
        """
        if not self.boxed(tb, r):
            return {}, {None}
        components = self.components(tb, r)
        return components, set(components.values())

    def components(self, tb: int, r: int) -> dict[Generator, Generator]:
        """Every generator at (tb, r), mapped to the root of its component."""
        found = self._components.get((tb, r))
        if found is not None:
            return found
        # (generator, moved generators) of each generator present at (tb, r): at a
        # point of the sum's parity, each whose top's r is within its tb drop of r.
        present = [
            (gen, moved) for gen, top_tb, top_r, moved in self._tops if abs(r - top_r) <= top_tb - tb
        ] if (tb + r) % 2 == self._parity else []
        parent = {gen: gen for gen, _moved in present}

        def find(x: Generator) -> Generator:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for gen, moved in present:
            for other in moved:
                if other in parent:
                    parent[find(gen)] = find(other)
        found = {gen: find(gen) for gen in parent}
        self._components[(tb, r)] = found
        return found

    def label(self, factors: Sequence[SimpleClass]) -> Generator:
        """The generator of a factor tuple grouped in spec order.

        Each factor counts towards the leftmost peak of its summand whose
        cone holds it.  That peak was found when the factor was interned and
        is read from its row, so the tuples labelled must be this builder's
        own, from :meth:`tuples`.
        """
        counts = [0] * self._width
        for f, slot in zip(factors, self._slots):
            counts[slot[1] + slot[8][f.tb][2][f.r]] += 1
        return tuple(counts)

    @staticmethod
    def _row(rng: MountainRange, rows: dict[int, _Row], tb: int) -> _Row:
        """The factor row of ``rng`` at level tb, made on first use.

        A row holds the level's r values ascending, a dict from each of them
        to its factor, ``None`` until :meth:`_intern` makes it, and a dict
        from each interned r to the factor's label region.  Threads that make
        the same row at once keep the first one stored.
        """
        level = _level_points(rng._peak_points, tb)
        return rows.setdefault(tb, (level, dict.fromkeys(level), {}))

    def _intern(self, rng: MountainRange, row: _Row, tb: int, r: int) -> SimpleClass:
        """The factor at (tb, r) of ``rng``, stored in its row with its text and label region.

        The region is the index of the leftmost peak whose cone holds the
        point.  The point shares the parity of every peak of its range, so it
        lies in a peak's cone iff its r is within the peak's tb drop of the
        peak's r.  Every tuple this builder makes holds the row's factor, so
        a factor point is one :class:`SimpleClass`, formatted once, however
        many tuples hold it.  Threads that intern the same point at once may
        each make one; they are equal values, so either serves.
        """
        for region, (p_tb, p_r) in enumerate(rng._peak_points):
            if abs(r - p_r) <= p_tb - tb:
                break
        f = SimpleClass(rng.knot_id, tb, r)
        object.__setattr__(f, "_text", f"{rng.knot_id}({tb},{r})")  # fills the cached property
        row[2][r] = region
        row[1][r] = f
        return f

    def members(self, tb: int, r: int) -> dict[Generator | None, tuple[TupleClass, ...]]:
        """The canonical tuples at a point of the sum grouped by root (see :meth:`roots`), in canonical order.

        One pass over the point; a one-class point labels no tuple.
        """
        components, roots = self.roots(tb, r)
        if len(roots) == 1:
            return {roots.pop(): tuple(self.tuples(tb, r))}
        groups: dict[Generator, list[TupleClass]] = {}
        for t in self.tuples(tb, r):
            groups.setdefault(components[self.label(t.factors)], []).append(t)
        return {root: tuple(g) for root, g in groups.items()}

    def tuples(self, tb: int, r: int) -> Iterator[TupleClass]:
        """The canonical tuples at exactly (tb, r), in :meth:`TupleClass.sort_key` order (see :meth:`walk`)."""
        return self.walk(tb, r, False)

    def walk(self, tb: int, r: int, text: bool) -> Iterator[TupleClass] | Iterator[str]:
        """The canonical tuples at exactly (tb, r) in canonical order, as tuples or, if ``text``, as id strings.

        Factor positions are filled left to right, each over tb descending
        and r ascending, the candidates of a level sliced from its factor row
        (:meth:`_row`) by bisection.  The last position is solved inline, in
        the loop over the position before it: its factor is what remains of
        (tb, r), a member iff that r is a key of its level's row, which holds
        the factor too, so one dict lookup answers both.  So an n-factor sum
        nests n - 1 generators, none of them per last-position candidate; an
        n = 2 sum runs one per point.
        A position's tb is at least what its later positions cannot absorb:
        those of other summands reach at most their summed tops
        (``other_top``), the ``same`` later ones of its own summand at most
        its tb.  Its r leaves a remainder the later positions reach: at their
        factor tb sum t, from ``r_lo + t`` to ``r_hi - t``, where ``r_lo``
        and ``r_hi`` sum ``min(p.r - p.tb)`` and ``max(p.r + p.tb)``.  Within
        a summand the order is kept by taking the next factor's tb at most
        the previous one's, and its r at least the previous one's at equal
        tb.  Factors are taken from this builder's rows, interned on first
        use (:meth:`_intern`), so a factor point is one :class:`SimpleClass`,
        its text formatted once, however many tuples hold it.
        The id form carries the head's text, each factor's followed by
        ``|``, down the walk, so a member's id is one concatenation of the
        head and its last two factors' texts.
        """
        last = len(self._slots) - 1
        if last:
            return self._walk(0, tb - last, r, "" if text else (), None, text)
        # One factor: the point itself, if it lies in its level.
        rng, rows = self._slots[0][0], self._slots[0][8]
        row = rows.get(tb) or self._row(rng, rows, tb)
        f = row[1].get(r, False)
        if f is False:
            return iter([])
        f = f or self._intern(rng, row, tb, r)
        return iter([f._text if text else TupleClass((f,))])

    def _walk(self, i: int, t: int, q: int, head: tuple[SimpleClass, ...] | str, prev: SimpleClass | None, text: bool):
        """The tuples, or ids if ``text``, extending ``head`` by positions i, i + 1, ... at factor tb sum t, r sum q.

        ``head`` is a tuple of factors, or their ids each followed by ``|``,
        and ``prev`` its last factor.
        """
        rng, _offset, top, follows, same, other_top, r_hi, r_lo, rows = self._slots[i]
        row_of, intern = self._row, self._intern
        if not follows:
            prev = None
        cap = prev.tb if prev else top
        inline = i + 2 == len(self._slots)
        if inline:
            last_slot = self._slots[i + 1]
            last_rng, last_follows, last_rows = last_slot[0], last_slot[3], last_slot[8]
        for tb_i in range(cap, -(-(t - other_top) // (same + 1)) - 1, -1):
            rest = t - tb_i
            row = rows.get(tb_i) or row_of(rng, rows, tb_i)
            level, factors = row[0], row[1]
            r_min = q - r_hi + rest
            if prev and tb_i == cap:
                r_min = max(r_min, prev.r)
            candidates = level[bisect_left(level, r_min):bisect_right(level, q - r_lo - rest)]
            if not inline:
                for r_i in candidates:
                    f = factors[r_i] or intern(rng, row, tb_i, r_i)
                    yield from self._walk(i + 1, rest, q - r_i, f"{head}{f._text}|" if text else head + (f,), f, text)
                continue
            # The last position is (rest, q - r_i), kept after this one's
            # factor within a summand; its row answers membership and
            # holds its factor in one lookup.
            if last_follows and rest > tb_i:
                continue
            tie = last_follows and rest == tb_i
            last_row = last_rows.get(rest) or row_of(last_rng, last_rows, rest)
            last_factors = last_row[1]
            for r_i in candidates:
                q_last = q - r_i
                if tie and q_last < r_i:
                    continue
                f_last = last_factors.get(q_last, False)
                if f_last is not False:
                    # Interned before this position's factor is read, which
                    # may be the same point.
                    f_last = f_last or intern(last_rng, last_row, rest, q_last)
                    f = factors[r_i] or intern(rng, row, tb_i, r_i)
                    yield f"{head}{f._text}|{f_last._text}" if text else TupleClass(head + (f, f_last))


def _partition(gens: _Generators, tb: int, r: int) -> list[tuple[Generator | None, PosetNode]]:
    """The classes at one point of the sum, each with its root (see :meth:`_Generators.roots`).

    Tuples whose generators share a component form one class, named by its
    representative, its first tuple in the canonical order
    :meth:`_Generators.tuples` yields.  A one-class point walks no tuple
    until its representative is read.  Elsewhere a canonical prefix is
    labelled until every component has its representative; nodes come in
    representative order.  Members expand on first access, from one pass
    over the point shared by all its classes (:meth:`_Generators.members`);
    there, members must be labelled by generator, so member ids are the
    members' :meth:`TupleClass.id_string`.
    """
    components, roots = gens.roots(tb, r)
    if len(roots) == 1:
        (root,) = roots
        return [(root, _one_class(gens, tb, r, root))]
    reps: dict[Generator, TupleClass] = {}
    for t in gens.tuples(tb, r):
        reps.setdefault(components[gens.label(t.factors)], t)
        if len(reps) == len(roots):
            break
    members: dict[Generator, tuple[TupleClass, ...]] = {}

    def expand(root: Generator) -> tuple[TupleClass, ...]:
        if not members:
            members.update(gens.members(tb, r))
        return members[root]

    return [(root, PosetNode._lazy(tb, r, t, functools.partial(expand, root))) for root, t in reps.items()]


def _one_class(gens: _Generators, tb: int, r: int, root: Generator | None) -> PosetNode:
    """The node of a one-class point, whose representative, members and member ids are found on first read.

    Its ids are the point's, walked as text (:meth:`_Generators.walk`).
    """
    return PosetNode._lazy(
        tb,
        r,
        lambda: next(gens.tuples(tb, r)),
        lambda: gens.members(tb, r)[root],
        lambda: tuple(gens.walk(tb, r, True)),
    )


def enumerate_fiber(spec: SumSpec, tb: int, r: int) -> list[PosetNode]:
    """All equivalence classes with summed invariants exactly (tb, r).

    Only the tuples of this one point are walked, and each class's members
    only when first read.  A point outside the sum has none.
    """
    gens = _Generators(spec)
    if r not in gens.level_points(tb):
        return []
    return [node for _root, node in _partition(gens, tb, r)]


def peaks_of_sum(spec: SumSpec) -> list[TupleClass]:
    """Canonical all-peak tuples; these are exactly the quotient's peaks."""

    def group_choices(rng: MountainRange, count: int) -> list[tuple[SimpleClass, ...]]:
        pts = sorted(rng.peaks, key=lambda p: (-p.tb, p.r))
        choices = []
        for combo in combinations_with_replacement(pts, count):
            choices.append(tuple(SimpleClass(rng.knot_id, p.tb, p.r) for p in combo))
        return choices

    out: list[TupleClass] = [TupleClass(())]
    for s, rng in zip(spec.summands, spec.ranges):
        out = [
            TupleClass(t.factors + grp)
            for t in out
            for grp in group_choices(rng, s.count)
        ]
    out.sort(key=TupleClass.sort_key)
    return out


# --- quotient windows ----------------------------------------------------------------


def build_quotient(spec: SumSpec, tb_min: int, workers: int = 0) -> QuotientPoset:
    """The window of the quotient poset from its top level down to tb_min.

    The window is built a level row at a time, from the top down.  A row is
    the sum's points at one level (:meth:`_Generators.level_points`), and
    two bisections split it at the box of :meth:`_Generators.boxed`: its
    points with r <= U_min - tb or r >= tb - V_min have one class with root
    ``None``, made with no joins and no tuples; only the points between are
    partitioned into the components of their generator joins (see
    :func:`_partition`), and walk tuples at build time only to name and
    order several classes by key.  Edges are the signed stabilization steps
    between classes, led from component to component: the class with root
    g at (tb, r) has its +- child at the root of g at (tb - 1, r +- 1),
    because g's cone holds that point, and two generators both present at
    (tb, r) are both present below it, so every join open at (tb, r) stays
    open there.  So a child is found in the next row by its r alone, and at
    a point of several classes by the generator g too; a parent outside
    the box has its children outside it, since u and v only fall going
    down.
    ``workers`` > 1 runs the partitioning of the boxed points on a thread
    pool; results are identical to the serial order.
    """
    top = spec.top_tb
    if tb_min > top:
        raise WindowEmpty(f"window floor {tb_min} lies above the top level {top}")
    gens = _Generators(spec)
    rows = []  # per level: tb, its r values, and the bounds of its boxed run
    for tb in range(top, tb_min - 1, -1):
        row = gens.level_points(tb)
        lo = bisect_right(row, gens.U_min - tb)
        rows.append((tb, row, lo, max(lo, bisect_left(row, tb - gens.V_min))))
    boxed = [(tb, r) for tb, row, lo, hi in rows for r in row[lo:hi]]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = iter(list(pool.map(lambda pt: _partition(gens, *pt), boxed)))
    else:
        parts = (_partition(gens, *pt) for pt in boxed)

    nodes: list[PosetNode] = []
    steps: dict[str, list[list[int]]] = {POS: [], NEG: []}  # child positions per sign and node
    pos_kids, neg_kids = steps[POS], steps[NEG]
    above: list[tuple[int, Generator | None]] = []  # (r, root) of each node of the row above
    for tb, row, lo, hi in rows:
        at: dict[int, int] = {}  # position of each point's first class, by r
        split: dict[int, dict[Generator, int]] = {}  # at a point of several classes: position by generator
        here: list[tuple[int, Generator | None]] = []
        for k, r in enumerate(row):
            at[r] = len(nodes)
            if not lo <= k < hi:
                here.append((r, None))
                nodes.append(_one_class(gens, tb, r, None))
                continue
            classes = next(parts)
            if len(classes) > 1:
                classes.sort(key=lambda c: c[1].key)
                position = {root: len(nodes) + j for j, (root, _node) in enumerate(classes)}
                split[r] = {gen: position[root] for gen, root in gens.components(tb, r).items()}
            for root, node in classes:
                here.append((r, root))
                nodes.append(node)
        for r, root in above:
            for kids, c in ((pos_kids, r + 1), (neg_kids, r - 1)):
                by_gen = split.get(c) if root is not None else None
                kids.append([by_gen[root] if by_gen else at[c]])
        above = here
    for _ in above:
        pos_kids.append([])
        neg_kids.append([])
    return QuotientPoset(nodes, steps, tb_min, top, top_is_global=True)
