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
of those joins.  Only points inside a bounded box of the generator tops
can have several classes (see :class:`_Generators`); each such point is
listed once, when it is built, in one pass over its canonical tuples in
canonical order, each labelled with the component of its peak-multiset
generator.  A class's first tuple is its representative and names its
node.  A one-class point's node holds the builder and walks the point
only when its class is first read, so only outputs that name or list it
pay for it.  The walk lists a point in one of two forms from the same
loops: as tuples, or, for outputs that list member ids only, as ids.  The
id form makes no factor object at all, neither :class:`TupleClass` nor
:class:`SimpleClass`: it carries the text of the tuple so far, reads each
factor point's text from its factor row where the tuple form reads its
factor, and makes each id by one string concatenation.  A one-class
point's key is the first of its member ids.  A window lists those ids a
level row at a time: the first read of a one-class point's ids lists its
whole row in id form, in one recursion with no r bound, and each point
takes its own list out (:meth:`_Generators.ids`).  A point alone is still
walked: a fiber, a representative or key read before the ids, and the
labelled listing of a point of several classes stop early or read one
point, where a row listing would make every member of the row.

Windows and tuples are both read a level row at a time.  A window of the
quotient poset is a stack of the sum's level rows, from the top down.  The
box of the generator tops cuts each row into a run of points that may have
several classes and the one-class points on either side of it, which are
made with no joins.  Each class finds its two children in the next row by
r, and at a point of several classes by its generator too, so edges are
led from component to component.  Tuples and ids are assembled from factor
rows: per range and level, the level's r values and each point's text,
formatted on first use, and for the tuple form one factor per point,
interned with that text on first use.  So the last factor of a tuple, or
its text, is found by one lookup of its r, every tuple that holds a factor
point holds the same factor, and a point is formatted once per builder.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Iterator, Sequence

from ._values import Value, init, setters
from .errors import InvalidSummand, LegsumError, MultiplicityMismatch, WindowEmpty
from .poset import DichotomyVerdict, NonsimpleReport, PosetNode, QuotientPoset
from .ranges import NEG, POS, MountainRange, SimpleClass, _level_points


class Summand(Value):
    __slots__ = __match_args__ = ("knot_id", "count")

    def __init__(self, knot_id: str, count: int) -> None:
        init(self, knot_id, count)


class SumSpec(Value):
    """A formal connected sum: distinct prime summands with multiplicities.

    Summand order is significant only for canonical presentation; the sum
    itself is commutative.  Construction rejects invalid ranges, non-prime
    declarations, and repeated knot ids.
    """

    __slots__ = __match_args__ = ("summands", "ranges")

    def __init__(self, summands: tuple[Summand, ...], ranges: tuple[MountainRange, ...]) -> None:
        if not summands or len(summands) != len(ranges):
            raise InvalidSummand("spec needs matching summand and range lists")
        seen: set[str] = set()
        for s, rng in zip(summands, ranges):
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
        init(self, summands, ranges)

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


class TupleClass(Value):
    """A canonical factor tuple: grouped by summand, each group ordered.

    The in-group order is descending tb, then ascending r; build these with
    :func:`canonicalize_tuple` rather than directly.
    """

    __slots__ = __match_args__ = ("factors",)

    def __init__(self, factors: tuple[SimpleClass, ...]) -> None:
        _set_factors(self, factors)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.factors == other.factors
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.factors,))

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


(_set_factors,) = setters(TupleClass)


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
        yield from gens.walk(tb, r, False)


# --- generator quotient --------------------------------------------------------------


Generator = tuple[int, ...]
# A factor row: a range's r values at one level, the text of each of its
# points (None until first formatted; its keys are the level's points), and
# the factor and the label region of each point interned as a
# :class:`SimpleClass`.  The walk's id form reads cell 1, its tuple form
# cell 2.
_Row = tuple[list[int], dict[int, str | None], dict[int, SimpleClass], dict[int, int]]


def _box_corner(spec: SumSpec) -> tuple[int, int]:
    """(U_min, V_min): u = tb + r of the all-leftmost generator top and v = tb - r of the all-rightmost.

    These are the least u and v over all generator tops (see
    :class:`_Generators`), read off each summand's outermost peaks.
    """
    n = spec.n
    u = sum(s.count * (rng.peaks[0].tb + rng.peaks[0].r) for s, rng in zip(spec.summands, spec.ranges))
    v = sum(s.count * (rng.peaks[-1].tb - rng.peaks[-1].r) for s, rng in zip(spec.summands, spec.ranges))
    return u + n - 1, v + n - 1


def _box_floor(spec: SumSpec) -> int:
    """F0 = (U_min + V_min) // 2: every point of the sum at or below this level has one class."""
    return sum(_box_corner(spec)) // 2


def _copy_counts(width: int, count: int) -> Iterator[tuple[int, ...]]:
    """The multisets of ``count`` copies of ``width`` peaks as copy counts, in ``combinations_with_replacement`` order.

    That order lists the count vectors descending: most copies of the
    first peak first, then of the second, and so on.
    """
    if width == 1:
        yield (count,)
        return
    for first in range(count, -1, -1):
        for rest in _copy_counts(width - 1, count - first):
            yield (first, *rest)


def _peak_multisets(rng: MountainRange, count: int) -> list[tuple[tuple[int, ...], int, int]]:
    """Each multiset of ``count`` of the range's peaks: its copy counts, summed tb and summed r.

    The sums take one term per peak, copies times the peak's tb or r.
    """
    points = rng._peak_points
    return [
        (counts, sum(c * p_tb for c, (p_tb, _p_r) in zip(counts, points)), sum(c * p_r for c, (_p_tb, p_r) in zip(counts, points)))
        for counts in _copy_counts(len(points), count)
    ]


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
    a >= alpha.  The classes at a point are the components of these joins.

    Most points need no joins.  Let U_min and V_min be the least U and V of
    the generator tops: those of the all-leftmost and the all-rightmost
    generator (:func:`_box_corner`), since a move right adds to U and a
    move left adds to V.  At a point of the sum with u <= U_min, every
    present generator reaches the all-leftmost one by left moves; each left
    move raises V and lowers U, so every step stays present (v <= V,
    u <= U_min <= U) and the point has one class.  With v <= V_min the same holds for right moves and the
    all-rightmost generator.  So a point of the sum has several classes
    only inside the box u > U_min, v > V_min (:meth:`box_cut`), and only
    there are components computed.  The box is bounded: u + v = 2 tb, so
    its points all have tb > (U_min + V_min) / 2.  The lemma says nothing
    of points outside the sum, which have no class.  The canonical tuples
    of a point come from :meth:`walk`; the member ids of a window's
    one-class points come from one listing per level row
    (:meth:`_list_row`), through :meth:`ids`.

    The components alone make the class graph of the box.  Each component
    root at a point is a class, and a class's +- child is the root of the
    same generator at (tb - 1, r +- 1): the generator's cone holds that
    point, and every join open above stays open below.  A boxed point's
    ancestors are boxed, since u and v never fall going up.  So every
    nonsimple point, every class above one, and the points (tb + 1, r +- 1)
    and (tb + 2, r) that the dichotomy of a maximal one reads all lie in
    the box, and :func:`_box_scan` reads that analysis off the boxed
    points' components, with no window and no tuple.
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
        # generator, its top, the bounds :meth:`walk` enumerates within,
        # and its range's factor rows (see :meth:`_row`), shared by the
        # positions of one summand.
        self._slots: list[tuple[MountainRange, int, int, bool, int, int, int, int, dict[int, _Row]]] = []
        moves: list[int] = []  # the index of the left peak of each valley
        per_summand = []  # per summand: each multiset of its peaks (:func:`_peak_multisets`)
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
            moves.extend(range(offset, offset + rng.peak_count - 1))
            per_summand.append(_peak_multisets(rng, count))
            offset += rng.peak_count
        # Per generator: its top (tb, r), and the generators its valley moves reach.
        self._tops: list[tuple[Generator, int, int, list[Generator]]] = []
        for parts in product(*per_summand):
            counts, tbs, rs = zip(*parts)
            gen = sum(counts, ())
            moved = [gen[:k] + (gen[k] - 1, gen[k + 1] + 1) + gen[k + 2:] for k in moves if gen[k]]
            self._tops.append((gen, sum(tbs) + n - 1, sum(rs), moved))
        self._top_points = tuple((tb, r) for _gen, tb, r, _moved in self._tops)
        self.U_min, self.V_min = _box_corner(spec)
        # A window's builder lists one-class points' ids by rows (:meth:`ids`):
        # its row listings not yet read out, by tb, and the r values of each
        # row's points of several classes, whose ids the listings leave out.
        self._listed: dict[int, dict[int, list[str]]] | None = None
        self._crowded: dict[int, set[int]] = {}

    def level_points(self, tb: int) -> list[int]:
        """The r values of the sum's points at level tb: the cone slices of the generator tops."""
        return _level_points(self._top_points, tb)

    def box_cut(self, tb: int, row: list[int]) -> slice:
        """The slice of ``row``, the sum's level row at tb as made by the caller, that is its boxed run.

        Two bisections cut the row at the box u > U_min, v > V_min: its
        points with r <= U_min - tb or r >= tb - V_min lie outside it.
        """
        lo = bisect_right(row, self.U_min - tb)
        return slice(lo, max(lo, bisect_left(row, tb - self.V_min)))

    def components(self, tb: int, r: int) -> dict[Generator, Generator]:
        """Every generator at (tb, r), mapped to the root of its component; empty iff the point is not in the sum."""
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
        return {gen: find(gen) for gen in parent}

    def label(self, factors: Sequence[SimpleClass]) -> Generator:
        """The generator of a factor tuple grouped in spec order.

        Each factor counts towards the leftmost peak of its summand whose
        cone holds it.  That peak was found when the factor was interned and
        is read from its row, so the tuples labelled must be this builder's
        own, from :meth:`walk`.
        """
        counts = [0] * self._width
        for f, slot in zip(factors, self._slots):
            counts[slot[1] + slot[8][f.tb][3][f.r]] += 1
        return tuple(counts)

    @staticmethod
    def _row(rng: MountainRange, rows: dict[int, _Row], tb: int) -> _Row:
        """The factor row of ``rng`` at level tb, made on first use.

        A row holds the level's r values ascending; a dict from each of them
        to its text, ``None`` until :meth:`_format` writes it, whose keys
        answer membership in both forms of :meth:`walk`; and two dicts that
        :meth:`_intern` fills, from each interned r to its factor and to the
        factor's label region.  Threads that make the same row at once keep
        the first one stored.
        """
        level = _level_points(rng._peak_points, tb)
        return rows.setdefault(tb, (level, dict.fromkeys(level), {}, {}))

    @staticmethod
    def _format(rng: MountainRange, row: _Row, tb: int, r: int) -> str:
        """The text ``K(tb,r)`` of the point (tb, r) of ``rng``, stored in its row.

        Each point is formatted on its first use, once per builder; no
        factor object is made.  This is the id form's maker in :meth:`walk`.
        """
        text = row[1][r] = f"{rng.knot_id}({tb},{r})"
        return text

    def _intern(self, rng: MountainRange, row: _Row, tb: int, r: int) -> SimpleClass:
        """The factor at (tb, r) of ``rng``, stored in its row with its label region.

        The region is the index of the leftmost peak whose cone holds the
        point.  The point shares the parity of every peak of its range, so it
        lies in a peak's cone iff its r is within the peak's tb drop of the
        peak's r.  The factor's text is the row's text of the point.  Every
        tuple this builder makes holds the row's factor, so a factor point is
        one :class:`SimpleClass`, formatted once, however many tuples hold
        it.  This is the tuple form's maker in :meth:`walk`, as
        :meth:`_format` is the id form's; ids read the row's texts alone.
        Threads that intern the same point at once may each make one; they
        are equal values, so either serves.
        """
        for region, (p_tb, p_r) in enumerate(rng._peak_points):
            if abs(r - p_r) <= p_tb - tb:
                break
        f = SimpleClass(rng.knot_id, tb, r)
        object.__setattr__(f, "_text", row[1][r] or self._format(rng, row, tb, r))  # fills the cached property
        row[3][r] = region
        row[2][r] = f
        return f

    def walk(self, tb: int, r: int, text: bool) -> Iterator[TupleClass] | Iterator[str]:
        """The canonical tuples at exactly (tb, r) in :meth:`TupleClass.sort_key` order, as tuples or, if ``text``, as id strings.

        Factor positions are filled left to right, each over tb descending
        and r ascending, the candidates of a level sliced from its factor row
        (:meth:`_row`) by bisection.  The last position is solved inline, in
        the loop over the position before it: its point is what remains of
        (tb, r), a member iff that r is a key of its level's row texts.  So
        an n-factor sum nests n - 1 generators, none of them per
        last-position candidate; an n = 2 sum runs one per point.
        A position's tb is at least what its later positions cannot absorb:
        those of other summands reach at most their summed tops
        (``other_top``), the ``same`` later ones of its own summand at most
        its tb.  Its r leaves a remainder the later positions reach: at their
        factor tb sum t, from ``r_lo + t`` to ``r_hi - t``, where ``r_lo``
        and ``r_hi`` sum ``min(p.r - p.tb)`` and ``max(p.r + p.tb)``.  Within
        a summand the order is kept by taking the next factor's tb at most
        the previous one's, and its r at least the previous one's at equal
        tb.
        Both forms run the same loops and read each point's cell from its
        row: its text for ids, formatted on first use (:meth:`_format`),
        its factor for tuples, interned on first use (:meth:`_intern`).  The
        id form makes no factor object: it carries the head's text, each
        point's followed by ``|``, so a member's id is one concatenation of
        the head and its last two points' texts.  The tuple form carries the
        head's factors, so a factor point is one :class:`SimpleClass`
        however many tuples hold it.
        A walk reads one point and can stop at its first tuple, so fibers,
        representatives and the labelled listing of a point of several
        classes use it; the ids of a window's one-class points come from
        their row's listing instead (:meth:`ids`), which makes all of a
        row's ids with no per-point recursion and no r bound.
        """
        last = len(self._slots) - 1
        if last:
            return self._walk(0, tb - last, r, "" if text else (), 0, 0, text)
        # One factor: the point itself, if it lies in its level.
        rng, rows = self._slots[0][0], self._slots[0][8]
        row = rows.get(tb) or self._row(rng, rows, tb)
        if r not in row[1]:
            return iter([])
        cell_at, make = (1, self._format) if text else (2, self._intern)
        cell = row[cell_at].get(r) or make(rng, row, tb, r)
        return iter([cell if text else TupleClass((cell,))])

    def _walk(self, i: int, t: int, q: int, head: tuple[SimpleClass, ...] | str, prev_tb: int, prev_r: int, text: bool):
        """The tuples, or ids if ``text``, extending ``head`` by positions i, i + 1, ... at factor tb sum t, r sum q.

        ``head`` is a tuple of factors, or their texts each followed by
        ``|``; ``prev_tb`` and ``prev_r`` are the point of its last factor,
        read only when position i follows one of its own summand.  The form
        picks the row cells read and the maker that fills them; the head's
        growth and the member made are the only other places it decides.
        """
        rng, _offset, top, follows, same, other_top, r_hi, r_lo, rows = self._slots[i]
        row_of = self._row
        cell_at, make = (1, self._format) if text else (2, self._intern)
        cap = prev_tb if follows else top
        inline = i + 2 == len(self._slots)
        if inline:
            last_slot = self._slots[i + 1]
            last_rng, last_follows, last_rows = last_slot[0], last_slot[3], last_slot[8]
        for tb_i in range(cap, -(-(t - other_top) // (same + 1)) - 1, -1):
            rest = t - tb_i
            row = rows.get(tb_i) or row_of(rng, rows, tb_i)
            level, cells = row[0], row[cell_at]
            r_min = q - r_hi + rest
            if follows and tb_i == cap:
                r_min = max(r_min, prev_r)
            candidates = level[bisect_left(level, r_min):bisect_right(level, q - r_lo - rest)]
            if not inline:
                for r_i in candidates:
                    c = cells.get(r_i) or make(rng, row, tb_i, r_i)
                    yield from self._walk(i + 1, rest, q - r_i, f"{head}{c}|" if text else head + (c,), tb_i, r_i, text)
                continue
            # The last position is (rest, q - r_i); its row's texts answer
            # membership.  Within a summand the loop bound keeps rest <= tb_i.
            tie = last_follows and rest == tb_i
            last_row = last_rows.get(rest) or row_of(last_rng, last_rows, rest)
            last_texts, last_cells = last_row[1], last_row[cell_at]
            for r_i in candidates:
                q_last = q - r_i
                if tie and q_last < r_i:
                    continue
                if q_last in last_texts:
                    # When both are one point, the second lookup finds
                    # the cell the first made.
                    c_last = last_cells.get(q_last) or make(last_rng, last_row, rest, q_last)
                    c = cells.get(r_i) or make(rng, row, tb_i, r_i)
                    yield f"{head}{c}|{c_last}" if text else TupleClass(head + (c, c_last))

    def ids(self, tb: int, r: int) -> tuple[str, ...]:
        """The member ids at (tb, r), a point of one class, in :meth:`walk` order.

        A window's builder (see :func:`_window`) takes them from the listing
        of their level row (:meth:`_list_row`), made on the row's first
        read.  Each read takes its point's list out, and a row read out is
        replaced by :data:`_READ`, so the builder holds no listing of a row
        whose one-class points have all been read.  Any other builder, and a
        point whose list a concurrent first read took, walks the point as
        text; the two give equal ids.
        """
        listed = self._listed
        if listed is not None:
            lists = listed.get(tb)
            if lists is None:
                lists = listed.setdefault(tb, self._list_row(tb))
            found = lists.pop(r, None)
            if not lists:
                listed[tb] = _READ
            if found is not None:
                return tuple(found)
        return tuple(self.walk(tb, r, True))

    def _list_row(self, tb: int) -> dict[int, list[str]]:
        """Every member id of the sum's level row at tb, by point r, less those of the window's points of several classes.

        One recursion over the factor positions at factor tb sum
        t = tb - (n - 1) makes every canonical tuple at t once, and each is a
        member of some point of the row, so no position takes an r bound.
        Each keeps the tb bounds of :meth:`_walk`: at most ``cap``, at least
        what its later positions cannot absorb.  The last position runs over
        its whole factor row, from the previous factor's r when both are of
        one summand at one tb, and appends the head's text and its own to
        the list of the summed r; the floor keeps it at or under its cap.
        Positions run tb descending and r ascending, so each point's list
        comes out in :meth:`TupleClass.sort_key` order, that of
        :meth:`walk`.  Each factor row's texts are read once per listing,
        and its points not yet formatted are formatted then (:meth:`_format`).
        """
        slots = self._slots
        lists: defaultdict[int, list[str]] = defaultdict(list)
        made: dict[tuple[int, int], list[tuple[int, str]]] = {}

        def texts(slot, tb_i: int) -> list[tuple[int, str]]:
            """Each (r, text) of the slot's factor row at tb_i, r ascending."""
            pairs = made.get((slot[1], tb_i))
            if pairs is None:
                rng, rows = slot[0], slot[8]
                row = rows.get(tb_i) or self._row(rng, rows, tb_i)
                cells = row[1]
                if None in cells.values():
                    for r in row[0]:
                        cells[r] or self._format(rng, row, tb_i, r)
                pairs = made[slot[1], tb_i] = list(cells.items())
            return pairs

        def fill(i: int, t: int, q: int, head: str, prev_tb: int, prev_r: int) -> None:
            slot = slots[i]
            _rng, _offset, top, follows, same, other_top = slot[:6]
            cap = prev_tb if follows else top
            inline = i + 2 == len(slots)
            for tb_i in range(cap, -(-(t - other_top) // (same + 1)) - 1, -1):
                pairs = texts(slot, tb_i)
                if follows and tb_i == cap:
                    pairs = pairs[bisect_left(pairs, (prev_r,)):]
                rest = t - tb_i
                if not inline:
                    for r_i, text in pairs:
                        fill(i + 1, rest, q + r_i, f"{head}{text}|", tb_i, r_i)
                    continue
                tail = texts(slots[i + 1], rest)
                tie = slots[i + 1][3] and rest == tb_i
                for r_i, text in pairs:
                    prefix, base = f"{head}{text}|", q + r_i
                    for r_last, text_last in tail[bisect_left(tail, (r_i,)):] if tie else tail:
                        lists[base + r_last].append(prefix + text_last)

        if len(slots) > 1:
            fill(0, tb - len(slots) + 1, 0, "", 0, 0)
        else:
            for r, text in texts(slots[0], tb):
                lists[r].append(text)
        for r in self._crowded.get(tb, ()):
            lists.pop(r, None)
        return lists


# A row listing once read out: empty, and never written.
_READ: dict[int, list[str]] = {}


def _partition(gens: _Generators, tb: int, r: int) -> tuple[dict[Generator, Generator], list[tuple[Generator, PosetNode]]]:
    """The components at one point (:meth:`_Generators.components`) and its classes, each with its root.

    A point outside the sum has no components and no class, and a point
    outside the box (:meth:`_Generators.box_cut`) has one root and one
    class.  Tuples whose generators share a component form one
    class, named by its representative, its first tuple in the canonical
    order :meth:`_Generators.walk` yields.  A one-class point's node holds
    the builder and walks no tuple until it is read
    (:meth:`PosetNode._lazy`).  A point of several classes lies in the box
    and is listed in one labelled pass, each class's members kept in its
    node; nodes come in representative order.
    """
    components = gens.components(tb, r)
    if not components:
        return components, []
    roots = set(components.values())
    if len(roots) == 1:
        return components, [(roots.pop(), PosetNode._lazy(tb, r, gens))]
    groups: dict[Generator, list[TupleClass]] = {}
    for t in gens.walk(tb, r, False):
        groups.setdefault(components[gens.label(t.factors)], []).append(t)
    return components, [(root, PosetNode(g[0].id_string(), tb, r, tuple(g))) for root, g in groups.items()]


def enumerate_fiber(spec: SumSpec, tb: int, r: int) -> list[PosetNode]:
    """All equivalence classes with summed invariants exactly (tb, r).

    Only the tuples of this one point are walked: at once if it has several
    classes, else when its class is first read.  A point outside the sum,
    of the wrong parity or in no cone of a generator top, has none; no
    level row is made to tell.
    """
    return [node for _root, node in _partition(_Generators(spec), tb, r)[1]]


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

# The most points a window or a figure may hold; A at depth 1000 holds 503,502.
_MAX_POINTS = 1_000_000


def _level_rows(level_points: Callable[[int], list[int]], top: int, tb_min: int, what: str) -> Iterator[tuple[int, list[int]]]:
    """Each level row from ``top`` down to ``tb_min`` as ``(tb, level_points(tb))``, within the point budget.

    ``level_points`` is :meth:`_Generators.level_points` for a sum, or
    :meth:`MountainRange.level_points` for a knot; each row is made once.
    Once the rows made hold more than :data:`_MAX_POINTS` points, it raises
    :class:`LegsumError`, naming ``what`` reads them, and makes no row below.
    """
    count = 0
    for tb in range(top, tb_min - 1, -1):
        row = level_points(tb)
        count += len(row)
        if count > _MAX_POINTS:
            raise LegsumError(f"{what} too large: its rows from tb {top} down to {tb} hold {count} points, more than the limit of {_MAX_POINTS}")
        yield tb, row


def build_quotient(spec: SumSpec, tb_min: int, workers: int = 0) -> QuotientPoset:
    """The window of the quotient poset from its top level down to tb_min.

    The window is built a level row at a time, from the top down, within
    the point budget of :func:`_level_rows`.  A row is the sum's points at
    one level, and two bisections split it at the box
    (:meth:`_Generators.box_cut`): its points with r <= U_min - tb or
    r >= tb - V_min have one class with root ``None``, made with no joins
    and no tuples; only the points between are partitioned into the
    components of their generator joins (see
    :func:`_partition`), and only they walk tuples at build time, to list
    and order several classes.  Edges are the signed stabilization steps
    between classes, led from component to component: the class with root
    g at (tb, r) has its +- child at the root of g at (tb - 1, r +- 1),
    because g's cone holds that point, and two generators both present at
    (tb, r) are both present below it, so every join open at (tb, r) stays
    open there.  So a child is found in the next row by its r alone, and at
    a point of several classes by the generator g too; a parent outside
    the box has its children outside it, since u and v only fall going
    down, so none of them is split.
    ``workers`` > 1 runs the partitioning of the boxed points on a thread
    pool; results are identical to the serial order.
    """
    return _window(spec, _Generators(spec), tb_min, workers)


def _nonsimple_window(spec: SumSpec, tb_min: int, workers: int) -> QuotientPoset:
    """The window of ``spec`` down to the row of its first nonsimple point, or to tb_min if none lies above it.

    One builder serves the box scan (:func:`_box_scan`) that finds the row
    and the window built down to it, so the boxed points above that row
    read their generator tops from one table.
    """
    gens = _Generators(spec)
    found = next(_box_scan(spec, tb_min, gens), None)
    return _window(spec, gens, found[0][0] if found else tb_min, workers)


def _window(spec: SumSpec, gens: _Generators, tb_min: int, workers: int) -> QuotientPoset:
    """:func:`build_quotient` with the builder ``gens`` of ``spec``, which then lists its one-class points' ids by rows (:meth:`_Generators.ids`)."""
    top = spec.top_tb
    if tb_min > top:
        raise WindowEmpty(f"window floor {tb_min} lies above the top level {top}")
    rows = [(tb, row, gens.box_cut(tb, row)) for tb, row in _level_rows(gens.level_points, top, tb_min, "window")]
    boxed = [(tb, r) for tb, row, cut in rows for r in row[cut]]
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = iter(list(pool.map(lambda pt: _partition(gens, *pt), boxed)))
    else:
        parts = (_partition(gens, *pt) for pt in boxed)

    gens._listed = {}
    nodes: list[PosetNode] = []
    steps: dict[str, list[list[int]]] = {POS: [], NEG: []}  # child positions per sign and node
    pos_kids, neg_kids = steps[POS], steps[NEG]
    above: list[tuple[int, Generator | None]] = []  # (r, root) of each node of the row above
    for tb, row, cut in rows:
        at: dict[int, int] = {}  # position of each point's first class, by r
        split: dict[int, dict[Generator, int]] = {}  # at a point of several classes: position by generator
        here: list[tuple[int, Generator | None]] = []
        for k, r in enumerate(row):
            at[r] = len(nodes)
            if not cut.start <= k < cut.stop:
                here.append((r, None))
                nodes.append(PosetNode._lazy(tb, r, gens))
                continue
            components, classes = next(parts)
            if len(classes) > 1:
                classes.sort(key=lambda c: c[1].key)
                position = {root: len(nodes) + j for j, (root, _node) in enumerate(classes)}
                split[r] = {gen: position[root] for gen, root in components.items()}
                gens._crowded.setdefault(tb, set()).add(r)
            for root, node in classes:
                here.append((r, root))
                nodes.append(node)
        for r, root in above:
            for kids, c in ((pos_kids, r + 1), (neg_kids, r - 1)):
                by_gen = split.get(c)
                kids.append([by_gen[root] if by_gen else at[c]])
        above = here
    for _ in above:
        pos_kids.append([])
        neg_kids.append([])
    return QuotientPoset(nodes, steps, tb_min, top, top_is_global=True)


def _box_scan(spec: SumSpec, tb_min: int, gens: _Generators | None = None) -> Iterator[tuple[tuple[int, int], int, str | None]]:
    """Each nonsimple point from the top row down to ``max(tb_min, F0)``, with its class count and, if it is maximal, its case.

    Each row is made once and cut at the box by
    :meth:`_Generators.box_cut`, as in :func:`build_quotient`, and only its
    boxed points are read, each by :meth:`_Generators.components`; see
    :class:`_Generators` for why that is exact.  Points come in window
    order, each as soon as it is read, so a caller that stops reads no
    later point.  A class is marked when it sits at a nonsimple point or
    below a marked class, and a nonsimple point is maximal when no class
    there is below a marked one.  So the first point yielded is maximal: no
    row above holds a nonsimple point, and its own row holds none of its
    ancestors.  A maximal point is case1 when some class there has no
    parent, case2 when it has two classes, both upper neighbours and no
    point (tb + 2, r) at or under the top, and a violation otherwise.
    The scan reads no point budget: its rows stop at the box floor.  It
    makes its own builder of ``spec`` unless given one.
    """
    gens = gens or _Generators(spec)
    above: dict[int, dict[Generator, Generator]] = {}  # components of each boxed point of the row above, by r
    two_above: dict[int, dict[Generator, Generator]] = {}
    marked_above: dict[int, set[Generator]] = {}  # marked roots of the row above, by r
    for tb in range(spec.top_tb, max(tb_min, _box_floor(spec)) - 1, -1):
        row = gens.level_points(tb)
        here: dict[int, dict[Generator, Generator]] = {}
        marked: dict[int, set[Generator]] = {}
        for r in row[gens.box_cut(tb, row)]:
            components = here[r] = gens.components(tb, r)
            roots = set(components.values())
            below = {components[g] for q in (r - 1, r + 1) for g in marked_above.get(q, ())}
            if len(roots) > 1:
                marked[r] = roots
                case = None
                if not below:
                    uppers = [above[q] for q in (r - 1, r + 1) if q in above]
                    if roots - {components[g] for upper in uppers for g in upper.values()}:
                        case = "case1"
                    elif len(roots) == 2 and len(uppers) == 2 and r not in two_above:
                        case = "case2"
                    else:
                        case = "violation"
                yield (tb, r), len(roots), case
            elif below:
                marked[r] = below
        two_above, above, marked_above = above, here, marked


def _box_report(spec: SumSpec, tb_min: int) -> NonsimpleReport:
    """``nonsimple_report(build_quotient(spec, tb_min))``, collected from :func:`_box_scan` with no window."""
    top = spec.top_tb
    if tb_min > top:
        raise WindowEmpty(f"window floor {tb_min} lies above the top level {top}")
    points = list(_box_scan(spec, tb_min))
    return NonsimpleReport(
        tb_min=tb_min,
        top_tb=top,
        nonsimple=tuple((pt, size) for pt, size, _case in points),
        nmax=tuple(DichotomyVerdict(pt, size, case) for pt, size, case in points if case),
    )
