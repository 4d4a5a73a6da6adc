"""Truncated stabilization posets and their nonsimplicity analysis.

A connected-sum quotient is an infinite graded poset: classes graded by tb,
with one positive and one negative stabilization edge leaving every class.
We only ever materialize a window of it, from the top tb level down to a
floor ``tb_min``.  :class:`QuotientPoset` is that window: nodes carry a
deterministic key, a (tb, r) point, and optionally the representative and
member tuples of the class they stand for, made on first use.

Analysis layer:

* :func:`detect_peaks` / :func:`detect_valleys` read the local order
  structure off the edge relation,
* :func:`find_nmax` locates the maximal nonsimple points of the window,
* :func:`check_nmax_dichotomy` classifies each maximal nonsimple point as
  one of the two shapes that can actually occur (a parentless class in the
  fiber, or a two-class fiber at a valley of the (tb, r)-image) and flags
  anything else as a violation.

Windows built by :func:`legsum.sums.build_quotient` know their top level is
the true global top; hand-assembled windows generally do not, and verdicts
that would need rows above a non-global top raise
:class:`~legsum.errors.WindowTooShallow`.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, Iterable, Iterator

from .errors import WindowTooShallow
from .ranges import NEG, POS, SIGNS, check_sign

Point = tuple[int, int]


class PosetNode:
    """One equivalence class in the window: an immutable value.

    ``members`` holds the canonical tuples of the class, representative
    first; hand-built fixture nodes leave it empty.  ``ids`` holds their id
    strings, in the same order.  A built node takes its members, and at a
    one-class point its representative and ids, as callables that run on
    first read only (see :meth:`_lazy`), so outputs that never list or name
    a class never enumerate it; the key is the representative's id string.
    At a one-class point the ids are walked as text, with no tuple objects,
    and the first of them gives the key, so reading ``ids`` before ``key``
    walks the point once.  Elsewhere the ids are read off the members, and
    the key off the representative.  Equality and repr read the members;
    the hash does not.
    """

    __slots__ = ("_key", "tb", "r", "_representative", "_members", "_ids")

    def __init__(self, key: str, tb: int, r: int, members: tuple = ()) -> None:
        _fill(self, key, tb, r, members[0] if members else None, members, None)

    @classmethod
    def _lazy(
        cls, tb: int, r: int, representative, members: Callable[[], tuple], ids: Callable[[], tuple] | None = None
    ) -> "PosetNode":
        """A node whose members, representative if callable, and ids if given are made on first read.

        Without ``ids``, the ids are read off the members.
        """
        node = object.__new__(cls)
        _fill(node, None, tb, r, representative, members, ids)
        return node

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _settle(self, name: str):
        """A lazy slot's value: a callable there is called once read and replaced by its result.

        Concurrent first reads may each call it and store equal values.
        """
        value = getattr(self, name)
        if callable(value):
            value = value()
            object.__setattr__(self, name, value)
        return value

    @property
    def members(self) -> tuple:
        members = self._settle("_members")
        # The first member, and ids to be read off the members, without
        # keeping the builder alive.
        if callable(self._representative):
            object.__setattr__(self, "_representative", members[0])
        if callable(self._ids):
            object.__setattr__(self, "_ids", None)
        return members

    @property
    def ids(self) -> tuple[str, ...]:
        """The members' id strings, in member order.

        While the representative is still to be found, the first id becomes
        the key, so the key needs no second walk of the point.
        """
        ids = self._settle("_ids")
        if ids is None:
            ids = tuple([t.id_string() for t in self.members])
            object.__setattr__(self, "_ids", ids)
        if self._key is None and callable(self._representative):
            object.__setattr__(self, "_key", ids[0])
        return ids

    @property
    def representative(self):
        return self._settle("_representative")

    @property
    def key(self) -> str:
        if self._key is None:
            object.__setattr__(self, "_key", self.representative.id_string())
        return self._key

    @property
    def point(self) -> Point:
        return (self.tb, self.r)

    @property
    def size(self) -> int:
        """Member-tuple count (0 for fixture nodes without members)."""
        return len(self.members)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.key, self.tb, self.r) == (other.key, other.tb, other.r) and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.key, self.tb, self.r))

    def __repr__(self) -> str:
        return f"PosetNode(key={self.key!r}, tb={self.tb!r}, r={self.r!r}, members={self.members!r})"

    def __reduce__(self):
        return (PosetNode, (self.key, self.tb, self.r, self.members))


_SET_SLOT = tuple(PosetNode.__dict__[name].__set__ for name in PosetNode.__slots__)


def _fill(node: PosetNode, key, tb, r, representative, members, ids) -> None:
    """Set a node's slots past its frozen ``__setattr__``."""
    set_key, set_tb, set_r, set_representative, set_members, set_ids = _SET_SLOT
    set_key(node, key)
    set_tb(node, tb)
    set_r(node, r)
    set_representative(node, representative)
    set_members(node, members)
    set_ids(node, ids)


@dataclass(frozen=True)
class Edge:
    parent: str
    sign: str
    child: str


class QuotientPoset:
    """A truncated stabilization poset with signed edges.

    Nodes are held by position in window order (descending tb, ascending r,
    then key), so each fiber is one run of positions; children and parents
    are lists of positions, per sign and node.  The analyses below walk
    positions and read no key.  The key index and the sorted ``edges`` are
    made on first read.  Given :class:`Edge` values, the constructor sorts
    and indexes the nodes.  :func:`legsum.sums.build_quotient` instead
    passes ``edges`` as a dict from each sign to every node's child
    positions, its nodes in window order; only keys of multi-class fibers
    are read, to check them.  Every edge must be a stabilization step.
    """

    def __init__(
        self,
        nodes: Iterable[PosetNode],
        edges: Iterable[Edge],
        tb_min: int,
        top_tb: int,
        top_is_global: bool = True,
    ) -> None:
        self.tb_min = tb_min
        self.top_tb = top_tb
        self.top_is_global = top_is_global
        self._edges: tuple[Edge, ...] | None = None
        self._index: dict[str, int] | None = None
        if isinstance(edges, dict):
            self._nodes, self._down = list(nodes), edges
        else:
            self._nodes = sorted(nodes, key=lambda n: (-n.tb, n.r, n.key))
            index = self._index = {}
            for i, n in enumerate(self._nodes):
                if index.setdefault(n.key, i) != i:
                    raise ValueError(f"duplicate node key {n.key!r}")
            self._edges = tuple(sorted(edges, key=lambda e: (e.parent, e.sign, e.child)))
            self._down = {sign: [[] for _ in self._nodes] for sign in SIGNS}
            for e in self._edges:
                check_sign(e.sign)
                if e.parent not in index or e.child not in index:
                    raise ValueError(f"edge {e} references an unknown node")
                self._down[e.sign][index[e.parent]].append(index[e.child])
        nodes = self._nodes
        for n in nodes[:1] + nodes[-1:]:
            if not (tb_min <= n.tb <= top_tb):
                raise ValueError(f"node {n.key!r} at tb={n.tb} lies outside the window")
        self._at: dict[Point, tuple[int, int]] = {}
        for i, n in enumerate(nodes):
            pt, start = (n.tb, n.r), i
            if i and (nodes[i - 1].tb, nodes[i - 1].r) == pt:
                start = self._at[pt][0]
                if nodes[i - 1].key >= n.key:
                    raise ValueError(f"duplicate node key {n.key!r} or keys out of order at {pt}")
            elif i and (-nodes[i - 1].tb, nodes[i - 1].r) > (-n.tb, n.r):
                raise ValueError(f"node at {pt} is out of window order")
            self._at[pt] = (start, i + 1)
        self._up = {sign: [[] for _ in nodes] for sign in SIGNS}
        for sign, step in zip(SIGNS, (1, -1)):
            up = self._up[sign]
            for i, kids in enumerate(self._down[sign]):
                p = nodes[i]
                for c in kids:
                    if nodes[c].tb != p.tb - 1 or nodes[c].r != p.r + step:
                        raise ValueError(f"edge {Edge(p.key, sign, nodes[c].key)} is not a {sign} stabilization step")
                    up[c].append(i)

    @classmethod
    def from_parts(
        cls,
        nodes: Iterable[tuple[str, int, int]],
        edges: Iterable[tuple[str, str, str]],
        tb_min: int,
        top_tb: int,
        top_is_global: bool = False,
    ) -> "QuotientPoset":
        """Assemble a window by hand, typically for tests and fixtures.

        ``nodes`` are (key, tb, r) triples, ``edges`` are (parent, sign,
        child) triples.
        """
        return cls(
            (PosetNode(k, tb, r) for k, tb, r in nodes),
            (Edge(p, s, c) for p, s, c in edges),
            tb_min,
            top_tb,
            top_is_global=top_is_global,
        )

    # --- access -----------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """``len(self.edges)``, counted off the child positions with no edge named or sorted."""
        return sum(len(kids) for down in self._down.values() for kids in down)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge, sorted by (parent, sign, child) key."""
        if self._edges is None:
            nodes = self._nodes
            self._edges = tuple(Edge(nodes[i].key, sign, nodes[c].key) for i, sign, c in self._links())
        return self._edges

    def _links(self) -> Iterator[tuple[int, str, int]]:
        """Every edge as (parent position, sign, child position), in (parent, sign, child) key order.

        The keys of a window are distinct, so that order is the parents by
        key, then the signs, then each parent's children by key.
        """
        keys = [n.key for n in self._nodes]
        by_key = keys.__getitem__
        signs = sorted(self._down.items())
        for i in sorted(range(len(keys)), key=by_key):
            for sign, down in signs:
                kids = down[i]
                for c in sorted(kids, key=by_key) if len(kids) > 1 else kids:
                    yield i, sign, c

    def _keyed(self) -> dict[str, int]:
        """Node positions by key."""
        if self._index is None:
            self._index = {n.key: i for i, n in enumerate(self._nodes)}
        return self._index

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[PosetNode]:
        return iter(self._nodes)

    def node(self, key: str) -> PosetNode:
        return self._nodes[self._keyed()[key]]

    def __contains__(self, key: str) -> bool:
        return key in self._keyed()

    def points(self) -> list[Point]:
        """All distinct (tb, r) points of the window, top row first."""
        return list(self._at)

    def fiber(self, tb: int, r: int) -> tuple[PosetNode, ...]:
        """All classes sharing the invariant pair (tb, r)."""
        return tuple(self._nodes[slice(*self._at.get((tb, r), (0, 0)))])

    def fiber_size(self, tb: int, r: int) -> int:
        start, stop = self._at.get((tb, r), (0, 0))
        return stop - start

    def children(self, key: str, sign: str | None = None) -> tuple[str, ...]:
        i, down = self._keyed()[key], self._down
        kids = down[check_sign(sign)][i] if sign is not None else down[POS][i] + down[NEG][i]
        return tuple(self._nodes[j].key for j in kids)

    def parents(self, key: str, sign: str | None = None) -> tuple[str, ...]:
        i = self._keyed()[key]
        ups = self._up[check_sign(sign)][i] if sign is not None else _above(self, i)
        return tuple(self._nodes[j].key for j in ups)


def _above(poset: QuotientPoset, i: int) -> dict[int, None]:
    """The parent positions of position i, each once, positive-sign parents first."""
    return dict.fromkeys(poset._up[POS][i] + poset._up[NEG][i])


# --- structural checks ------------------------------------------------------------


def structure_violations(poset: QuotientPoset) -> list[str]:
    """Defects against the well-formedness of a real quotient window.

    Checks that every node above the floor has exactly one child per sign
    and that stabilizations commute (the +- grandchild equals the -+
    grandchild for every node at least two rows above the floor).
    """
    pos, neg = poset._down[POS], poset._down[NEG]
    out: list[str] = []
    for i, n in enumerate(poset):
        if n.tb > poset.tb_min:
            for sign, down in poset._down.items():
                if len(down[i]) != 1:
                    out.append(f"{n.key}: expected one {sign} child, found {len(down[i])}")
    for i, n in enumerate(poset):
        if n.tb >= poset.tb_min + 2:
            if {g for c in pos[i] for g in neg[c]} != {g for c in neg[i] for g in pos[c]}:
                out.append(f"{n.key}: +- and -+ grandchildren differ")
    return out


# --- order-theoretic features -------------------------------------------------------


def detect_peaks(poset: QuotientPoset) -> tuple[PosetNode, ...]:
    """Nodes with no parent edge.

    The parent row of any window node lies inside the window (truncation
    removes rows from below only), so the verdict is exact everywhere when
    the top level is global.
    """
    return tuple(n for n, pos, neg in zip(poset, poset._up[POS], poset._up[NEG]) if not pos and not neg)


def detect_valleys(poset: QuotientPoset) -> tuple[PosetNode, ...]:
    """Nodes with two parents that share no common parent.

    Only evaluated for nodes at least two rows below the top, where both
    required parent rows are inside the window.
    """
    out = []
    for i, n in enumerate(poset):
        if n.tb > poset.top_tb - 2:
            continue
        ps = _above(poset, i)
        if len(ps) < 2:
            continue
        for p1, p2 in itertools.combinations(ps, 2):
            if _above(poset, p1).keys().isdisjoint(_above(poset, p2)):
                out.append(n)
                break
    return tuple(out)


# --- nonsimplicity ---------------------------------------------------------------------


def nonsimple_points(poset: QuotientPoset) -> list[tuple[Point, int]]:
    """All window points with at least two classes, with their fiber sizes."""
    return [(pt, stop - start) for pt, (start, stop) in poset._at.items() if stop - start >= 2]


def _maximal(poset: QuotientPoset, nonsimple: list[tuple[Point, int]]) -> list[Point]:
    """The points of ``nonsimple`` whose classes have no strict ancestor at a nonsimple point.

    Parents come before their children in window order, so one pass down
    the window finds every node below a nonsimple point.
    """
    crowded = {i for pt, _size in nonsimple for i in range(*poset._at[pt])}
    below: set[int] = set()
    for i in range(poset._at[nonsimple[-1][0]][1] if nonsimple else 0):
        if any(p in crowded or p in below for p in _above(poset, i)):
            below.add(i)
    return [pt for pt, _size in nonsimple if below.isdisjoint(range(*poset._at[pt]))]


def find_nmax(poset: QuotientPoset) -> list[Point]:
    """Maximal nonsimple points: every strict ancestor class sits at a simple point.

    Maximality is relative to the window; on windows built from a sum spec
    the ancestor cone of any window point lies inside the window, so the
    verdict is global.
    """
    return _maximal(poset, nonsimple_points(poset))


@dataclass(frozen=True)
class DichotomyVerdict:
    point: Point
    fiber_size: int
    case: str  # "case1" | "case2" | "violation"


@dataclass(frozen=True)
class NonsimpleReport:
    """Summary of where and how a window fails to be simple."""

    tb_min: int
    top_tb: int
    nonsimple: tuple[tuple[Point, int], ...]
    nmax: tuple[DichotomyVerdict, ...]

    @property
    def simple(self) -> bool:
        return not self.nonsimple


def _is_image_valley(poset: QuotientPoset, pt: Point) -> bool:
    """Valley of the (tb, r)-image: both upper neighbors present, no common parent point."""
    tb, r = pt
    if not (poset.fiber_size(tb + 1, r - 1) and poset.fiber_size(tb + 1, r + 1)):
        return False
    if tb + 2 > poset.top_tb:
        if poset.top_is_global:
            return True
        raise WindowTooShallow(
            f"valley verdict at {pt} needs row tb={tb + 2} above the window top"
        )
    return poset.fiber_size(tb + 2, r) == 0


def classify_nmax_point(poset: QuotientPoset, pt: Point) -> DichotomyVerdict:
    start, stop = poset._at.get(pt, (0, 0))
    size = stop - start
    if any(not poset._up[POS][i] and not poset._up[NEG][i] for i in range(start, stop)):
        if pt[0] == poset.top_tb and not poset.top_is_global:
            raise WindowTooShallow(
                f"parentless verdict at {pt} needs the row above the window top"
            )
        return DichotomyVerdict(pt, size, "case1")
    if size == 2 and _is_image_valley(poset, pt):
        return DichotomyVerdict(pt, size, "case2")
    return DichotomyVerdict(pt, size, "violation")


def check_nmax_dichotomy(poset: QuotientPoset) -> list[DichotomyVerdict]:
    """Classify every maximal nonsimple point of the window.

    On a window of a real quotient every verdict is case1 or case2; a
    violation verdict means the poset does not come from a connected-sum
    quotient.
    """
    return [classify_nmax_point(poset, pt) for pt in find_nmax(poset)]


def nonsimple_report(poset: QuotientPoset) -> NonsimpleReport:
    nonsimple = nonsimple_points(poset)
    return NonsimpleReport(
        tb_min=poset.tb_min,
        top_tb=poset.top_tb,
        nonsimple=tuple(nonsimple),
        nmax=tuple(classify_nmax_point(poset, pt) for pt in _maximal(poset, nonsimple)),
    )
