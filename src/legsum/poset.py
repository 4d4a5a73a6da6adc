"""Truncated stabilization posets and their nonsimplicity analysis.

A connected-sum quotient is an infinite graded poset: classes graded by tb,
with one positive and one negative stabilization edge leaving every class.
We only ever materialize a window of it, from the top tb level down to a
floor ``tb_min``.  :class:`QuotientPoset` is that window: nodes carry a
deterministic key, a (tb, r) point, and optionally the representative and
member tuples of the class they stand for, members expanded on first use.

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
from .ranges import NEG, POS, check_sign, r_step

Point = tuple[int, int]


class PosetNode:
    """One equivalence class in the window: an immutable value.

    ``members`` holds the canonical tuples of the class, representative
    first; hand-built fixture nodes leave it empty.  Nodes of a built window
    know their ``representative`` from the start and expand ``members`` on
    first access (see :meth:`_lazy`), so outputs that never list members
    never enumerate them.  Equality and repr read the members, expanding
    them if need be; the hash does not.
    """

    __slots__ = ("key", "tb", "r", "representative", "_members", "_expand")

    def __init__(self, key: str, tb: int, r: int, members: tuple = ()) -> None:
        self._fill(key, tb, r, members[0] if members else None, members, None)

    @classmethod
    def _lazy(cls, key: str, tb: int, r: int, representative, expand: Callable[[], tuple]) -> "PosetNode":
        """A node whose members ``expand()`` returns, called on first access only."""
        node = object.__new__(cls)
        node._fill(key, tb, r, representative, None, expand)
        return node

    def _fill(self, *values) -> None:
        """Set the slots, in ``__slots__`` order, past the frozen ``__setattr__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def members(self) -> tuple:
        # Read the expander before the members and drop it after storing
        # them, so a concurrent first access sees one or the other, and an
        # expanded node no longer keeps its builder's tables alive.
        expand = self._expand
        members = self._members
        if members is None:
            members = expand()
            object.__setattr__(self, "_members", members)
            object.__setattr__(self, "_expand", None)
        return members

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


@dataclass(frozen=True)
class Edge:
    parent: str
    sign: str
    child: str


def _node_order(node: PosetNode) -> tuple:
    return (-node.tb, node.r, node.key)


class QuotientPoset:
    """A truncated stabilization poset with signed edges.

    Nodes and edges are stored in a deterministic order; every accessor
    returns deterministically ordered results.
    """

    def __init__(
        self,
        nodes: Iterable[PosetNode],
        edges: Iterable[Edge],
        tb_min: int,
        top_tb: int,
        top_is_global: bool = True,
    ) -> None:
        ordered = sorted(nodes, key=_node_order)
        self._nodes: dict[str, PosetNode] = {}
        for n in ordered:
            if n.key in self._nodes:
                raise ValueError(f"duplicate node key {n.key!r}")
            if not (tb_min <= n.tb <= top_tb):
                raise ValueError(f"node {n.key!r} at tb={n.tb} lies outside the window")
            self._nodes[n.key] = n
        self.edges: tuple[Edge, ...] = tuple(
            sorted(edges, key=lambda e: (e.parent, e.sign, e.child))
        )
        self.tb_min = tb_min
        self.top_tb = top_tb
        self.top_is_global = top_is_global

        self._children: dict[str, dict[str, list[str]]] = {k: {POS: [], NEG: []} for k in self._nodes}
        self._parents: dict[str, dict[str, list[str]]] = {k: {POS: [], NEG: []} for k in self._nodes}
        for e in self.edges:
            check_sign(e.sign)
            if e.parent not in self._nodes or e.child not in self._nodes:
                raise ValueError(f"edge {e} references an unknown node")
            p, c = self._nodes[e.parent], self._nodes[e.child]
            if (c.tb, c.r) != (p.tb - 1, p.r + r_step(e.sign)):
                raise ValueError(f"edge {e} is not a {e.sign} stabilization step")
            self._children[e.parent][e.sign].append(e.child)
            self._parents[e.child][e.sign].append(e.parent)

        by_point: dict[Point, list[str]] = {}
        for k, n in self._nodes.items():
            by_point.setdefault(n.point, []).append(k)
        self._by_point = {pt: tuple(ks) for pt, ks in by_point.items()}

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

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[PosetNode]:
        return iter(self._nodes.values())

    def node(self, key: str) -> PosetNode:
        return self._nodes[key]

    def __contains__(self, key: str) -> bool:
        return key in self._nodes

    def points(self) -> list[Point]:
        """All distinct (tb, r) points of the window, top row first."""
        return sorted(self._by_point, key=lambda pt: (-pt[0], pt[1]))

    def fiber(self, tb: int, r: int) -> tuple[PosetNode, ...]:
        """All classes sharing the invariant pair (tb, r)."""
        return tuple(self._nodes[k] for k in self._by_point.get((tb, r), ()))

    def fiber_size(self, tb: int, r: int) -> int:
        return len(self._by_point.get((tb, r), ()))

    def children(self, key: str, sign: str | None = None) -> tuple[str, ...]:
        if sign is not None:
            return tuple(self._children[key][check_sign(sign)])
        return tuple(self._children[key][POS]) + tuple(self._children[key][NEG])

    def parents(self, key: str, sign: str | None = None) -> tuple[str, ...]:
        if sign is not None:
            return tuple(self._parents[key][check_sign(sign)])
        seen = dict.fromkeys(self._parents[key][POS] + self._parents[key][NEG])
        return tuple(seen)


# --- structural checks ------------------------------------------------------------


def structure_violations(poset: QuotientPoset) -> list[str]:
    """Defects against the well-formedness of a real quotient window.

    Checks that every node above the floor has exactly one child per sign
    and that stabilizations commute (the +- grandchild equals the -+
    grandchild for every node at least two rows above the floor).
    """
    out: list[str] = []
    for n in poset:
        if n.tb > poset.tb_min:
            for sign in (POS, NEG):
                ch = poset.children(n.key, sign)
                if len(ch) != 1:
                    out.append(f"{n.key}: expected one {sign} child, found {len(ch)}")
    for n in poset:
        if n.tb >= poset.tb_min + 2:
            pm = {g for c in poset.children(n.key, POS) for g in poset.children(c, NEG)}
            mp = {g for c in poset.children(n.key, NEG) for g in poset.children(c, POS)}
            if pm != mp:
                out.append(f"{n.key}: +- and -+ grandchildren differ")
    return out


# --- order-theoretic features -------------------------------------------------------


def detect_peaks(poset: QuotientPoset) -> tuple[PosetNode, ...]:
    """Nodes with no parent edge.

    The parent row of any window node lies inside the window (truncation
    removes rows from below only), so the verdict is exact everywhere when
    the top level is global.
    """
    return tuple(n for n in poset if not poset.parents(n.key))


def detect_valleys(poset: QuotientPoset) -> tuple[PosetNode, ...]:
    """Nodes with two parents that share no common parent.

    Only evaluated for nodes at least two rows below the top, where both
    required parent rows are inside the window.
    """
    out = []
    for n in poset:
        if n.tb > poset.top_tb - 2:
            continue
        ps = poset.parents(n.key)
        if len(ps) < 2:
            continue
        for p1, p2 in itertools.combinations(ps, 2):
            if not set(poset.parents(p1)) & set(poset.parents(p2)):
                out.append(n)
                break
    return tuple(out)


# --- nonsimplicity ---------------------------------------------------------------------


def nonsimple_points(poset: QuotientPoset) -> list[tuple[Point, int]]:
    """All window points with at least two classes, with their fiber sizes."""
    return [
        (pt, poset.fiber_size(*pt))
        for pt in poset.points()
        if poset.fiber_size(*pt) >= 2
    ]


def _ancestor_keys(poset: QuotientPoset, keys: Iterable[str]) -> set[str]:
    """Strict ancestors (transitive parents) of the given nodes."""
    seen: set[str] = set()
    stack = [p for k in keys for p in poset.parents(k)]
    while stack:
        k = stack.pop()
        if k in seen:
            continue
        seen.add(k)
        stack.extend(poset.parents(k))
    return seen


def find_nmax(poset: QuotientPoset) -> list[Point]:
    """Maximal nonsimple points: every strict ancestor class sits at a simple point.

    Maximality is relative to the window; on windows built from a sum spec
    the ancestor cone of any window point lies inside the window, so the
    verdict is global.
    """
    out = []
    for pt, _size in nonsimple_points(poset):
        keys = [n.key for n in poset.fiber(*pt)]
        above = _ancestor_keys(poset, keys)
        if all(poset.fiber_size(*poset.node(k).point) == 1 for k in above):
            out.append(pt)
    return out


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
    fiber = poset.fiber(*pt)
    parentless = [n for n in fiber if not poset.parents(n.key)]
    if parentless:
        if pt[0] == poset.top_tb and not poset.top_is_global:
            raise WindowTooShallow(
                f"parentless verdict at {pt} needs the row above the window top"
            )
        return DichotomyVerdict(pt, len(fiber), "case1")
    if len(fiber) == 2 and _is_image_valley(poset, pt):
        return DichotomyVerdict(pt, len(fiber), "case2")
    return DichotomyVerdict(pt, len(fiber), "violation")


def check_nmax_dichotomy(poset: QuotientPoset) -> list[DichotomyVerdict]:
    """Classify every maximal nonsimple point of the window.

    On a window of a real quotient every verdict is case1 or case2; a
    violation verdict means the poset does not come from a connected-sum
    quotient.
    """
    return [classify_nmax_point(poset, pt) for pt in find_nmax(poset)]


def nonsimple_report(poset: QuotientPoset) -> NonsimpleReport:
    return NonsimpleReport(
        tb_min=poset.tb_min,
        top_tb=poset.top_tb,
        nonsimple=tuple(nonsimple_points(poset)),
        nmax=tuple(check_nmax_dichotomy(poset)),
    )
