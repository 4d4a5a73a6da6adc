"""Words in stabilizations and partial destabilizations, and path searches.

A path letter is S_eps^eta with eps in {0, +, -} and eta in {1, -1}: a
stabilization (eta = 1), a destabilization (eta = -1, partial: it exists
only when the parent point is present), or the identity placeholder S_0.
A :class:`PathWord` stores letters in application order; the textual form
follows the operator convention and puts the first-applied letter rightmost.

The reverse of a word negates every exponent in place.  Applying a word and
its reverse simultaneously to the two sides of a connected sum keeps the
summed invariants fixed, which is what makes these words useful: they move
stabilizations between summands.  :func:`find_connecting_path` searches for
such a word by breadth-first search over component pairs, and
:func:`check_multipath` verifies a family of words as a joint move sequence
on a factor tuple.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Sequence

from ._values import Value, init
from .errors import (
    InvariantMismatch,
    LengthMismatch,
    ParseError,
    Truncated,
)
from .poset import PosetNode, QuotientPoset
from .ranges import NEG, POS, MountainRange, SimpleClass, r_step
from .sums import SumSpec, TupleClass

IDENT = "0"
EPSILONS = (IDENT, POS, NEG)


class PathLetter(Value):
    """S_epsilon^eta; the identity letter S_0 normalizes its exponent to 1."""

    __slots__ = __match_args__ = ("epsilon", "eta")

    def __init__(self, epsilon: str, eta: int = 1) -> None:
        if epsilon not in EPSILONS:
            raise ValueError(f"epsilon must be one of {EPSILONS}, got {epsilon!r}")
        if eta not in (1, -1):
            raise ValueError(f"eta must be +1 or -1, got {eta!r}")
        init(self, epsilon, 1 if epsilon == IDENT else eta)

    @property
    def is_identity(self) -> bool:
        return self.epsilon == IDENT

    def reversed(self) -> "PathLetter":
        if self.is_identity:
            return self
        return PathLetter(self.epsilon, -self.eta)

    def token(self) -> str:
        return self.epsilon + ("^-1" if self.eta == -1 else "")


class PathWord(Value):
    """A finite word of path letters, stored first-applied first."""

    __slots__ = __match_args__ = ("letters",)

    def __init__(self, letters: tuple[PathLetter, ...] = ()) -> None:
        init(self, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def reverse(self) -> "PathWord":
        """Negate every exponent; an involution."""
        return PathWord(tuple(l.reversed() for l in self.letters))


def concat(second: PathWord, first: PathWord) -> PathWord:
    """The word that applies ``first``, then ``second``."""
    return PathWord(first.letters + second.letters)


def format_word(word: PathWord) -> str:
    """Serialize with the first-applied letter rightmost."""
    return " ".join(l.token() for l in reversed(word.letters))


def parse_word(text: str) -> PathWord:
    """Parse the serialization produced by :func:`format_word`.

    Tokens are whitespace-separated, rightmost applied first; an optional
    leading ``S`` per token is accepted.
    """
    letters: list[PathLetter] = []
    for tok in text.split():
        body = tok[1:] if tok[:1] in ("S", "s") else tok
        if body.endswith("^-1"):
            eps, eta = body[:-3], -1
        else:
            eps, eta = body, 1
        if eps not in EPSILONS:
            raise ParseError(f"bad path token {tok!r}")
        if eps == IDENT and eta == -1:
            raise ParseError(f"the identity letter has no inverse form: {tok!r}")
        letters.append(PathLetter(eps, eta))
    return PathWord(tuple(reversed(letters)))


# --- realization ------------------------------------------------------------------


def _range_step(rng: MountainRange, pt: SimpleClass, letter: PathLetter) -> SimpleClass | None:
    if letter.is_identity:
        return pt
    if letter.eta == 1:
        return pt.stabilized(letter.epsilon)
    return rng.destabilize(pt, letter.epsilon)


def _realize_on_range(
    word: PathWord, rng: MountainRange, start: SimpleClass
) -> frozenset[SimpleClass]:
    rng.point(start.tb, start.r)
    cur: set[SimpleClass] = {start}
    for letter in word.letters:
        nxt = {_range_step(rng, p, letter) for p in cur}
        nxt.discard(None)
        cur = nxt
    return frozenset(cur)


def _realize_on_poset(
    word: PathWord, poset: QuotientPoset, start: str
) -> frozenset[str]:
    cur: set[str] = {start}
    for letter in word.letters:
        if letter.is_identity:
            continue
        nxt: set[str] = set()
        for k in cur:
            node = poset.node(k)
            if letter.eta == 1:
                if node.tb - 1 < poset.tb_min:
                    raise Truncated(
                        f"step below the window floor tb={poset.tb_min} from {k}"
                    )
                nxt.update(poset.children(k, letter.epsilon))
            else:
                nxt.update(poset.parents(k, letter.epsilon))
        cur = nxt
    return frozenset(cur)


def realize(word: PathWord, model, start):
    """Apply a word to a start point in a range or a truncated quotient.

    Returns the frozenset of possible end states: classes for a
    :class:`MountainRange` (at most one, since steps are partial functions
    there), node keys for a :class:`QuotientPoset`.
    """
    if isinstance(model, MountainRange):
        if isinstance(start, tuple):
            start = model.point(*start)
        return _realize_on_range(word, model, start)
    if isinstance(model, QuotientPoset):
        if isinstance(start, PosetNode):
            start = start.key
        elif isinstance(start, TupleClass):
            start = _poset_key_of(model, start)
        if start not in model:
            raise KeyError(f"unknown poset node {start!r}")
        return _realize_on_poset(word, model, start)
    raise TypeError(f"cannot realize on {type(model).__name__}")


def _poset_key_of(poset: QuotientPoset, t: TupleClass) -> str:
    tb, r = t.invariants()
    for node in poset.fiber(tb, r):
        if t in node.members:
            return node.key
    raise KeyError(f"tuple {t} is not in the window")


# --- joint moves on factor tuples ------------------------------------------------------


def _valid_level(letters: Sequence[PathLetter]) -> bool:
    """One transfer move: exactly an S_eps and an S_eps^-1, rest identity."""
    active = [l for l in letters if not l.is_identity]
    if len(active) != 2:
        return False
    a, b = active
    return a.epsilon == b.epsilon and a.eta == -b.eta


def check_multipath(
    spec: SumSpec, words: Sequence[PathWord], start: TupleClass, end: TupleClass
) -> bool:
    """Do these words jointly move ``start`` to ``end`` as relation moves?

    One word per factor position.  Checks that every level's letter multiset
    is a single same-sign transfer (an S_eps paired with an S_eps^-1, all
    other positions idle) and that each component word realizes on its
    factor, landing on the factors of ``end`` up to a permutation of
    equal-knot positions.
    """
    n = len(start.factors)
    if len(words) != n or len(end.factors) != n:
        raise LengthMismatch(f"need one word per factor position ({n})")
    lengths = {len(w) for w in words}
    if len(lengths) > 1:
        raise LengthMismatch(f"words must share one length, got {sorted(lengths)}")
    depth = lengths.pop() if lengths else 0
    for k in range(depth):
        if not _valid_level([w.letters[k] for w in words]):
            return False

    # each word lands on at most one factor (steps are partial functions),
    # so the ends match ``end`` up to a permutation of equal-knot positions
    # exactly when every word lands and the landings equal the end factors
    # as a multiset
    ends = [realize(w, spec.range_of(f.knot_id), f) for w, f in zip(words, start.factors)]
    if not all(ends) or any(s.knot_id != e.knot_id for s, e in zip(start.factors, end.factors)):
        return False
    return Counter(f for landed in ends for f in landed) == Counter(end.factors)


# --- pairwise transport search ------------------------------------------------------------


def find_connecting_path(
    rng1: MountainRange,
    rng2: MountainRange,
    start1: SimpleClass,
    end1: SimpleClass,
    start2: SimpleClass,
    end2: SimpleClass,
    tb_floor: int,
    max_len: int,
) -> PathWord | None:
    """Shortest word moving start1 to end1 while its reverse moves start2 to end2.

    The two summands must be distinct knots.  Both components are kept at or
    above ``tb_floor`` and the word length at or below ``max_len``; ``None``
    means no word exists within those bounds, which is one-sided evidence
    only.  Raises :class:`InvariantMismatch` when the endpoint pairs do not
    have equal summed invariants (no word can connect them).
    """
    if rng1.knot_id == rng2.knot_id:
        raise ValueError("transport search needs two distinct summands")
    for rng, cls in ((rng1, start1), (rng1, end1), (rng2, start2), (rng2, end2)):
        rng.point(cls.tb, cls.r)
    if (start1.tb + start2.tb, start1.r + start2.r) != (
        end1.tb + end2.tb,
        end1.r + end2.r,
    ):
        raise InvariantMismatch(
            "invariant mismatch: endpoint pairs have different summed (tb, r); "
            "no word connects them"
        )

    State = tuple[tuple[int, int], tuple[int, int]]
    init: State = (start1.point, start2.point)
    goal: State = (end1.point, end2.point)
    if init == goal:
        return PathWord(())

    def moves(state: State):
        (t1, r1), (t2, r2) = state
        for eps in (POS, NEG):
            dr = r_step(eps)
            # letter S_eps on component 1, its reverse S_eps^-1 on component 2
            if t1 - 1 >= tb_floor and rng2.contains(t2 + 1, r2 - dr):
                yield PathLetter(eps, 1), ((t1 - 1, r1 + dr), (t2 + 1, r2 - dr))
            # letter S_eps^-1 on component 1, its reverse S_eps on component 2
            if t2 - 1 >= tb_floor and rng1.contains(t1 + 1, r1 - dr):
                yield PathLetter(eps, -1), ((t1 + 1, r1 - dr), (t2 - 1, r2 + dr))

    prev: dict[State, tuple[State, PathLetter] | None] = {init: None}
    frontier = deque([(init, 0)])
    while frontier:
        state, depth = frontier.popleft()
        if depth >= max_len:
            continue
        for letter, nxt in moves(state):
            if nxt in prev:
                continue
            prev[nxt] = (state, letter)
            if nxt == goal:
                letters: list[PathLetter] = []
                cur = nxt
                while prev[cur] is not None:
                    cur, letter = prev[cur]
                    letters.append(letter)
                letters.reverse()
                return PathWord(tuple(letters))
            frontier.append((nxt, depth + 1))
    return None
