"""Mountain ranges: the stabilization diagram of a Legendrian-simple knot type.

A knot type that is Legendrian simple is described completely by the pairs
(tb, r) its Legendrian representatives realize.  Plotted with tb vertical and
r horizontal that set looks like a mountain range: finitely many peaks, the
downward cones below them (one negative and one positive stabilization step
per lattice move), and the valleys where adjacent cones merge.

This module owns the single-knot layer: the :class:`MountainRange` type, its
validation, membership tests, valley computation, level slices, and the
stabilization / destabilization moves on :class:`SimpleClass` points.

Conventions used throughout the package:

* a positive stabilization maps (tb, r) to (tb - 1, r + 1);
* a negative stabilization maps (tb, r) to (tb - 1, r - 1);
* signs are the one-character strings ``"+"`` and ``"-"``.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from ._values import Value, init, setters
from .errors import (
    MisplacedValley,
    NonIntegralValley,
    NotAMember,
    RangeInvalid,
)

POS = "+"
NEG = "-"
SIGNS = (POS, NEG)


def check_sign(sign: str) -> str:
    if sign not in SIGNS:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return sign


def r_step(sign: str) -> int:
    """r-direction of a stabilization: +1 for S+, -1 for S-."""
    return 1 if check_sign(sign) == POS else -1


def other_sign(sign: str) -> str:
    return NEG if check_sign(sign) == POS else POS


@functools.total_ordering
class Peak(Value):
    """A maximal point of a mountain range: no destabilization exists.

    Peaks are ordered by (tb, r).
    """

    __slots__ = __match_args__ = ("tb", "r")

    def __init__(self, tb: int, r: int) -> None:
        init(self, tb, r)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.tb, self.r) < (other.tb, other.r)
        return NotImplemented


class Valley(Value):
    """The top point shared by the cones of two adjacent peaks.

    ``left`` and ``right`` are the indices of those peaks in the range's
    peak list.
    """

    __slots__ = __match_args__ = ("tb", "r", "left", "right")

    def __init__(self, tb: int, r: int, left: int, right: int) -> None:
        init(self, tb, r, left, right)


class SimpleClass(Value):
    """An isotopy class of a Legendrian-simple knot: a named (tb, r) point."""

    __slots__ = ("knot_id", "tb", "r", "__dict__")  # the dict holds the cached text
    __match_args__ = ("knot_id", "tb", "r")

    def __init__(self, knot_id: str, tb: int, r: int) -> None:
        _set_knot_id(self, knot_id)
        _set_tb(self, tb)
        _set_r(self, r)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.knot_id, self.tb, self.r) == (other.knot_id, other.tb, other.r)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.knot_id, self.tb, self.r))

    @property
    def point(self) -> tuple[int, int]:
        return (self.tb, self.r)

    def stabilized(self, sign: str) -> "SimpleClass":
        """Apply one stabilization of the given sign.

        Total on classes: stabilizations never leave the mountain range.
        """
        return SimpleClass(self.knot_id, self.tb - 1, self.r + r_step(sign))

    @functools.cached_property
    def _text(self) -> str:
        """``A(tb,r)``, formatted on first use; not a field, so equality and hash ignore it."""
        return f"{self.knot_id}({self.tb},{self.r})"

    def __str__(self) -> str:
        return self._text


_set_knot_id, _set_tb, _set_r = setters(SimpleClass)


class Violation(Value):
    __slots__ = __match_args__ = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        init(self, code, message)


class ValidationReport(Value):
    """Outcome of validating a range; lists every violated invariant."""

    __slots__ = __match_args__ = ("knot_id", "violations")

    def __init__(self, knot_id: str, violations: tuple[Violation, ...]) -> None:
        init(self, knot_id, violations)

    @property
    def ok(self) -> bool:
        return not self.violations


class Membership(Value):
    """Membership verdict for a point: contained iff some peak cone holds it."""

    __slots__ = __match_args__ = ("contains", "peak_indices")

    def __init__(self, contains: bool, peak_indices: tuple[int, ...]) -> None:
        init(self, contains, peak_indices)


def _cone_coords(peak: Peak, tb: int, r: int) -> tuple[int, int] | None:
    """Stabilization counts (a, b) with S+^a S-^b (peak) = (tb, r), or None.

    a = ((peak.tb - tb) + (r - peak.r)) / 2 and b = ((peak.tb - tb) - (r -
    peak.r)) / 2; the point lies in the cone iff both are non-negative
    integers.
    """
    d_tb = peak.tb - tb
    d_r = r - peak.r
    if (d_tb + d_r) % 2:
        return None
    a = (d_tb + d_r) // 2
    b = (d_tb - d_r) // 2
    if a < 0 or b < 0:
        return None
    return (a, b)


class MountainRange(Value):
    """A validated-on-demand mountain range.

    ``peaks`` is ordered by strictly increasing r.  ``genus`` is an optional
    annotation used only for the Bennequin bound check; ``prime`` is a
    declared flag, never inferred.
    """

    __match_args__ = ("knot_id", "peaks", "genus", "prime")

    def __init__(
        self,
        knot_id: str,
        peaks: tuple[Peak, ...],
        genus: int | None = None,
        prime: bool = True,
    ) -> None:
        coerced = tuple(
            p if isinstance(p, Peak) else Peak(int(p[0]), int(p[1]))
            for p in peaks
        )
        init(self, knot_id, coerced, genus, prime)
        # The (tb, r) pairs as plain ints, which level slices and factor rows read.
        object.__setattr__(self, "_peak_points", tuple((p.tb, p.r) for p in coerced))

    # --- basic shape ---------------------------------------------------------

    @property
    def peak_count(self) -> int:
        return len(self.peaks)

    @property
    def top_tb(self) -> int:
        return max(p.tb for p in self.peaks)

    @property
    def parity(self) -> int:
        """Common parity of tb + r over all member points."""
        p = self.peaks[0]
        return (p.tb + p.r) % 2

    def max_peak(self) -> Peak:
        """The lexicographically largest peak by (tb, r); a fixed choice."""
        return max(self.peaks)

    def translated(self, dr: int, knot_id: str | None = None) -> "MountainRange":
        """The same shape shifted by dr in the r direction."""
        return MountainRange(
            knot_id if knot_id is not None else self.knot_id,
            tuple(Peak(p.tb, p.r + dr) for p in self.peaks),
            self.genus,
            self.prime,
        )

    # --- validation ------------------------------------------------------------

    @functools.cached_property
    def _report(self) -> ValidationReport:
        out: list[Violation] = []
        if not self.peaks:
            return ValidationReport(self.knot_id, (Violation("empty", "a range needs at least one peak"),))
        rs = [p.r for p in self.peaks]
        if any(rs[i] >= rs[i + 1] for i in range(len(rs) - 1)):
            out.append(Violation("order", f"peak r values must be strictly increasing, got {rs}"))
        parities = {(p.tb + p.r) % 2 for p in self.peaks}
        if len(parities) > 1:
            out.append(Violation("parity", "all peaks must share the parity of tb + r"))
        for i, pi in enumerate(self.peaks):
            for j, pj in enumerate(self.peaks):
                if i != j and pi.tb - pj.tb >= abs(pi.r - pj.r):
                    out.append(
                        Violation(
                            "domination",
                            f"peak {i} at ({pi.tb},{pi.r}) dominates peak {j} at ({pj.tb},{pj.r})",
                        )
                    )
        for i in range(len(self.peaks) - 1):
            try:
                self._valley_between(i)
            except NonIntegralValley:
                out.append(Violation("valley-nonintegral", f"valley between peaks {i} and {i + 1} is not a lattice point"))
            except MisplacedValley:
                out.append(Violation("valley-misplaced", f"valley between peaks {i} and {i + 1} does not sit strictly between them"))
        if self.genus is not None:
            bound = 2 * self.genus - 1
            for i, p in enumerate(self.peaks):
                if p.tb + abs(p.r) > bound:
                    out.append(
                        Violation(
                            "bennequin",
                            f"peak {i} at ({p.tb},{p.r}) exceeds the genus bound tb + |r| <= {bound}",
                        )
                    )
        return ValidationReport(self.knot_id, tuple(out))

    def validate(self) -> ValidationReport:
        """Check every structural invariant; report all violations found."""
        return self._report

    @property
    def is_valid(self) -> bool:
        return self.validate().ok

    def require_valid(self) -> "MountainRange":
        report = self.validate()
        if not report.ok:
            raise RangeInvalid(report.violations)
        return self

    # --- valleys -----------------------------------------------------------------

    def _valley_between(self, i: int) -> Valley:
        """Valley of the adjacent peaks i and i + 1.

        Writing the left peak as P and the right as Q, the valley is reached
        from P by a positive steps and from Q by b negative steps, so

            r = (P.r + Q.r + P.tb - Q.tb) / 2
            tb = (P.tb + P.r + Q.tb - Q.r) / 2

        and strict placement needs a >= 1 and b >= 1.
        """
        p, q = self.peaks[i], self.peaks[i + 1]
        if (p.tb + p.r + q.tb - q.r) % 2 or (p.r + q.r + p.tb - q.tb) % 2:
            raise NonIntegralValley(
                f"{self.knot_id}: peaks {i} and {i + 1} give a non-integral valley"
            )
        r = (p.r + q.r + p.tb - q.tb) // 2
        tb = (p.tb + p.r + q.tb - q.r) // 2
        a = r - p.r
        b = q.r - r
        if a < 1 or b < 1:
            raise MisplacedValley(
                f"{self.knot_id}: valley ({tb},{r}) of peaks {i} and {i + 1} is not strictly between them"
            )
        return Valley(tb, r, i, i + 1)

    def valleys(self) -> tuple[Valley, ...]:
        """One valley per adjacent peak pair, left to right."""
        return tuple(self._valley_between(i) for i in range(len(self.peaks) - 1))

    # --- membership ---------------------------------------------------------------

    def membership(self, tb: int, r: int) -> Membership:
        idx = tuple(
            i for i, p in enumerate(self.peaks) if _cone_coords(p, tb, r) is not None
        )
        return Membership(bool(idx), idx)

    def contains(self, tb: int, r: int) -> bool:
        return any(_cone_coords(p, tb, r) is not None for p in self.peaks)

    def point(self, tb: int, r: int) -> SimpleClass:
        """A member class of this range; raises NotAMember otherwise."""
        if not self.contains(tb, r):
            raise NotAMember(f"({tb},{r}) is not in the mountain range of {self.knot_id}")
        return SimpleClass(self.knot_id, tb, r)

    def level_points(self, tb: int) -> list[int]:
        """All member r values at the given tb level, ascending."""
        return _level_points(self._peak_points, tb)

    # --- moves ------------------------------------------------------------------------

    def destabilize(self, cls: SimpleClass, sign: str) -> SimpleClass | None:
        """Partial inverse of stabilization; None when the parent is absent."""
        if cls.knot_id != self.knot_id:
            raise NotAMember(f"class {cls} does not belong to {self.knot_id}")
        parent = SimpleClass(self.knot_id, cls.tb + 1, cls.r - r_step(sign))
        if self.contains(parent.tb, parent.r):
            return parent
        return None


def _level_points(peaks: tuple[tuple[int, int], ...], tb: int) -> list[int]:
    """The r values at level tb of the union of the cones below the (tb, r) peaks, ascending."""
    rs: set[int] = set()
    for p_tb, p_r in peaks:
        depth = p_tb - tb
        if depth >= 0:
            rs.update(range(p_r - depth, p_r + depth + 1, 2))
    return sorted(rs)


def make_range(
    knot_id: str,
    peaks: Iterable[Sequence[int]],
    genus: int | None = None,
    prime: bool = True,
) -> MountainRange:
    """Convenience constructor from (tb, r) pairs."""
    return MountainRange(knot_id, tuple(Peak(int(t), int(r)) for t, r in peaks), genus, prime)
