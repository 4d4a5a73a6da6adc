"""Deterministic diagrams of mountain ranges, connected sums and quotient windows.

Axis convention: tb runs vertically (top row first), r horizontally.  Both
formats draw one grid: each member point, in window order, with one mark.
A point of several classes is marked by its fiber size (``#`` above 9),
which wins over ``^`` for a peak or parentless node, then ``v`` for a
valley, then ``o``.  ASCII prints the marks, and ``.`` at the other cells of
a row's parity.  SVG draws them as a triangle, an inverted triangle, a
circle or a labelled square, assembled by hand from a fixed template so
identical inputs give identical bytes.

A knot and a :class:`~legsum.sums.SumSpec` are drawn with no window, by one
path: their points are the level rows, read from the top down through the
point budget that windows read theirs through
(:func:`legsum.sums._level_rows`), each row made once.  A sum's fiber sizes
are the class counts of the boxed points of those rows
(:meth:`legsum.sums._Generators.components`), since outside the box every
point has one class; a knot is the case where every point has one class.
A one-class point's mark then needs only which points are present, and
which of them have several classes.  Every class at a point has one child
per sign, one row down, so every class at an upper neighbour
(tb + 1, r -+ 1) is a parent of the one class at (tb, r), and that class
has no other parent.  Hence:

* it is a peak iff neither (tb + 1, r -+ 1) is present;
* it is a valley iff an upper neighbour has several classes, or both are
  present and (tb + 2, r) is not.  Two classes at one point never share a
  parent, since the parent would have two children of one sign.  Two
  one-class upper neighbours can share only a parent at (tb + 2, r), and
  every class there is a parent of both.  With fewer than two parents there
  is no valley.

The rule needs no bound on tb: the top is global, so the row above it is
empty, and a point just under the top with both upper neighbours present is
a valley.  For a knot these marks are its peaks and its valleys
(:meth:`~legsum.ranges.MountainRange.valleys`); for a sum they are those
that :func:`~legsum.poset.detect_peaks` and
:func:`~legsum.poset.detect_valleys` find on its window down to the same
floor.  Those two still mark a :class:`~legsum.poset.QuotientPoset`, such as
a hand-built window.  A figure over :data:`legsum.sums._MAX_POINTS` points is
refused with a domain error at the row that passes the limit, before any
mark, and no row below it is made.
"""

from __future__ import annotations

from ._values import Value, init
from .poset import QuotientPoset, detect_peaks, detect_valleys, nonsimple_points
from .ranges import MountainRange
from .sums import SumSpec, _Generators, _level_rows

ASCII = "ascii"
SVG = "svg"


class RenderSpec(Value):
    """How to draw: format and the window floor (inclusive)."""

    __slots__ = __match_args__ = ("format", "tb_min")

    def __init__(self, format: str = ASCII, tb_min: int | None = None) -> None:
        if format not in (ASCII, SVG):
            raise ValueError(f"format must be {ASCII!r} or {SVG!r}, got {format!r}")
        init(self, format, tb_min)


def _grid(model, spec: RenderSpec) -> tuple[dict[tuple[int, int], str], int, int]:
    """Each drawn point's mark, in window order, plus the (top, floor) rows.

    A point of several classes is marked by its fiber size, ``#`` above 9;
    any other point by ``^`` for a peak (a parentless node), ``v`` for a
    valley and ``o`` otherwise.  A knot's and a sum's points come from
    :func:`_row_points`, a window's from its nodes.
    """
    if isinstance(model, QuotientPoset):
        top, tb_min = model.top_tb, model.tb_min
        peaks = {n.point for n in detect_peaks(model)}
        valleys = {n.point for n in detect_valleys(model)}
        crowded = dict(nonsimple_points(model))
        points = ((pt, crowded.get(pt, 1), pt in peaks, pt in valleys) for pt in model.points())
    elif isinstance(model, (SumSpec, MountainRange)):
        top = model.top_tb
        tb_min = spec.tb_min if spec.tb_min is not None else top - 8
        points = _row_points(model, top, tb_min)
    else:
        raise TypeError(f"cannot render {type(model).__name__}")
    grid = {}
    for pt, size, peak, valley in points:
        grid[pt] = (str(size) if size <= 9 else "#") if size > 1 else "^" if peak else "v" if valley else "o"
    return grid, top, tb_min


def _row_points(model: SumSpec | MountainRange, top: int, tb_min: int):
    """Each point of a knot or a sum from ``top`` down to ``tb_min``, with its fiber size and whether it is a peak and a valley.

    The rows are read through the point budget
    (:func:`legsum.sums._level_rows`), each made once, all before the first
    mark.  A sum's fiber sizes are the class counts of the boxed points of
    those rows; a knot's points have one class.  The mark rules are in the
    module docstring.
    """
    gens = _Generators(model) if isinstance(model, SumSpec) else None
    level_points = gens.level_points if gens else model.require_valid().level_points
    above: set[int] = set()  # the r values of the rows tb + 1 and tb + 2
    two_above: set[int] = set()
    crowded: dict[int, int] = {}  # the fiber sizes over 1 of the row, by r
    for tb, row in list(_level_rows(level_points, top, tb_min, "figure")):
        crowded_above, crowded = crowded, {}
        if gens:
            crowded = {r: size for r in row[gens.box_cut(tb, row)] if (size := len(set(gens.components(tb, r).values()))) > 1}
        for r in row:
            yield (tb, r), crowded.get(r, 1), r - 1 not in above and r + 1 not in above, (
                r - 1 in crowded_above
                or r + 1 in crowded_above
                or (r - 1 in above and r + 1 in above and r not in two_above)
            )
        two_above, above = above, set(row)


# --- ascii ---------------------------------------------------------------------

_EMPTY_ASCII = "(empty diagram)\n"

_EMPTY_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="200" height="60" '
    'viewBox="0 0 200 60">\n'
    '<rect width="200" height="60" fill="#ffffff"/>\n'
    '<text x="12" y="34" font-family="monospace" font-size="13">(empty diagram)</text>\n'
    "</svg>\n"
)


def render_ascii(model, spec: RenderSpec | None = None) -> str:
    return _ascii(*_grid(model, spec or RenderSpec(ASCII)))


def _ascii(grid: dict[tuple[int, int], str], top: int, tb_min: int) -> str:
    if not grid:
        return _EMPTY_ASCII
    parity = {tb: (tb + r) % 2 for tb, r in grid}
    r_lo, r_hi = min(r for _tb, r in grid), max(r for _tb, r in grid)
    label_w = max(len(str(tb)) for tb in range(tb_min, top + 1))
    lines = []
    for tb in range(top, tb_min - 1, -1):
        row = "".join(
            grid.get((tb, r)) or ("." if (tb + r) % 2 == parity.get(tb) else " ")
            for r in range(r_lo, r_hi + 1)
        )
        lines.append(f"tb {str(tb).rjust(label_w)} |{row}|")
    lines.append(f"tb {' ' * label_w} +{'-' * (r_hi - r_lo + 1)}+")
    lines.append(f"   {' ' * label_w}  r = {r_lo} .. {r_hi}")
    lines.append("")  # the closing newline, with no second copy of the text
    return "\n".join(lines)


# --- svg ------------------------------------------------------------------------

_X_UNIT = 14
_Y_UNIT = 26
_PAD = 40


def render_svg(model, spec: RenderSpec | None = None) -> str:
    return _svg(*_grid(model, spec or RenderSpec(SVG)))


def _svg(grid: dict[tuple[int, int], str], top: int, tb_min: int) -> str:
    if not grid:
        return _EMPTY_SVG
    r_lo, r_hi = min(r for _tb, r in grid), max(r for _tb, r in grid)

    def x(r: int) -> int:
        return _PAD + (r - r_lo) * _X_UNIT

    def y(tb: int) -> int:
        return _PAD + (top - tb) * _Y_UNIT

    width = 2 * _PAD + (r_hi - r_lo) * _X_UNIT
    height = 2 * _PAD + (top - tb_min) * _Y_UNIT
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for tb, r in grid:
        for dr in (-1, 1):
            if (tb - 1, r + dr) in grid:
                out.append(
                    f'<line x1="{x(r)}" y1="{y(tb)}" x2="{x(r + dr)}" '
                    f'y2="{y(tb - 1)}" stroke="#d5d8dc" stroke-width="1"/>'
                )
    for (tb, r), mark in grid.items():
        cx, cy = x(r), y(tb)
        if mark == "^":
            out.append(f'<polygon points="{cx},{cy - 6} {cx - 6},{cy + 5} {cx + 6},{cy + 5}" fill="#c0392b"/>')
        elif mark == "v":
            out.append(f'<polygon points="{cx},{cy + 6} {cx - 6},{cy - 5} {cx + 6},{cy - 5}" fill="#2471a3"/>')
        elif mark == "o":
            out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="#7f8c8d"/>')
        else:
            out.append(f'<rect x="{cx - 7}" y="{cy - 7}" width="14" height="14" fill="#8e44ad"/>')
            out.append(
                f'<text x="{cx}" y="{cy + 4}" text-anchor="middle" font-family="monospace" '
                f'font-size="11" fill="#ffffff">{mark}</text>'
            )
    for tb in range(top, tb_min - 1, -1):
        out.append(
            f'<text x="{_PAD - 28}" y="{y(tb) + 4}" font-family="monospace" '
            f'font-size="11" fill="#2c3e50">{tb}</text>'
        )
    for r in (r_lo, 0, r_hi):
        if r_lo <= r <= r_hi:
            out.append(
                f'<text x="{x(r)}" y="{height - 10}" text-anchor="middle" '
                f'font-family="monospace" font-size="11" fill="#2c3e50">{r}</text>'
            )
    out.append("</svg>")
    out.append("")  # the closing newline, with no second copy of the text
    return "\n".join(out)


def _figure(model, spec: RenderSpec) -> tuple[bytes, int]:
    """:func:`render`'s bytes, and the number of points the figure draws."""
    grid, top, tb_min = _grid(model, spec)
    draw = _svg if spec.format == SVG else _ascii
    return draw(grid, top, tb_min).encode("utf-8"), len(grid)


def render(model, spec: RenderSpec) -> bytes:
    """Draw a range, a sum or a quotient window in the requested format."""
    return _figure(model, spec)[0]
