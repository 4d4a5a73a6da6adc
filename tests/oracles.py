"""Independent brute-force oracles used to cross-check the library.

Everything here recomputes results from first principles with a different
algorithm than the library uses:

* membership / valleys via breadth-first descent from the peaks instead of
  cone arithmetic;
* fiber classes via union-find over *ordered* factor tuples using only the
  adjacent-position generators (stabilization transfer between neighboring
  slots, transposition of neighboring equal-knot slots);
* member ids via ordered tuples, each slot filled in any order and the
  result sorted, instead of the library's canonical-order walk;
* canonical forms via direct enumeration of every (a, b, p, q)
  representation of a point;
* quotient windows via union-find over every canonical tuple under the
  relation moves themselves (:func:`relation_neighbors`) instead of the
  generator quotient;
* generator classes via the valley-depth join test ``a >= alpha`` on cone
  coordinates instead of the presence of both generators;
* a summand's peak multisets from ``combinations_with_replacement``, each
  summed copy by copy, instead of count vectors summed peak by peak;
* window assembly point by point, each class placed and found by a
  ``(tb, r, root)`` key, instead of a level row at a time;
* window verdicts read from the whole window down to the box floor,
  instead of a window built only down to the first nonsimple row;
* figures drawn from per-kind cells, one builder for ranges and one for
  windows, instead of one mark grid;
* each value type's repr, equality, hash, ordering and immutability from a
  dataclass twin made by ``make_dataclass``, instead of the type's own
  methods.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, make_dataclass

import legsum as L
from legsum import cli, sums

Point = tuple[int, int]


# --- mountain-range point sets by breadth-first descent ---------------------------


def bfs_members(peaks: list[Point], tb_min: int) -> set[Point]:
    """All lattice points reachable from the peaks by S+/S- steps."""
    seen: set[Point] = set()
    queue = deque((tb, r) for tb, r in peaks)
    while queue:
        tb, r = queue.popleft()
        if (tb, r) in seen or tb < tb_min:
            continue
        seen.add((tb, r))
        if tb - 1 >= tb_min:
            queue.append((tb - 1, r + 1))
            queue.append((tb - 1, r - 1))
    return seen


def bfs_level(peaks: list[Point], tb: int) -> list[Point]:
    members = bfs_members(peaks, tb)
    return sorted(pt for pt in members if pt[0] == tb)


def bfs_valleys(peaks: list[Point], tb_min: int) -> list[Point]:
    """Points whose two parents exist but share no common parent."""
    members = bfs_members(peaks, tb_min - 2)
    out = []
    for tb, r in members:
        if tb < tb_min:
            continue
        left, right = (tb + 1, r - 1), (tb + 1, r + 1)
        if left in members and right in members and (tb + 2, r) not in members:
            out.append((tb, r))
    return sorted(out)


# --- fiber classes over ordered tuples with adjacent generators -------------------


class _DSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def tuples_with_budget(
    slot_knots: list[str],
    members_by_knot: dict[str, set[Point]],
    top_by_knot: dict[str, int],
    tb: int,
    r: int,
) -> Iterator[tuple[Point, ...]]:
    """Every ordered tuple of member points, one per slot, at the sum point (tb, r).

    ``slot_knots`` lists the knot id of each tuple slot (repeats allowed).
    Each slot scans its knot's members level by level, from its top down to
    what the later slots' tops leave of the factor tb budget; no order is
    imposed between slots, so equal-knot slots give every permutation.
    """
    n = len(slot_knots)

    def extend(i: int, budget: int, prefix: tuple[Point, ...]):
        if i == n:
            if budget == 0 and sum(pt[1] for pt in prefix) == r:
                yield prefix
            return
        knot = slot_knots[i]
        rest_max = sum(top_by_knot[slot_knots[j]] for j in range(i + 1, n))
        for tb_i in range(top_by_knot[knot], budget - rest_max - 1, -1):
            for pt in members_by_knot[knot]:
                if pt[0] == tb_i:
                    yield from extend(i + 1, budget - tb_i, prefix + (pt,))

    return extend(0, tb - (n - 1), ())


def ordered_fiber_classes(
    slot_knots: list[str],
    members_by_knot: dict[str, set[Point]],
    top_by_knot: dict[str, int],
    tb: int,
    r: int,
) -> list[set[tuple[Point, ...]]]:
    """Partition ordered tuples at a sum point into equivalence classes.

    The tuples are those of :func:`tuples_with_budget`.  Only adjacent-slot
    moves are applied: a stabilization transfer between slots i and i+1
    (either direction, either sign) and a transposition of slots i and i+1
    when they carry the same knot.  The connected components of that move
    graph are returned as sets of ordered point tuples.
    """
    n = len(slot_knots)
    all_tuples = list(tuples_with_budget(slot_knots, members_by_knot, top_by_knot, tb, r))
    dsu = _DSU(all_tuples)
    universe = set(all_tuples)

    # down/up steps paired per sign: stabilizing one slot while destabilizing
    # the neighbor with the same sign keeps the summed invariants fixed
    sign_steps = (((-1, 1), (1, -1)), ((-1, -1), (1, 1)))
    for t in all_tuples:
        for i in range(n - 1):
            for down, up in sign_steps:
                for lo, hi in ((i, i + 1), (i + 1, i)):
                    t2 = list(t)
                    t2[lo] = (t[lo][0] + down[0], t[lo][1] + down[1])
                    t2[hi] = (t[hi][0] + up[0], t[hi][1] + up[1])
                    t2 = tuple(t2)
                    if t2 in universe:
                        dsu.union(t, t2)
            if slot_knots[i] == slot_knots[i + 1]:
                t3 = list(t)
                t3[i], t3[i + 1] = t3[i + 1], t3[i]
                t3 = tuple(t3)
                if t3 in universe:
                    dsu.union(t, t3)

    groups: dict[tuple[Point, ...], set[tuple[Point, ...]]] = {}
    for t in all_tuples:
        groups.setdefault(dsu.find(t), set()).add(t)
    return list(groups.values())


def canonical_signature(slot_knots: list[str], t: tuple[Point, ...]) -> str:
    """Library-comparable id string: sort equal-knot runs by (-tb, r)."""
    parts: list[str] = []
    i = 0
    while i < len(slot_knots):
        j = i
        while j < len(slot_knots) and slot_knots[j] == slot_knots[i]:
            j += 1
        block = sorted(t[i:j], key=lambda pt: (-pt[0], pt[1]))
        parts.extend(f"{slot_knots[i]}({pt[0]},{pt[1]})" for pt in block)
        i = j
    return "|".join(parts)


def fiber_signatures(
    slot_knots: list[str],
    members_by_knot: dict[str, set[Point]],
    top_by_knot: dict[str, int],
    tb: int,
    r: int,
) -> set[frozenset[str]]:
    """The fiber partition as sets of canonical member signatures."""
    classes = ordered_fiber_classes(slot_knots, members_by_knot, top_by_knot, tb, r)
    return {
        frozenset(canonical_signature(slot_knots, t) for t in cls) for cls in classes
    }


# --- canonical form representations ------------------------------------------------


def form_representations(
    peaks: list[Point], n: int, tb: int, r: int
) -> list[tuple[int, int, int, int]]:
    """Every (a, b, p, q) solving the point equations, sorted by q."""
    (tb1, r1), (tb2, r2) = peaks
    out = []
    for q in range(n + 1):
        p = n - q
        ab_sum = p * tb1 + q * tb2 + (n - 1) - tb
        ab_diff = r - p * r1 - q * r2
        if (ab_sum + ab_diff) % 2 != 0:
            continue
        a = (ab_sum + ab_diff) // 2
        b = (ab_sum - ab_diff) // 2
        if a >= 0 and b >= 0:
            out.append((a, b, p, q))
    return out


def all_window_points(peaks: list[Point], n: int, tb_min: int) -> set[Point]:
    """Points of the n-fold self-sum within the window, by direct sums."""
    floor = tb_min - (n - 1) - (n - 1) * max(p[0] for p in peaks)
    members = sorted(bfs_members(peaks, floor))
    pts = set()
    for combo in itertools.combinations_with_replacement(members, n):
        tb = sum(pt[0] for pt in combo) + (n - 1)
        if tb >= tb_min:
            pts.add((tb, sum(pt[1] for pt in combo)))
    return pts


# --- quotient windows by union-find over the relation moves -----------------------


def relation_neighbors(spec: L.SumSpec, t: L.TupleClass) -> set[L.TupleClass]:
    """Tuples one move away: destabilize factor i, stabilize factor j, same sign.

    Every neighbor has the same summed invariants.  The tuple itself is not
    reported as its own neighbor.
    """
    out: set[L.TupleClass] = set()
    fs = t.factors
    for i, fi in enumerate(fs):
        rng_i = spec.range_of(fi.knot_id)
        for sign in (L.POS, L.NEG):
            parent = rng_i.destabilize(fi, sign)
            if parent is None:
                continue
            for j, fj in enumerate(fs):
                if j == i:
                    continue
                moved = list(fs)
                moved[i] = parent
                moved[j] = fj.stabilized(sign)
                out.add(L.canonicalize_tuple(spec, moved))
    out.discard(t)
    return out


def relation_partition(spec: L.SumSpec, tuples: list[L.TupleClass]) -> list[L.PosetNode]:
    """Union-find partition of one fiber under the relation moves.

    Each class is a node keyed by its representative, its first member in
    canonical order; nodes come in representative order.
    """
    dsu = _DSU(tuples)
    for t in tuples:
        for nb in relation_neighbors(spec, t):
            dsu.union(t, nb)
    groups: dict[L.TupleClass, list[L.TupleClass]] = {}
    for t in tuples:
        groups.setdefault(dsu.find(t), []).append(t)
    classes = []
    for g in groups.values():
        members = tuple(sorted(g, key=L.TupleClass.sort_key))
        rep = members[0]
        classes.append(L.PosetNode(rep.id_string(), *rep.invariants(), members=members))
    classes.sort(key=lambda c: c.representative.sort_key())
    return classes


def relation_window(spec: L.SumSpec, tb_min: int) -> L.QuotientPoset:
    """The window down to tb_min assembled from :func:`relation_partition`.

    Edges lead from each representative to the class holding its first
    factor stabilized, found by canonicalizing that tuple.
    """
    buckets: dict[Point, list[L.TupleClass]] = {}
    for tb in range(spec.top_tb, tb_min - 1, -1):
        for t in L.iter_canonical_tuples(spec, tb - (spec.n - 1)):
            buckets.setdefault(t.invariants(), []).append(t)
    nodes = [
        node
        for pt in sorted(buckets, key=lambda pt: (-pt[0], pt[1]))
        for node in relation_partition(spec, buckets[pt])
    ]
    locate = {t: node.key for node in nodes for t in node.members}
    edges = []
    for node in nodes:
        if node.tb <= tb_min:
            continue
        rep = node.representative
        for sign in (L.POS, L.NEG):
            moved = (rep.factors[0].stabilized(sign),) + rep.factors[1:]
            edges.append(L.Edge(node.key, sign, locate[L.canonicalize_tuple(spec, moved)]))
    return L.QuotientPoset(nodes, edges, tb_min, spec.top_tb, top_is_global=True)


# --- generator classes by valley depth ---------------------------------------------


def peak_multisets(rng: L.MountainRange, count: int) -> list[tuple[tuple[int, ...], int, int]]:
    """Each multiset of ``count`` of the range's peaks: its copy counts, summed tb and summed r.

    The multisets come from ``combinations_with_replacement`` of the peak
    indices, and each sum takes one term per copy.
    """
    points = rng._peak_points
    return [
        (tuple(combo.count(j) for j in range(len(points))), sum(points[j][0] for j in combo), sum(points[j][1] for j in combo))
        for combo in itertools.combinations_with_replacement(range(len(points)), count)
    ]


def valley_depth_classes(spec: L.SumSpec, tb: int, r: int) -> set[frozenset[tuple[int, ...]]]:
    """The peak-multiset generators at (tb, r), partitioned by valley-depth joins.

    A generator is a flat tuple of copy counts, one slot per (summand, peak).
    It is present where its summed peak point's cone holds (tb, r), with cone
    coordinates (a, b).  Moving one copy across a valley whose left peak
    lies alpha positive steps above it joins the two generators when
    ``a >= alpha``.
    """
    per_summand = [
        [
            tuple(combo.count(j) for j in range(rng.peak_count))
            for combo in itertools.combinations_with_replacement(range(rng.peak_count), s.count)
        ]
        for s, rng in zip(spec.summands, spec.ranges)
    ]
    peaks = [p for rng in spec.ranges for p in rng.peaks]
    depths = []  # (slot of the valley's left peak, alpha)
    offset = 0
    for rng in spec.ranges:
        depths.extend((offset + v.left, rng.peaks[v.left].tb - v.tb) for v in rng.valleys())
        offset += rng.peak_count
    coords = {}
    for parts in itertools.product(*per_summand):
        gen = sum(parts, ())
        top = L.ranges.Peak(
            sum(c * p.tb for c, p in zip(gen, peaks)) + spec.n - 1,
            sum(c * p.r for c, p in zip(gen, peaks)),
        )
        ab = L.ranges._cone_coords(top, tb, r)
        if ab is not None:
            coords[gen] = ab
    dsu = _DSU(coords)
    for gen, (a, _b) in coords.items():
        for k, alpha in depths:
            if gen[k] and a >= alpha:
                dsu.union(gen, gen[:k] + (gen[k] - 1, gen[k + 1] + 1) + gen[k + 2:])
    groups: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for gen in coords:
        groups.setdefault(dsu.find(gen), set()).add(gen)
    return {frozenset(g) for g in groups.values()}


# --- quotient windows assembled point by point ---------------------------------------


def point_window(spec: L.SumSpec, tb_min: int) -> L.QuotientPoset:
    """The window of :func:`legsum.build_quotient`, assembled one point at a time.

    This is the library's earlier window builder.  Every point of every level
    is partitioned by ``sums._partition``, classes are placed by a
    ``(tb, r, root)`` key, and each child is found by that key, from the
    child's generator components, with no test of the box.  The classes and their members come from the library's own
    per-point partition; only the assembly of the window differs.
    """
    gens = sums._Generators(spec)
    order = [(tb, r) for tb in range(spec.top_tb, tb_min - 1, -1) for r in gens.level_points(tb)]
    nodes: list[L.PosetNode] = []
    roots = []
    where = {}
    for tb, r in order:
        _components, classes = sums._partition(gens, tb, r)
        if len(classes) > 1:
            classes.sort(key=lambda c: c[1].key)
        for root, node in classes:
            where[tb, r, root] = len(nodes)
            roots.append(root)
            nodes.append(node)
    steps: dict[str, list[list[int]]] = {L.POS: [], L.NEG: []}
    for root, node in zip(roots, nodes):
        for kids, step in ((steps[L.POS], 1), (steps[L.NEG], -1)):
            if node.tb == tb_min:
                kids.append([])
                continue
            child = (node.tb - 1, node.r + step)
            kids.append([where[(*child, gens.components(*child)[root])]])
    return L.QuotientPoset(nodes, steps, tb_min, spec.top_tb, top_is_global=True)


# --- window verdicts from the whole window --------------------------------------------


def full_window_verdict(spec: L.SumSpec, tb_min: int) -> L.WindowVerdict:
    """:func:`legsum.simplicity_in_window` read from the window built down to ``max(tb_min, F0)``.

    This is the library's earlier verdict: no criterion and no box scan
    choose the window's floor.
    """
    poset = L.build_quotient(spec, max(tb_min, sums._box_floor(spec)))
    candidates = L.find_nmax(poset)
    if not candidates:
        return L.WindowVerdict(True, tb_min, poset.top_tb, None)
    pt = candidates[0]
    first, second = poset.fiber(*pt)[:2]
    return L.WindowVerdict(False, tb_min, poset.top_tb, L.WitnessPair(pt, first.representative, second.representative))


# --- figures drawn from per-kind cells -----------------------------------------------


@dataclass(frozen=True)
class _Cell:
    tb: int
    r: int
    kind: str  # "peak" | "valley" | "member" | "multi"
    label: str = ""


def _range_cells(rng: L.MountainRange, tb_min: int) -> list[_Cell]:
    rng.require_valid()
    peak_pts = {(p.tb, p.r) for p in rng.peaks}
    valley_pts = {(v.tb, v.r) for v in rng.valleys()}
    cells = []
    for tb in range(rng.top_tb, tb_min - 1, -1):
        for r in rng.level_points(tb):
            if (tb, r) in peak_pts:
                kind = "peak"
            elif (tb, r) in valley_pts:
                kind = "valley"
            else:
                kind = "member"
            cells.append(_Cell(tb, r, kind))
    return cells


def _poset_cells(poset: L.QuotientPoset) -> list[_Cell]:
    peak_pts = {n.point for n in L.detect_peaks(poset)}
    valley_pts = {n.point for n in L.detect_valleys(poset)}
    cells = []
    for pt in poset.points():
        size = poset.fiber_size(*pt)
        if size > 1:
            cells.append(_Cell(pt[0], pt[1], "multi", str(size) if size <= 9 else "#"))
        elif pt in peak_pts:
            cells.append(_Cell(pt[0], pt[1], "peak"))
        elif pt in valley_pts:
            cells.append(_Cell(pt[0], pt[1], "valley"))
        else:
            cells.append(_Cell(pt[0], pt[1], "member"))
    return cells


def _cells_of(model, spec: L.RenderSpec) -> tuple[list[_Cell], int, int]:
    """Cells plus the (top, floor) rows of the drawing window."""
    if isinstance(model, L.MountainRange):
        top = model.top_tb
        tb_min = spec.tb_min if spec.tb_min is not None else top - 8
        return _range_cells(model, tb_min), top, tb_min
    if isinstance(model, L.QuotientPoset):
        return _poset_cells(model), model.top_tb, model.tb_min
    raise TypeError(f"cannot render {type(model).__name__}")


_ASCII_MARK = {"peak": "^", "valley": "v", "member": "o"}

_EMPTY_ASCII = "(empty diagram)\n"

_EMPTY_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="200" height="60" '
    'viewBox="0 0 200 60">\n'
    '<rect width="200" height="60" fill="#ffffff"/>\n'
    '<text x="12" y="34" font-family="monospace" font-size="13">(empty diagram)</text>\n'
    "</svg>\n"
)


def cell_render_ascii(model, spec: L.RenderSpec | None = None) -> str:
    """:func:`legsum.render_ascii` as the library drew it from per-kind cells.

    Ranges and windows each have their own cell builder, and the marks,
    bounds and row parities are read back off the cells.
    """
    spec = spec or L.RenderSpec("ascii")
    cells, top, tb_min = _cells_of(model, spec)
    if not cells or tb_min > top:
        return _EMPTY_ASCII
    by_point = {(c.tb, c.r): c for c in cells}
    parity_by_row = {c.tb: (c.tb + c.r) % 2 for c in cells}
    r_lo = min(c.r for c in cells)
    r_hi = max(c.r for c in cells)
    label_w = max(len(str(tb)) for tb in range(tb_min, top + 1))
    lines = []
    for tb in range(top, tb_min - 1, -1):
        row = []
        for r in range(r_lo, r_hi + 1):
            c = by_point.get((tb, r))
            if c is not None:
                row.append(c.label if c.kind == "multi" else _ASCII_MARK[c.kind])
            elif tb in parity_by_row and (tb + r) % 2 == parity_by_row[tb]:
                row.append(".")
            else:
                row.append(" ")
        lines.append(f"tb {str(tb).rjust(label_w)} |{''.join(row)}|")
    width = r_hi - r_lo + 1
    lines.append(f"tb {' ' * label_w} +{'-' * width}+")
    lines.append(f"   {' ' * label_w}  r = {r_lo} .. {r_hi}")
    return "\n".join(lines) + "\n"


_X_UNIT = 14
_Y_UNIT = 26
_PAD = 40
_COLORS = {"peak": "#c0392b", "valley": "#2471a3", "member": "#7f8c8d", "multi": "#8e44ad"}


def cell_render_svg(model, spec: L.RenderSpec | None = None) -> str:
    """:func:`legsum.render_svg` as the library drew it from per-kind cells, sorted twice."""
    spec = spec or L.RenderSpec("svg")
    cells, top, tb_min = _cells_of(model, spec)
    if not cells or tb_min > top:
        return _EMPTY_SVG
    r_lo = min(c.r for c in cells)
    r_hi = max(c.r for c in cells)

    def x(r: int) -> int:
        return _PAD + (r - r_lo) * _X_UNIT

    def y(tb: int) -> int:
        return _PAD + (top - tb) * _Y_UNIT

    width = 2 * _PAD + (r_hi - r_lo) * _X_UNIT
    height = 2 * _PAD + (top - tb_min) * _Y_UNIT
    points = {(c.tb, c.r) for c in cells}
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for c in sorted(cells, key=lambda c: (-c.tb, c.r)):
        for dr in (-1, 1):
            if (c.tb - 1, c.r + dr) in points:
                out.append(
                    f'<line x1="{x(c.r)}" y1="{y(c.tb)}" x2="{x(c.r + dr)}" '
                    f'y2="{y(c.tb - 1)}" stroke="#d5d8dc" stroke-width="1"/>'
                )
    for c in sorted(cells, key=lambda c: (-c.tb, c.r)):
        cx, cy = x(c.r), y(c.tb)
        color = _COLORS[c.kind]
        if c.kind == "peak":
            out.append(
                f'<polygon points="{cx},{cy - 6} {cx - 6},{cy + 5} {cx + 6},{cy + 5}" '
                f'fill="{color}"/>'
            )
        elif c.kind == "valley":
            out.append(
                f'<polygon points="{cx},{cy + 6} {cx - 6},{cy - 5} {cx + 6},{cy - 5}" '
                f'fill="{color}"/>'
            )
        elif c.kind == "multi":
            out.append(
                f'<rect x="{cx - 7}" y="{cy - 7}" width="14" height="14" fill="{color}"/>'
            )
            out.append(
                f'<text x="{cx}" y="{cy + 4}" text-anchor="middle" font-family="monospace" '
                f'font-size="11" fill="#ffffff">{c.label}</text>'
            )
        else:
            out.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="{color}"/>')
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
    return "\n".join(out) + "\n"


# --- dataclass twins of the value types ----------------------------------------------

# Each value type's fields, in order, as its frozen dataclass declared them,
# (name, default) where there was a default.  ``Peak`` was the one ordered
# dataclass and ``cli.Result`` the one mutable (so unhashable) one.
VALUE_FIELDS = {
    L.Peak: ["tb", "r"],
    L.Valley: ["tb", "r", "left", "right"],
    L.SimpleClass: ["knot_id", "tb", "r"],
    L.Violation: ["code", "message"],
    L.ValidationReport: ["knot_id", "violations"],
    L.Membership: ["contains", "peak_indices"],
    L.MountainRange: ["knot_id", "peaks", ("genus", None), ("prime", True)],
    L.Summand: ["knot_id", "count"],
    L.SumSpec: ["summands", "ranges"],
    L.TupleClass: ["factors"],
    L.Edge: ["parent", "sign", "child"],
    L.DichotomyVerdict: ["point", "fiber_size", "case"],
    L.NonsimpleReport: ["tb_min", "top_tb", "nonsimple", "nmax"],
    L.CriterionVerdict: ["simple", "matched_case", "peak_counts"],
    L.WitnessPair: ["point", "tuple_a", "tuple_b"],
    L.WindowVerdict: ["simple_in_window", "tb_min", "top_tb", "witness"],
    L.CanonicalForm: ["a", "b", "p", "q"],
    L.XYInvariants: ["x", "y"],
    L.PathLetter: ["epsilon", ("eta", 1)],
    L.PathWord: [("letters", ())],
    L.RenderSpec: [("format", "ascii"), ("tb_min", None)],
    cli.Result: ["payload", "text", ("figure", None), ("code", 0), ("document", None)],
}


def dataclass_twin(cls: type) -> type:
    """A dataclass of the same name and fields as the value type ``cls`` had."""
    fields = [f if isinstance(f, str) else (f[0], object, field(default=f[1])) for f in VALUE_FIELDS[cls]]
    return make_dataclass(cls.__name__, fields, frozen=cls is not cli.Result, order=cls is L.Peak)
