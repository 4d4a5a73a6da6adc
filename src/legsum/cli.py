"""Command-line interface.

One subcommand per operation; ``--format json`` switches a command's output
to a canonical JSON document, the default is tab-delimited text.  Figures
from ``render`` go to ``--out`` when given, with the summary in the chosen
format on stdout; otherwise the figure goes to stdout, whatever
``--format`` says.  Exit codes:
0 success, 1 domain error (bad input, impossible request), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import documents
from ._values import Value
from .documents import dump_json, to_jsonable
from .render import ASCII, SVG, RenderSpec, _figure
from .errors import LegsumError, RangeInvalid
from .paths import find_connecting_path, format_word
from .poset import detect_valleys
from .ranges import MountainRange
from .simplicity import (
    canonical_form,
    criterion,
    nonsimplicity_witness,
    peak_count_formula,
    simplicity_in_window,
    xy_invariants,
)
from .sums import SumSpec, _box_report, build_quotient, enumerate_fiber, peaks_of_sum


class Result(Value):
    """What a command returns to :func:`main`; unlike legsum's value types, it is mutable and unhashable."""

    __match_args__ = ("payload", "text", "figure", "code", "document")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        payload: dict,
        text: str,
        figure: bytes | None = None,
        code: int = 0,
        document: str | None = None,  # the JSON document, when the command writes it itself
    ) -> None:
        self.payload = payload
        self.text = text
        self.figure = figure
        self.code = code
        self.document = document


def _rows(*rows) -> str:
    return "\n".join("\t".join(str(c) for c in row) for row in rows) + "\n"


# --- input resolution -------------------------------------------------------------


def _resolve_knot(value: str) -> MountainRange:
    """A knot argument is a document file or a catalog name; either way the range is valid."""
    # os.path.isfile, not Path.is_file: a value longer than the OS allows for
    # a file name is no file, while Path.is_file raises ENAMETOOLONG on it.
    if os.path.isfile(value):
        p = Path(value)
        return documents.parse_knot_document(p.read_bytes(), source=str(p))
    cat = documents.catalog()
    if value in cat:
        return cat[value]
    raise LegsumError(f"{value!r} is neither a knot file nor a catalog name")


def _registry(args) -> dict[str, MountainRange]:
    reg = documents.catalog()
    for path in args.knot or []:
        rng = _resolve_knot(path)
        reg[rng.knot_id] = rng
    return reg


def _load_spec(args, parser: argparse.ArgumentParser) -> SumSpec:
    if not args.spec:
        parser.error("--spec is required here")
    reg = _registry(args)
    if os.path.isfile(args.spec):
        p = Path(args.spec)
        return documents.parse_sum_document(p.read_bytes(), reg, source=str(p))
    return documents.parse_inline_sum(args.spec, reg)


def _knot_arg(args, parser: argparse.ArgumentParser) -> str:
    knots = args.knot or []
    if len(knots) != 1:
        parser.error("--knot must be given exactly once here")
    return knots[0]


def _window_floor(args, top_tb: int) -> int:
    if args.depth < 0:
        raise LegsumError(f"--depth must be non-negative, got {args.depth}")
    return args.tb_min if args.tb_min is not None else top_tb - args.depth


def _parse_endpoint(text: str, spec: SumSpec, flag: str):
    try:
        halves = text.split(";")
        pts = [tuple(int(v) for v in h.split(",")) for h in halves]
        if len(pts) != 2 or any(len(pt) != 2 for pt in pts):
            raise ValueError
    except ValueError:
        raise LegsumError(
            f"{flag} must look like 'tb,r;tb,r' (one pair per summand), got {text!r}"
        ) from None
    return [rng.point(*pt) for rng, pt in zip(spec.ranges, pts)]


# --- subcommand handlers ----------------------------------------------------------------


def cmd_validate(args, parser) -> Result:
    value = _knot_arg(args, parser)
    try:
        rng = _resolve_knot(value)
    except RangeInvalid as exc:
        payload = {
            "source": value,
            "valid": False,
            "violations": [{"code": v.code, "message": v.message} for v in exc.violations],
        }
        text = _rows(["valid", "false"], *(["violation", v.code, v.message] for v in exc.violations))
        return Result(payload, text, code=1)
    report = rng.validate()
    payload = {"source": value, **to_jsonable(report)}
    return Result(payload, _rows(["knot", rng.knot_id], ["valid", "true"]))


def cmd_peaks(args, parser) -> Result:
    if args.spec:
        spec = _load_spec(args, parser)
        pts = peaks_of_sum(spec)
        payload = {
            "spec": spec.label(),
            "count": len(pts),
            "formula": peak_count_formula(spec),
            "peaks": [
                {"point": list(t.invariants()), "factors": [documents.factor_obj(f) for f in t.factors]}
                for t in pts
            ],
        }
        rows = [["spec", spec.label()], ["count", len(pts)]]
        rows += [["peak", *t.invariants(), t.id_string()] for t in pts]
        return Result(payload, _rows(*rows))
    rng = _resolve_knot(_knot_arg(args, parser))
    payload = {"knot": rng.knot_id, "peaks": [[p.tb, p.r] for p in rng.peaks]}
    rows = [["knot", rng.knot_id]] + [["peak", p.tb, p.r] for p in rng.peaks]
    return Result(payload, _rows(*rows))


def cmd_valleys(args, parser) -> Result:
    if args.spec:
        spec = _load_spec(args, parser)
        poset = build_quotient(spec, _window_floor(args, spec.top_tb))
        vals = detect_valleys(poset)
        payload = {
            "spec": spec.label(),
            "tb_min": poset.tb_min,
            "valleys": [{"point": [n.tb, n.r], "id": n.key} for n in vals],
        }
        rows = [["spec", spec.label()]] + [["valley", n.tb, n.r, n.key] for n in vals]
        return Result(payload, _rows(*rows))
    rng = _resolve_knot(_knot_arg(args, parser))
    vals = rng.valleys()
    payload = {"knot": rng.knot_id, "valleys": [to_jsonable(v) for v in vals]}
    rows = [["knot", rng.knot_id]] + [["valley", v.tb, v.r, f"peaks {v.left},{v.right}"] for v in vals]
    return Result(payload, _rows(*rows))


def cmd_sum(args, parser) -> Result:
    spec = _load_spec(args, parser)
    poset = build_quotient(spec, _window_floor(args, spec.top_tb))
    if args.format == "json":
        return Result({}, "", document=documents.dump_sum_json(spec.label(), poset))
    # Node rows first: a one-class node's members, read for its size, then
    # give its key, so its point is walked once.  The members, not the ids:
    # text prints no member id, so none is formatted.
    nodes = [["node", n.tb, n.r, n.size, n.key] for n in poset]
    rows = [
        ["spec", spec.label()],
        ["top_tb", poset.top_tb],
        ["tb_min", poset.tb_min],
        ["nodes", len(poset)],
        ["edges", poset.edge_count],
    ]
    return Result({}, _rows(*rows, *nodes))


def cmd_fiber(args, parser) -> Result:
    spec = _load_spec(args, parser)
    if args.tb is None or args.r is None:
        parser.error("--tb and --r are required here")
    classes = enumerate_fiber(spec, args.tb, args.r)
    if args.format == "json":
        payload = {
            "spec": spec.label(),
            "point": [args.tb, args.r],
            "class_count": len(classes),
            "classes": [documents.class_obj(c) for c in classes],
        }
        return Result(payload, "")
    # The bytes _rows would write, joined straight from the ids with no per-cell str().
    lines = [f"spec\t{spec.label()}", f"point\t{args.tb}\t{args.r}", f"classes\t{len(classes)}"]
    for i, c in enumerate(classes):
        ids = c.ids  # before the key, which a one-class node then reads off them
        lines.append(f"class\t{i}\t{len(ids)}\t{c.key}")
        member = f"member\t{i}\t"
        lines += [member + x for x in ids]
    lines.append("")
    return Result({}, "\n".join(lines))


def cmd_simple(args, parser) -> Result:
    spec = _load_spec(args, parser)
    cv = criterion(spec)
    wv = simplicity_in_window(spec, _window_floor(args, spec.top_tb))
    payload = {
        "spec": spec.label(),
        "criterion": to_jsonable(cv),
        "window": to_jsonable(wv),
    }
    rows = [
        ["spec", spec.label()],
        ["criterion_simple", str(cv.simple).lower()],
        ["matched_case", cv.matched_case],
        ["simple_in_window", str(wv.simple_in_window).lower()],
        ["tb_min", wv.tb_min],
    ]
    if wv.witness:
        rows.append(["witness_point", *wv.witness.point])
        rows.append(["witness_a", wv.witness.tuple_a.id_string()])
        rows.append(["witness_b", wv.witness.tuple_b.id_string()])
    return Result(payload, _rows(*rows))


def cmd_criterion(args, parser) -> Result:
    spec = _load_spec(args, parser)
    cv = criterion(spec)
    payload = {"spec": spec.label(), **to_jsonable(cv)}
    rows = [
        ["spec", spec.label()],
        ["simple", str(cv.simple).lower()],
        ["matched_case", cv.matched_case],
    ]
    rows += [["summand", k, c, p] for k, c, p in cv.peak_counts]
    return Result(payload, _rows(*rows))


def cmd_witness(args, parser) -> Result:
    spec = _load_spec(args, parser)
    w = nonsimplicity_witness(spec)
    payload = {"spec": spec.label(), **to_jsonable(w)}
    rows = [
        ["spec", spec.label()],
        ["point", *w.point],
        ["tuple_a", w.tuple_a.id_string()],
        ["tuple_b", w.tuple_b.id_string()],
    ]
    return Result(payload, _rows(*rows))


def _two_peak_args(args, parser) -> tuple[MountainRange, int]:
    spec = _load_spec(args, parser)
    if len(spec.summands) != 1:
        raise LegsumError("this command needs a single-summand spec (one knot, multiplicity n)")
    return spec.ranges[0], spec.summands[0].count


def cmd_canonical(args, parser) -> Result:
    rng, n = _two_peak_args(args, parser)
    if args.tb is None or args.r is None:
        parser.error("--tb and --r are required here")
    form = canonical_form(rng, n, args.tb, args.r)
    payload = {
        "knot": rng.knot_id,
        "n": n,
        "point": [args.tb, args.r],
        "form": to_jsonable(form) if form else None,
    }
    if form:
        text = _rows(["a", form.a], ["b", form.b], ["p", form.p], ["q", form.q])
    else:
        text = _rows(["form", "absent"])
    return Result(payload, text)


def cmd_xy(args, parser) -> Result:
    rng, n = _two_peak_args(args, parser)
    if args.tb is None or args.r is None:
        parser.error("--tb and --r are required here")
    inv = xy_invariants(rng, n, args.tb, args.r)
    payload = {
        "knot": rng.knot_id,
        "n": n,
        "point": [args.tb, args.r],
        **to_jsonable(inv),
    }
    return Result(payload, _rows(["x", inv.x], ["y", inv.y]))


def cmd_path_search(args, parser) -> Result:
    spec = _load_spec(args, parser)
    if len(spec.summands) != 2 or any(s.count != 1 for s in spec.summands):
        raise LegsumError("path-search needs a spec with exactly two summands of count 1")
    if not args.start or not args.end:
        parser.error("--start and --end are required here")
    start = _parse_endpoint(args.start, spec, "--start")
    end = _parse_endpoint(args.end, spec, "--end")
    tb_min = _window_floor(args, spec.top_tb)
    floor = min(spec.factor_floor(tb_min, s.knot_id) for s in spec.summands)
    max_len = args.max_len if args.max_len is not None else 24
    if max_len < 0:
        raise LegsumError(f"--max-len must be non-negative, got {max_len}")
    word = find_connecting_path(
        spec.ranges[0], spec.ranges[1], start[0], end[0], start[1], end[1], floor, max_len
    )
    payload = {
        "spec": spec.label(),
        "start": [[c.tb, c.r] for c in start],
        "end": [[c.tb, c.r] for c in end],
        "tb_floor": floor,
        "max_len": max_len,
        "found": word is not None,
        "word": format_word(word) if word is not None else None,
        "length": len(word) if word is not None else None,
    }
    if word is not None:
        text = _rows(["found", "true"], ["word", format_word(word)], ["length", len(word)])
    else:
        text = _rows(["found", "false"], ["note", f"no word within length {max_len} and floor {floor}"])
    return Result(payload, text)


def cmd_nmax(args, parser) -> Result:
    spec = _load_spec(args, parser)
    # Read off the box, with no window: every nonsimple point and all of its
    # ancestors are boxed, and the classes there are the components of
    # their generator joins.  sums._box_report collects the box scan that
    # `simple` stops at its first point.  No class is named, so no tuple is
    # walked.
    report = _box_report(spec, _window_floor(args, spec.top_tb))
    payload = {"spec": spec.label(), **to_jsonable(report)}
    rows = [["spec", spec.label()], ["tb_min", report.tb_min], ["simple", str(report.simple).lower()]]
    rows += [["candidate", *v.point, v.fiber_size, v.case] for v in report.nmax]
    return Result(payload, _rows(*rows))


def cmd_render(args, parser) -> Result:
    fmt = args.render or ASCII
    if args.spec:
        # Drawn from the sum's level rows and their boxed class counts, with no window.
        model = _load_spec(args, parser)
        label = model.label()
    else:
        model = _resolve_knot(_knot_arg(args, parser))
        label = model.knot_id
    tb_min = _window_floor(args, model.top_tb)
    figure, points = _figure(model, RenderSpec(fmt, tb_min))
    payload = {"model": label, "format": fmt, "tb_min": tb_min, "points": points, "out": args.out}
    text = _rows(["model", label], ["format", fmt], ["points", points], ["out", args.out or "-"])
    return Result(payload, text, figure=figure)


# --- parser -------------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, *, spec=False, knot=False, window=False,
                point=False, search=False, figure=False) -> None:
    if figure:
        sub.add_argument(
            "--render",
            choices=(ASCII, SVG),
            default=None,
            help="figure format (default ascii)",
        )
    if spec:
        sub.add_argument("--spec", help="sum spec: a JSON file or inline 'A:2,B:1'")
    if knot:
        sub.add_argument("--knot", action="append", help="knot document file or catalog name (repeatable)")
    if window:
        sub.add_argument("--tb-min", type=int, default=None, dest="tb_min", help="window floor (overrides --depth)")
        sub.add_argument("--depth", type=int, default=8, help="window depth below the top level (default 8)")
    if point:
        sub.add_argument("--tb", type=int, default=None)
        sub.add_argument("--r", type=int, default=None)
    if search:
        sub.add_argument("--start", help="component start classes 'tb,r;tb,r' in spec order")
        sub.add_argument("--end", help="component end classes 'tb,r;tb,r' in spec order")
        sub.add_argument("--max-len", type=int, default=None, dest="max_len", help="search length bound (default 24)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", help="write the primary output to this file")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``legsum`` parser for one call.

    Every subcommand is registered, so top-level usage, help and "invalid
    choice" errors never change; but only ``command``'s subparser gets its
    ``-h``, options and handler, since no other can act on them.  ``None``
    builds them all.
    """
    parser = argparse.ArgumentParser(
        prog="legsum",
        description="Stabilization calculus for Legendrian knots and their connected sums.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    table = [
        ("validate", cmd_validate, dict(knot=True), "check a knot document"),
        ("render", cmd_render, dict(knot=True, spec=True, window=True, figure=True), "draw a range or quotient window"),
        ("peaks", cmd_peaks, dict(knot=True, spec=True), "peaks of a range or of a sum"),
        ("valleys", cmd_valleys, dict(knot=True, spec=True, window=True), "valleys of a range or quotient window"),
        ("sum", cmd_sum, dict(spec=True, knot=True, window=True), "build a quotient window"),
        ("fiber", cmd_fiber, dict(spec=True, knot=True, point=True), "classes at one (tb, r) point"),
        ("simple", cmd_simple, dict(spec=True, knot=True, window=True), "window simplicity oracle plus criterion"),
        ("criterion", cmd_criterion, dict(spec=True, knot=True), "closed-form simplicity criterion"),
        ("witness", cmd_witness, dict(spec=True, knot=True), "explicit nonsimplicity witness pair"),
        ("canonical", cmd_canonical, dict(spec=True, knot=True, point=True), "minimal-q normal form (two-peak powers)"),
        ("xy", cmd_xy, dict(spec=True, knot=True, point=True), "diagonal coordinates (two-peak powers)"),
        ("path-search", cmd_path_search, dict(spec=True, knot=True, window=True, search=True), "connecting word between summand pairs"),
        ("nmax", cmd_nmax, dict(spec=True, knot=True, window=True), "maximal nonsimple points and their dichotomy"),
    ]
    for name, fn, flags, help_text in table:
        invoked = command is None or command == name
        sub = subs.add_parser(name, help=help_text, add_help=invoked)
        if invoked:
            _add_common(sub, **flags)
            sub.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so a first
    # token that is not an option names the subcommand.
    parser = build_parser(argv[0] if argv and not argv[0].startswith("-") else None)
    args = parser.parse_args(argv)
    try:
        result: Result = args.func(args, parser)
        if args.format == "json":
            body = result.document or dump_json({"command": args.command, **result.payload})
        else:
            body = result.text
        if args.out and result.figure is not None:
            Path(args.out).write_bytes(result.figure)
        elif args.out:
            Path(args.out).write_text(body, encoding="utf-8")
    except (LegsumError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        if result.figure is not None:
            sys.stdout.write(body)
    elif result.figure is not None:
        sys.stdout.buffer.write(result.figure)
    else:
        sys.stdout.write(body)
    return result.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
