"""File formats: knot documents, sum specs, the bundled catalog, JSON output.

A knot document is a JSON object with exactly the keys ``name``, ``prime``,
``genus`` and ``peaks`` (``prime`` defaults to true and ``genus`` to null
when omitted).  A sum spec document is ``{"summands": [{"knot": NAME,
"count": N}, ...]}``; knot names resolve against user-supplied documents
first, then the bundled catalog.

Serialization is canonical everywhere: object keys sorted, two-space
indent, trailing newline; parsing then serializing a document yields the
canonical form of the same content.  :func:`dump_json` writes the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.  Its own
recursive writer covers what legsum payloads hold (exact ``str``, ``int``,
``list``, ``tuple`` and ``str``-keyed dicts), since indented ``json.dumps``
runs the standard library's pure-Python encoder before Python 3.13; every
other value is handed to ``json.dumps``.  :func:`dump_sum_json` writes the
``sum`` document of a window straight from its nodes, member ids and child
positions, byte for byte what :func:`dump_json` makes of its
:func:`to_jsonable` payload, which stays the test oracle.
"""

from __future__ import annotations

import functools
import json
import sys
from importlib import resources
from typing import Mapping

from .errors import ParseError, SchemaError
from .poset import DichotomyVerdict, NonsimpleReport, PosetNode, QuotientPoset
from .ranges import MountainRange, SimpleClass, ValidationReport, Valley
from .simplicity import (
    CanonicalForm,
    CriterionVerdict,
    WindowVerdict,
    WitnessPair,
    XYInvariants,
)
from .sums import SumSpec, TupleClass


_escape = json.encoder.encode_basestring_ascii


def dump_json(obj) -> str:
    """Canonical JSON text: sorted keys, indented, newline-terminated.

    Byte for byte ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, and
    the same exception type where that raises: ``TypeError`` for an
    unserializable value or key, ``ValueError`` for a circular reference.
    :func:`_encode` writes exact ``str``, ``int``, ``list`` and ``tuple``
    values and ``str``-keyed dicts itself, each container as one
    ``str.join``; every other value goes to ``json.dumps``.
    """
    return _encode(obj, "\n", {}) + "\n"


def _encode(o, nl: str, markers: dict) -> str:
    """The JSON text of ``o`` nested where a new line starts with ``nl``.

    The fast path covers what legsum payloads hold: exact ``str``, ``int``,
    ``list`` and ``tuple`` values, and dicts whose first sorted key is a
    ``str``.  A list whose first item is a string is tried as all strings,
    escaped and joined in one ``str.join``.  ``markers`` holds the ids of the
    containers being written, to reject a circular reference.  Any other
    value (``bool``, ``None``, floats, subclasses, other keys) is written by
    ``json.dumps`` with each newline replaced by ``nl``; that is safe because
    its ASCII output escapes every newline inside a string.
    """
    kind = type(o)
    if kind is str:
        return _escape(o)
    if kind is int:
        return int.__repr__(o)
    if kind is dict:
        if not o:
            return "{}"
        pairs = sorted(o.items())
        if type(pairs[0][0]) is not str:
            return json.dumps(o, sort_keys=True, indent=2).replace("\n", nl)
    elif kind is list or kind is tuple:
        if not o:
            return "[]"
    else:
        return json.dumps(o, sort_keys=True, indent=2).replace("\n", nl)
    marker = id(o)
    if marker in markers:
        raise ValueError("Circular reference detected")
    markers[marker] = o
    inner = nl + "  "
    if kind is dict:
        items = []
        for key, value in pairs:
            kind = type(value)
            items.append(_escape(key) + ": " + (
                _escape(value) if kind is str else
                int.__repr__(value) if kind is int else
                _encode(value, inner, markers)
            ))
        text = "{" + inner + ("," + inner).join(items) + nl + "}"
    else:
        body = None
        if type(o[0]) is str:
            try:
                body = ("," + inner).join(map(_escape, o))
            except TypeError:
                pass
        if body is None:
            body = ("," + inner).join([
                int.__repr__(value) if type(value) is int else _encode(value, inner, markers) for value in o
            ])
        text = "[" + inner + body + nl + "]"
    del markers[marker]
    return text


def dump_sum_json(spec: str, poset: QuotientPoset) -> str:
    """The ``sum --format json`` document of a window, written from its positions.

    Byte for byte ``dump_json({"command": "sum", "spec": spec,
    **to_jsonable(poset)})``, for a window whose points are ``int`` pairs,
    as every window's are.  Nodes are written in window order from their
    ids (:attr:`PosetNode.ids`, read before the key, so a one-class point
    is walked once), each key escaped once.  Edges are written from the
    window's child positions, in the ``(parent, sign, child)`` order of the
    raw keys that :attr:`QuotientPoset.edges` has.  No
    :class:`~legsum.poset.Edge`, node dict or edge dict is made.
    """
    escaped, nodes = [], []
    for n in poset:
        ids = n.ids
        key = _escape(n.key)
        escaped.append(key)
        members = ("[\n        " + ",\n        ".join(map(_escape, ids)) + "\n      ]") if ids else "[]"
        nodes.append(
            f'{{\n      "id": {key},\n      "members": {members},\n      "point": [\n        {n.tb},\n        {n.r}\n'
            f'      ],\n      "size": {len(ids)}\n    }}'
        )
    edges = [
        f'{{\n      "child": {escaped[c]},\n      "parent": {escaped[i]},\n      "sign": {_escape(sign)}\n    }}'
        for i, sign, c in poset._links()
    ]
    return (
        '{\n  "command": "sum",\n  "edges": '
        + (("[\n    " + ",\n    ".join(edges) + "\n  ]") if edges else "[]")
        + f',\n  "node_count": {len(nodes)},\n  "nodes": '
        + (("[\n    " + ",\n    ".join(nodes) + "\n  ]") if nodes else "[]")
        + f',\n  "spec": {_escape(spec)},\n  "tb_min": {poset.tb_min},\n  "top_tb": {poset.top_tb}\n}}\n'
    )


def _load_json(data: bytes | str, source: str):
    """Decode UTF-8 bytes and parse JSON, reporting any failure as ParseError.

    Besides malformed text, ``json.loads`` raises ``ValueError`` for an
    integer longer than the interpreter's digit limit, reported with that
    limit, and ``RecursionError`` for nesting too deep to parse.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source}: not UTF-8 text ({exc})") from exc
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{source}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ParseError(f"{source}: an integer has more than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise ParseError(f"{source}: {exc}") from exc


_KNOT_KEYS = {"name", "prime", "genus", "peaks"}


def parse_knot_document(data: bytes | str, source: str = "<knot>") -> MountainRange:
    """Parse and fully validate one knot document into its mountain range.

    Raises ParseError for broken JSON, SchemaError for shape problems
    (including peaks out of r-order), and RangeInvalid when the shape is
    fine but the range breaks a structural invariant.
    """
    obj = _load_json(data, source)
    if not isinstance(obj, dict):
        raise SchemaError(f"{source}: top level must be an object")
    unknown = sorted(set(obj) - _KNOT_KEYS)
    if unknown:
        raise SchemaError(f"{source}: unknown field {unknown[0]!r}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{source}: field 'name' must be a non-empty string")
    prime = obj.get("prime", True)
    if not isinstance(prime, bool):
        raise SchemaError(f"{source}: field 'prime' must be a boolean")
    genus = obj.get("genus", None)
    if genus is not None and (isinstance(genus, bool) or not isinstance(genus, int)):
        raise SchemaError(f"{source}: field 'genus' must be an integer or null")
    if genus is not None and genus < 0:
        raise SchemaError(f"{source}: field 'genus' must be non-negative")
    raw_peaks = obj.get("peaks")
    if not isinstance(raw_peaks, list) or not raw_peaks:
        raise SchemaError(f"{source}: field 'peaks' must be a non-empty array")
    peaks: list[tuple[int, int]] = []
    for i, item in enumerate(raw_peaks):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in item)
        ):
            raise SchemaError(f"{source}: peaks[{i}] must be a [tb, r] integer pair")
        peaks.append((item[0], item[1]))
    for i in range(len(peaks) - 1):
        if peaks[i][1] >= peaks[i + 1][1]:
            raise SchemaError(f"{source}: peaks[{i + 1}] out of r-order")
    return MountainRange(name, tuple(peaks), genus, prime).require_valid()


def serialize_knot(rng: MountainRange) -> str:
    return dump_json(
        {
            "name": rng.knot_id,
            "prime": rng.prime,
            "genus": rng.genus,
            "peaks": [[p.tb, p.r] for p in rng.peaks],
        }
    )


def parse_sum_document(
    data: bytes | str, registry: Mapping[str, MountainRange], source: str = "<spec>"
) -> SumSpec:
    """Parse a sum spec document, resolving knot names via ``registry``."""
    obj = _load_json(data, source)
    if not isinstance(obj, dict) or set(obj) != {"summands"}:
        raise SchemaError(f"{source}: top level must be an object with the single field 'summands'")
    raw = obj["summands"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{source}: 'summands' must be a non-empty array")
    parts: list[tuple[MountainRange, int]] = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or set(item) != {"knot", "count"}:
            raise SchemaError(f"{source}: summands[{i}] must have exactly 'knot' and 'count'")
        knot, count = item["knot"], item["count"]
        if not isinstance(knot, str):
            raise SchemaError(f"{source}: summands[{i}].knot must be a string")
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise SchemaError(f"{source}: summands[{i}].count must be a positive integer")
        if knot not in registry:
            raise SchemaError(f"{source}: summands[{i}].knot: unknown knot {knot!r}")
        parts.append((registry[knot], count))
    return SumSpec.of(parts)


def parse_inline_sum(text: str, registry: Mapping[str, MountainRange]) -> SumSpec:
    """Parse the shorthand ``NAME[:COUNT],NAME[:COUNT],...``."""
    parts: list[tuple[MountainRange, int]] = []
    for tok in text.replace("+", ",").split(","):
        tok = tok.strip()
        if not tok:
            raise ParseError(f"empty summand in {text!r}")
        name, _, count_s = tok.partition(":")
        if name not in registry:
            raise SchemaError(f"unknown knot {name!r} in {text!r}")
        try:
            count = int(count_s) if count_s else 1
        except ValueError as exc:
            raise ParseError(f"bad count {count_s!r} in {text!r}") from exc
        parts.append((registry[name], count))
    return SumSpec.of(parts)


def serialize_sum(spec: SumSpec) -> str:
    return dump_json(
        {"summands": [{"knot": s.knot_id, "count": s.count} for s in spec.summands]}
    )


# --- bundled catalog -----------------------------------------------------------------


@functools.cache
def _bundled_ranges() -> tuple[MountainRange, ...]:
    """The bundled documents, parsed once per process."""
    root = resources.files("legsum") / "data"
    return tuple(
        parse_knot_document(entry.read_bytes(), source=entry.name)
        for entry in sorted(root.iterdir(), key=lambda e: e.name)
        if entry.name.endswith(".json")
    )


def catalog() -> dict[str, MountainRange]:
    """The ranges shipped with the package, keyed by name; a new dict on every call."""
    return {rng.knot_id: rng for rng in _bundled_ranges()}


# --- JSON views of domain objects ------------------------------------------------------


def factor_obj(f: SimpleClass) -> list:
    return [f.knot_id, f.tb, f.r]


def tuple_obj(t: TupleClass) -> dict:
    return {"id": t.id_string(), "factors": [factor_obj(f) for f in t.factors]}


def class_obj(node: PosetNode) -> dict:
    """The fiber view of one class: its representative tuple and member ids.

    Members first: a one-class node's representative then comes from the
    listing, not from a second walk of its point.
    """
    members = node.members
    return {
        "representative": tuple_obj(node.representative),
        "size": len(members),
        "members": [t.id_string() for t in members],
    }


def to_jsonable(obj):
    """A stable JSON view for any result object this package produces."""
    if isinstance(obj, ValidationReport):
        return {
            "knot": obj.knot_id,
            "valid": obj.ok,
            "violations": [{"code": v.code, "message": v.message} for v in obj.violations],
        }
    if isinstance(obj, Valley):
        return {"tb": obj.tb, "r": obj.r, "left": obj.left, "right": obj.right}
    if isinstance(obj, SimpleClass):
        return factor_obj(obj)
    if isinstance(obj, TupleClass):
        return tuple_obj(obj)
    if isinstance(obj, PosetNode):
        # Members first: a one-class node's key then comes from the listing,
        # not from a second walk of its point.
        members = obj.members
        return {
            "id": obj.key,
            "point": [obj.tb, obj.r],
            "size": len(members),
            "members": [t.id_string() for t in members],
        }
    if isinstance(obj, QuotientPoset):
        return {
            "tb_min": obj.tb_min,
            "top_tb": obj.top_tb,
            "node_count": len(obj),
            "nodes": [to_jsonable(n) for n in obj],
            "edges": [
                {"parent": e.parent, "sign": e.sign, "child": e.child} for e in obj.edges
            ],
        }
    if isinstance(obj, CriterionVerdict):
        return {
            "simple": obj.simple,
            "matched_case": obj.matched_case,
            "peak_counts": [
                {"knot": k, "count": c, "peaks": p} for k, c, p in obj.peak_counts
            ],
        }
    if isinstance(obj, WitnessPair):
        return {
            "point": list(obj.point),
            "tuple_a": tuple_obj(obj.tuple_a),
            "tuple_b": tuple_obj(obj.tuple_b),
        }
    if isinstance(obj, WindowVerdict):
        return {
            "simple_in_window": obj.simple_in_window,
            "tb_min": obj.tb_min,
            "top_tb": obj.top_tb,
            "witness": to_jsonable(obj.witness) if obj.witness else None,
        }
    if isinstance(obj, CanonicalForm):
        return {"a": obj.a, "b": obj.b, "p": obj.p, "q": obj.q}
    if isinstance(obj, XYInvariants):
        return {"x": obj.x, "y": obj.y}
    if isinstance(obj, DichotomyVerdict):
        return {"point": list(obj.point), "fiber_size": obj.fiber_size, "case": obj.case}
    if isinstance(obj, NonsimpleReport):
        return {
            "tb_min": obj.tb_min,
            "top_tb": obj.top_tb,
            "simple": obj.simple,
            "nonsimple": [
                {"point": list(pt), "fiber_size": size} for pt, size in obj.nonsimple
            ],
            "candidates": [to_jsonable(v) for v in obj.nmax],
        }
    raise TypeError(f"no JSON view for {type(obj).__name__}")
