"""Document parsing, canonical serialization, the bundled catalog, JSON views."""

import enum
import json
import sys
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legsum as L
from legsum.cli import main
from legsum.documents import (
    catalog,
    class_obj,
    dump_json,
    dump_sum_json,
    factor_obj,
    parse_inline_sum,
    parse_knot_document,
    parse_sum_document,
    serialize_knot,
    serialize_sum,
    to_jsonable,
    tuple_obj,
)
from legsum.errors import ParseError, RangeInvalid, SchemaError

from conftest import UNPARSABLE_JSON, random_sums, wide_step_sums

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "legsum" / "data"


# --- canonical JSON text ----------------------------------------------------------


def test_dump_json_canonical_form():
    text = dump_json({"b": 1, "a": [2, {"z": 0, "y": 1}]})
    assert text == '{\n  "a": [\n    2,\n    {\n      "y": 1,\n      "z": 0\n    }\n  ],\n  "b": 1\n}\n'
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [2, {"y": 1, "z": 0}], "b": 1}


def outcome(dump, obj):
    """The text ``dump`` writes for ``obj``, or the type of what it raises."""
    try:
        return dump(obj)
    except Exception as exc:
        return type(exc)


_texts = st.text() | st.text(st.sampled_from('\x00\x1f\x7f"\\/\b\t\n\u2028\u00e9\ud800\U0001f600a'))
_ints = st.integers() | st.integers(2**63, 2**200) | st.integers(-(2**200), -(2**63))
_floats = st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324])
_scalars = st.none() | st.booleans() | st.sampled_from([0, 1]) | _ints | _floats | _texts
# Keys of one kind per dict, as numbers and bools sort among themselves but
# not with strings or None (that TypeError is tested below).
_key_kinds = (_texts, _ints | _floats | st.booleans(), st.none())


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.one_of([st.dictionaries(keys, children, max_size=5) for keys in _key_kinds])
    )


json_trees = st.recursive(_scalars, _containers, max_leaves=40)


def json_key(key) -> str:
    """The text JSON writes for a dict key: strings as they are, other scalars as JSON literals."""
    if isinstance(key, str):
        return key
    if key is None:
        return "null"
    if isinstance(key, bool):
        return "true" if key else "false"
    if key != key:
        return "NaN"
    if isinstance(key, float) and abs(key) == float("inf"):
        return "Infinity" if key > 0 else "-Infinity"
    return repr(key)


def read_back(tree):
    """``tree`` as ``json.loads(..., object_pairs_hook=tuple)`` reads it: arrays as lists, objects as (key, value) pairs in sorted key order."""
    if isinstance(tree, dict):
        return tuple((json_key(k), read_back(v)) for k, v in sorted(tree.items()))
    if isinstance(tree, (list, tuple)):
        return [read_back(v) for v in tree]
    return tree


def assert_two_space_indent(text: str) -> None:
    """Each line sits two spaces deeper per open array or object, and none ends in a space."""
    depth = 0
    for line in text.splitlines():
        body = line.lstrip(" ")
        if body[0] in "]}":
            depth -= 1
        assert line == "  " * depth + body and not line.endswith(" "), line
        if body[-1] in "[{":
            depth += 1
    assert depth == 0


@settings(max_examples=200)
@given(json_trees)
def test_dump_json_matches_json_dumps(tree):
    # dump_json's contract is json.dumps(obj, sort_keys=True, indent=2) plus
    # a newline; read the text back rather than calling json.dumps again.
    text = dump_json(tree)
    assert text.isascii() and text.endswith("\n") and not text.endswith("\n\n")
    assert_two_space_indent(text)
    assert repr(json.loads(text, object_pairs_hook=tuple)) == repr(read_back(tree))


def test_dump_json_matches_json_dumps_on_subclasses_and_errors():
    class Colour(enum.IntEnum):
        RED = 1

    class Text(str):
        def __str__(self):
            return "text"

    class Real(float):
        def __repr__(self):
            return "real"

    class Items(list):
        pass

    class Table(dict):
        pass

    # Subclasses of dict, list, int, str and float are written as their base type.
    subclassed = Table(b=Items([Colour.RED, Text("t\u00e9"), Real(0.5)]), a=OrderedDict(z=True, y=None))
    assert dump_json(subclassed) == '{\n  "a": {\n    "y": null,\n    "z": true\n  },\n  "b": [\n    1,\n    "t\\u00e9",\n    0.5\n  ]\n}\n'
    assert dump_json({Colour.RED: Real(-0.0)}) == '{\n  "1": -0.0\n}\n'
    assert dump_json("top-level \u2028") == '"top-level \\u2028"\n'
    assert dump_json([[], {}, (), [[]], {"": {}}]) == '[\n  [],\n  {},\n  [],\n  [\n    []\n  ],\n  {\n    "": {}\n  }\n]\n'
    # Keys sort as the values they are, then are written as text.
    assert dump_json({True: 0, 1.5: None, -2: False}) == '{\n  "-2": false,\n  "true": 0,\n  "1.5": null\n}\n'
    assert dump_json({"\u00e9": "\x00\U0001f600", "e": '\t"\\/'}) == '{\n  "e": "\\t\\"\\\\/",\n  "\\u00e9": "\\u0000\\ud83d\\ude00"\n}\n'

    looped_list: list = [1]
    looped_list.append(looped_list)
    looped_dict: dict = {"a": []}
    looped_dict["a"].append(looped_dict)
    unwritable = [
        object(),
        [1, {"a": {1, 2}}],
        {"x": b"bytes"},
        {(1, 2): 3},
        {"a": 1, 2: "b"},
        complex(1, 2),
        looped_list,
        looped_dict,
    ]
    assert [outcome(dump_json, v) for v in unwritable] == [TypeError] * 6 + [ValueError] * 2


def test_sum_json_skips_json_dumps_and_foreign_containers_take_the_outer_indent(monkeypatch, capsys):
    calls = []
    real_dumps = json.dumps

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr("legsum.documents.json.dumps", counted)
    assert main(["sum", "--spec", "A:2,B:2", "--depth", "8", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["node_count"] > 0
    assert calls == []
    # nested containers written by json.dumps must take the outer indent
    foreign = {"flags": [True, None], "half": 0.5, "nested": [OrderedDict(b=[1], a="x")], "numbered": {1: [2]}}
    assert dump_json(foreign) == real_dumps(foreign, sort_keys=True, indent=2) + "\n"


# --- knot documents ---------------------------------------------------------------


def test_parse_knot_document_full():
    rng = parse_knot_document(
        '{"name": "A", "prime": true, "genus": 2, "peaks": [[0, -2], [0, 2]]}'
    )
    assert rng == L.MountainRange("A", ((0, -2), (0, 2)), 2, True)
    assert rng.knot_id == "A"
    assert rng.genus == 2
    assert rng.prime is True
    assert [(p.tb, p.r) for p in rng.peaks] == [(0, -2), (0, 2)]


def test_parse_knot_document_defaults():
    rng = parse_knot_document('{"name": "X", "peaks": [[0, -2], [0, 2]]}')
    assert rng.prime is True
    assert rng.genus is None


def test_parse_knot_document_accepts_bytes():
    rng = parse_knot_document(b'{"name": "X", "peaks": [[1, 0]]}')
    assert rng.knot_id == "X"


def test_round_trip_is_identity_on_catalog_files():
    # The bundled documents are stored in canonical form already, so
    # parse-then-serialize must reproduce them byte for byte.
    files = sorted(DATA_DIR.glob("*.json"))
    assert len(files) == 5
    for path in files:
        raw = path.read_text()
        rng = parse_knot_document(raw, source=path.name)
        assert serialize_knot(rng) == raw


def test_round_trip_canonicalizes_noncanonical_input():
    # Same content, scrambled key order and whitespace.
    messy = '{"peaks":[[0,-2],[0,2]],"name":"A","genus":2,"prime":true}'
    rng = parse_knot_document(messy)
    assert serialize_knot(rng) == (DATA_DIR / "A.json").read_text()


def test_parsed_document_equals_catalog_range(A):
    assert parse_knot_document((DATA_DIR / "A.json").read_bytes()) == A


@pytest.mark.parametrize(
    "data, exc, needle",
    [
        (b"\xff\xfe{}", ParseError, "not UTF-8"),
        ("{", ParseError, "line 1 col 2"),
        ("[1, 2]", SchemaError, "top level must be an object"),
        ('{"name": "X", "peaks": [[1, 0]], "color": 1}', SchemaError, "unknown field 'color'"),
        ('{"peaks": [[1, 0]]}', SchemaError, "'name' must be a non-empty string"),
        ('{"name": "", "peaks": [[1, 0]]}', SchemaError, "'name' must be a non-empty string"),
        ('{"name": 3, "peaks": [[1, 0]]}', SchemaError, "'name' must be a non-empty string"),
        ('{"name": "X", "prime": 1, "peaks": [[1, 0]]}', SchemaError, "'prime' must be a boolean"),
        ('{"name": "X", "genus": true, "peaks": [[1, 0]]}', SchemaError, "integer or null"),
        ('{"name": "X", "genus": 1.5, "peaks": [[1, 0]]}', SchemaError, "integer or null"),
        ('{"name": "X", "genus": -1, "peaks": [[1, 0]]}', SchemaError, "non-negative"),
        ('{"name": "X"}', SchemaError, "'peaks' must be a non-empty array"),
        ('{"name": "X", "peaks": []}', SchemaError, "'peaks' must be a non-empty array"),
        ('{"name": "X", "peaks": [[1]]}', SchemaError, "peaks[0] must be a [tb, r] integer pair"),
        ('{"name": "X", "peaks": [[1, true]]}', SchemaError, "peaks[0] must be a [tb, r] integer pair"),
        ('{"name": "X", "peaks": [[1, "0"]]}', SchemaError, "peaks[0] must be a [tb, r] integer pair"),
        ('{"name": "X", "peaks": [[0, 2], [0, -2]]}', SchemaError, "peaks[1] out of r-order"),
        ('{"name": "X", "peaks": [[0, 0], [1, 0]]}', SchemaError, "peaks[1] out of r-order"),
    ],
)
def test_parse_knot_document_rejects(data, exc, needle):
    with pytest.raises(exc) as err:
        parse_knot_document(data)
    assert needle in str(err.value)


@pytest.mark.parametrize("data, needle", UNPARSABLE_JSON)
def test_documents_too_deep_or_long_to_parse_raise_parse_error(cat, data, needle):
    for parse in (parse_knot_document, lambda d, source: parse_sum_document(d, cat, source)):
        with pytest.raises(ParseError, match=r"^big\.json: ") as err:
            parse(data, source="big.json")
        assert needle in str(err.value)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
def test_over_long_integer_names_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    data = '{"name": "X", "peaks": [[0, ' + "1" * max(5000, limit + 1) + "]]}"
    with pytest.raises(ParseError) as err:
        parse_knot_document(data, source="big.json")
    assert str(err.value) == f"big.json: an integer has more than {limit} digits"


def test_parse_knot_document_source_prefix():
    with pytest.raises(SchemaError, match=r"^mine\.json: "):
        parse_knot_document("[1]", source="mine.json")


def test_parse_knot_document_invalid_range():
    # Well-formed document, structurally broken range: the connecting
    # valley of these peaks coincides with the second peak.
    with pytest.raises(RangeInvalid) as err:
        parse_knot_document('{"name": "X", "peaks": [[0, 0], [-1, 1]]}')
    assert "valley-misplaced" in {v.code for v in err.value.violations}


def test_parse_knot_document_parity_invalid():
    with pytest.raises(RangeInvalid) as err:
        parse_knot_document('{"name": "X", "peaks": [[0, 0], [0, 1]]}')
    assert "parity" in {v.code for v in err.value.violations}


# --- sum documents ----------------------------------------------------------------


def test_parse_sum_document(cat, A, B):
    spec = parse_sum_document(
        '{"summands": [{"knot": "A", "count": 2}, {"knot": "B", "count": 1}]}', cat
    )
    assert spec == L.SumSpec.of([(A, 2), (B, 1)])


@pytest.mark.parametrize(
    "data, exc, needle",
    [
        (b"\xff", ParseError, "not UTF-8"),
        ("{", ParseError, "line 1 col 2"),
        ('{"summands": [], "x": 1}', SchemaError, "single field 'summands'"),
        ("[]", SchemaError, "single field 'summands'"),
        ('{"summands": []}', SchemaError, "non-empty array"),
        ('{"summands": 3}', SchemaError, "non-empty array"),
        ('{"summands": [{"knot": "A"}]}', SchemaError, "summands[0] must have exactly 'knot' and 'count'"),
        ('{"summands": [{"knot": "A", "count": 1, "z": 0}]}', SchemaError, "summands[0] must have exactly"),
        ('{"summands": [{"knot": 7, "count": 1}]}', SchemaError, "summands[0].knot must be a string"),
        ('{"summands": [{"knot": "A", "count": 0}]}', SchemaError, "positive integer"),
        ('{"summands": [{"knot": "A", "count": true}]}', SchemaError, "positive integer"),
        ('{"summands": [{"knot": "Z", "count": 1}]}', SchemaError, "unknown knot 'Z'"),
    ],
)
def test_parse_sum_document_rejects(cat, data, exc, needle):
    with pytest.raises(exc) as err:
        parse_sum_document(data, cat)
    assert needle in str(err.value)


def test_serialize_sum_round_trip(cat, A, B):
    spec = L.SumSpec.of([(A, 2), (B, 1)])
    text = serialize_sum(spec)
    assert json.loads(text) == {
        "summands": [{"knot": "A", "count": 2}, {"knot": "B", "count": 1}]
    }
    assert parse_sum_document(text, cat) == spec


def test_parse_inline_sum(cat, A, B, C):
    assert parse_inline_sum("A:2,B:1", cat) == L.SumSpec.of([(A, 2), (B, 1)])
    assert parse_inline_sum("A+B", cat) == L.SumSpec.of([(A, 1), (B, 1)])
    assert parse_inline_sum(" C ", cat) == L.SumSpec.of([(C, 1)])
    # Listing the same knot twice is a spec-level error, not a merge.
    with pytest.raises(L.InvalidSummand):
        parse_inline_sum("A:1+A:2", cat)


@pytest.mark.parametrize(
    "text, exc, needle",
    [
        ("", ParseError, "empty summand"),
        ("A,,B", ParseError, "empty summand"),
        ("Z", SchemaError, "unknown knot 'Z'"),
        ("A:x", ParseError, "bad count 'x'"),
    ],
)
def test_parse_inline_sum_rejects(cat, text, exc, needle):
    with pytest.raises(exc) as err:
        parse_inline_sum(text, cat)
    assert needle in str(err.value)


# --- bundled catalog --------------------------------------------------------------


def test_catalog_contents(cat):
    assert sorted(cat) == ["A", "Aprime", "B", "C", "U1"]
    peaks = {k: [(p.tb, p.r) for p in v.peaks] for k, v in cat.items()}
    assert peaks == {
        "U1": [(-1, 0)],
        "C": [(1, 0)],
        "A": [(0, -2), (0, 2)],
        "Aprime": [(0, 0), (0, 4)],
        "B": [(0, -4), (0, 0), (0, 4)],
    }
    assert {k: v.genus for k, v in cat.items()} == {
        "U1": 0,
        "C": 1,
        "A": 2,
        "Aprime": 3,
        "B": 3,
    }
    assert all(v.prime for v in cat.values())
    assert all(v.is_valid for v in cat.values())


def test_catalog_fresh_each_call():
    a, b = catalog(), catalog()
    assert a == b and a is not b


# --- JSON views -------------------------------------------------------------------


def test_jsonable_validation_report(A):
    assert to_jsonable(A.validate()) == {"knot": "A", "valid": True, "violations": []}
    bad = L.MountainRange("X", ((0, 0), (0, 1)))
    view = to_jsonable(bad.validate())
    assert view["valid"] is False
    assert {v["code"] for v in view["violations"]} >= {"parity"}
    assert all(v["message"] for v in view["violations"])


def test_jsonable_valley_and_classes(A):
    assert to_jsonable(A.valleys()[0]) == {"tb": -2, "r": 0, "left": 0, "right": 1}
    cls = L.SimpleClass("A", -1, 1)
    assert to_jsonable(cls) == ["A", -1, 1]
    assert factor_obj(cls) == ["A", -1, 1]


def test_jsonable_tuple_and_equiv_class(B):
    spec = L.SumSpec.of([(B, 2)])
    classes = L.enumerate_fiber(spec, 1, 0)
    assert [c.representative.id_string() for c in classes] == [
        "B(0,-4)|B(0,4)",
        "B(0,0)|B(0,0)",
    ]
    t = classes[0].representative
    assert tuple_obj(t) == {
        "id": "B(0,-4)|B(0,4)",
        "factors": [["B", 0, -4], ["B", 0, 4]],
    }
    assert to_jsonable(t) == tuple_obj(t)
    view = class_obj(classes[0])
    assert view["representative"]["id"] == "B(0,-4)|B(0,4)"
    assert view["size"] == len(classes[0].members)
    assert view["members"][0] == "B(0,-4)|B(0,4)"


def test_jsonable_poset(C):
    poset = L.build_quotient(L.SumSpec.of([(C, 1)]), tb_min=-1)
    view = to_jsonable(poset)
    assert view["tb_min"] == -1
    assert view["top_tb"] == 1
    assert view["node_count"] == 6
    top = view["nodes"][0]
    assert top == {
        "id": "C(1,0)",
        "point": [1, 0],
        "size": 1,
        "members": ["C(1,0)"],
    }
    assert all(e["sign"] in ("+", "-") for e in view["edges"])
    assert {e["parent"] for e in view["edges"]} <= {n["id"] for n in view["nodes"]}
    # The whole view serializes canonically.
    assert dump_json(view).endswith("\n")


def test_jsonable_simplicity_objects(A, B):
    v = to_jsonable(L.criterion(L.SumSpec.of([(A, 2)])))
    assert v == {
        "simple": True,
        "matched_case": "one-two-peak-with-multiplicity>=2",
        "peak_counts": [{"knot": "A", "count": 2, "peaks": 2}],
    }
    wv = to_jsonable(L.simplicity_in_window(L.SumSpec.of([(B, 2)]), tb_min=-2))
    assert wv["simple_in_window"] is False
    assert wv["tb_min"] == -2 and wv["top_tb"] == 1
    assert wv["witness"]["point"] == [1, 0]
    assert wv["witness"]["tuple_a"]["id"] == "B(0,-4)|B(0,4)"
    assert wv["witness"]["tuple_b"]["id"] == "B(0,0)|B(0,0)"
    simple = to_jsonable(L.simplicity_in_window(L.SumSpec.of([(A, 2)]), tb_min=-2))
    assert simple["simple_in_window"] is True and simple["witness"] is None


def test_jsonable_forms(A):
    form = L.canonical_form(A, 2, 1, 0)
    assert to_jsonable(form) == {"a": 0, "b": 0, "p": 1, "q": 1}
    assert to_jsonable(L.xy_invariants(A, 2, 1, 0)) == {"x": 2, "y": -2}


def test_jsonable_poset_reports(B):
    poset = L.build_quotient(L.SumSpec.of([(B, 2)]), tb_min=-2)
    verdicts = L.check_nmax_dichotomy(poset)
    assert [to_jsonable(v) for v in verdicts] == [
        {"point": [1, 0], "fiber_size": 2, "case": "case1"}
    ]
    report = to_jsonable(L.nonsimple_report(poset))
    assert report["simple"] is False
    assert report["tb_min"] == -2 and report["top_tb"] == 1
    assert {"point": [1, 0], "fiber_size": 2} in report["nonsimple"]
    assert report["candidates"] == [{"point": [1, 0], "fiber_size": 2, "case": "case1"}]


def test_jsonable_rejects_unknown():
    with pytest.raises(TypeError, match="no JSON view"):
        to_jsonable(object())


# --- the sum document ---------------------------------------------------------------


def sum_oracle(label: str, poset: L.QuotientPoset) -> str:
    """The ``sum --format json`` document through the generic JSON view."""
    return dump_json({"command": "sum", "spec": label, **to_jsonable(poset)})


def assert_sum_document(spec: L.SumSpec, depth: int) -> None:
    """The writer's text against the oracle on a window of its own, then every node's ids against its members."""
    floor = spec.top_tb - depth
    window = L.build_quotient(spec, floor)
    assert dump_sum_json(spec.label(), window) == sum_oracle(spec.label(), L.build_quotient(spec, floor)), spec.label()
    for node in window:
        assert list(node.ids) == [t.id_string() for t in node.members]
        assert node.key == node.ids[0] == node.representative.id_string()


def test_sum_writer_matches_the_json_view_on_grid(grid_specs):
    assert len(grid_specs) == 55
    for spec in grid_specs:
        for depth in (0, 3, 8):
            assert_sum_document(spec, depth)


@settings(max_examples=60, deadline=None)
@given(st.one_of(random_sums(), wide_step_sums()), st.integers(0, 8))
def test_sum_writer_matches_the_json_view_on_random_ranges(spec, depth):
    assert_sum_document(spec, depth)


def test_sum_writer_matches_the_json_view_on_hand_built_windows():
    # Nodes without members, keys out of window order, two children of one
    # sign, and keys that need escaping.
    nodes = [("z", 1, 0), ('b"1', 0, -1), ("a\\1", 0, 1), ("\u00e91", 0, 1)]
    edges = [("z", "+", "\u00e91"), ("z", "-", 'b"1'), ("z", "+", "a\\1")]
    for window in (
        L.QuotientPoset.from_parts(nodes, edges, 0, 1),
        L.QuotientPoset.from_parts(nodes[:1], [], 1, 1),
        L.QuotientPoset.from_parts([], [], 0, 1),
    ):
        assert dump_sum_json('s"\u00e9', window) == sum_oracle('s"\u00e9', window)
        assert all(node.ids == () for node in window)


def test_sum_writer_escapes_user_knot_names(A, B):
    spec = L.SumSpec.of([
        (L.make_range('Q"\\', [(p.tb, p.r) for p in A.peaks], A.genus), 2),
        (L.make_range("R\u00e9\u2603", [(p.tb, p.r) for p in B.peaks], B.genus), 1),
    ])
    for depth in (0, 4):
        assert_sum_document(spec, depth)
    text = dump_sum_json(spec.label(), L.build_quotient(spec, spec.top_tb - 4))
    assert text.isascii() and '"spec": "Q\\"\\\\^2#R\\u00e9\\u2603"' in text
