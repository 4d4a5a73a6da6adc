"""End-to-end command-line behavior through the programmatic entry point."""

import argparse
import collections
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legsum
from legsum.cli import build_parser, main

from conftest import UNPARSABLE_JSON

GOLDEN_A_ASCII = (
    "tb  0 |. ^ . ^ .|\n"
    "tb -1 | o o o o |\n"
    "tb -2 |o o v o o|\n"
    "tb    +---------+\n"
    "       r = -4 .. 4\n"
)

GOLDEN_B2_FIBER_JSON = (
    '{\n'
    '  "class_count": 2,\n'
    '  "classes": [\n'
    '    {\n'
    '      "members": [\n'
    '        "B(0,-4)|B(0,4)"\n'
    '      ],\n'
    '      "representative": {\n'
    '        "factors": [\n'
    '          [\n'
    '            "B",\n'
    '            0,\n'
    '            -4\n'
    '          ],\n'
    '          [\n'
    '            "B",\n'
    '            0,\n'
    '            4\n'
    '          ]\n'
    '        ],\n'
    '        "id": "B(0,-4)|B(0,4)"\n'
    '      },\n'
    '      "size": 1\n'
    '    },\n'
    '    {\n'
    '      "members": [\n'
    '        "B(0,0)|B(0,0)"\n'
    '      ],\n'
    '      "representative": {\n'
    '        "factors": [\n'
    '          [\n'
    '            "B",\n'
    '            0,\n'
    '            0\n'
    '          ],\n'
    '          [\n'
    '            "B",\n'
    '            0,\n'
    '            0\n'
    '          ]\n'
    '        ],\n'
    '        "id": "B(0,0)|B(0,0)"\n'
    '      },\n'
    '      "size": 1\n'
    '    }\n'
    '  ],\n'
    '  "command": "fiber",\n'
    '  "point": [\n'
    '    1,\n'
    '    0\n'
    '  ],\n'
    '  "spec": "B^2"\n'
    '}\n'
)


# Help and usage bytes at COLUMNS=80.  Python 3.13 wraps the top-level usage
# line differently; everything after it is the same on 3.10 through 3.13.
TOP_CHOICES = "{validate,render,peaks,valleys,sum,fiber,simple,criterion,witness,canonical,xy,path-search,nmax}"
TOP_USAGE = (
    "usage: legsum [-h]\n"
    "              " + TOP_CHOICES + ("\n              ..." if sys.version_info < (3, 13) else " ...") + "\n"
)

GOLDEN_TOP_HELP = TOP_USAGE + (
    "\n"
    "Stabilization calculus for Legendrian knots and their connected sums.\n"
    "\n"
    "positional arguments:\n"
    "  " + TOP_CHOICES + "\n"
    "    validate            check a knot document\n"
    "    render              draw a range or quotient window\n"
    "    peaks               peaks of a range or of a sum\n"
    "    valleys             valleys of a range or quotient window\n"
    "    sum                 build a quotient window\n"
    "    fiber               classes at one (tb, r) point\n"
    "    simple              window simplicity oracle plus criterion\n"
    "    criterion           closed-form simplicity criterion\n"
    "    witness             explicit nonsimplicity witness pair\n"
    "    canonical           minimal-q normal form (two-peak powers)\n"
    "    xy                  diagonal coordinates (two-peak powers)\n"
    "    path-search         connecting word between summand pairs\n"
    "    nmax                maximal nonsimple points and their dichotomy\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)

GOLDEN_SUM_HELP = (
    "usage: legsum sum [-h] [--spec SPEC] [--knot KNOT] [--tb-min TB_MIN]\n"
    "                  [--depth DEPTH] [--format {text,json}] [--out OUT]\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --spec SPEC           sum spec: a JSON file or inline 'A:2,B:1'\n"
    "  --knot KNOT           knot document file or catalog name (repeatable)\n"
    "  --tb-min TB_MIN       window floor (overrides --depth)\n"
    "  --depth DEPTH         window depth below the top level (default 8)\n"
    "  --format {text,json}\n"
    "  --out OUT             write the primary output to this file\n"
)


def invalid_choice(token):
    return TOP_USAGE + (
        f"legsum: error: argument command: invalid choice: {token!r} (choose from 'validate', "
        "'render', 'peaks', 'valleys', 'sum', 'fiber', 'simple', 'criterion', 'witness', "
        "'canonical', 'xy', 'path-search', 'nmax')\n"
    )


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# --- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["nope"],
        ["sum"],  # --spec required
        ["fiber", "--spec", "B:2"],  # --tb/--r required
        ["validate"],  # --knot required exactly once
        ["validate", "--knot", "A", "--knot", "B"],
        ["path-search", "--spec", "A,C"],  # --start/--end required
        ["render", "--knot", "A", "--render", "png"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        capsys.readouterr()


def test_domain_errors_exit_1(capsys):
    for argv in (
        ["validate", "--knot", "Zq"],  # neither file nor catalog name
        ["sum", "--spec", "Zq:2"],  # unknown knot in inline spec
        ["witness", "--spec", "A:2"],  # spec is simple, no witness exists
        ["canonical", "--spec", "A:1,B:1", "--tb", "0", "--r", "0"],  # needs one summand
        ["xy", "--spec", "A:2", "--tb", "1", "--r", "1"],  # parity mismatch
        ["sum", "--spec", "B:2", "--tb-min", "5"],  # window above the top level
        ["nmax", "--spec", "B:2", "--tb-min", "5"],
        ["nmax", "--spec", "C", "--tb-min", "2"],  # one peak: the box floor is the top
        ["nmax", "--spec", "B:2", "--depth", "-1"],
        ["render", "--spec", "B:2", "--depth", "-1"],  # negative depth
        ["render", "--knot", "A", "--depth", "-1"],
        ["path-search", "--spec", "A,B", "--start=-1,-3;0,-4", "--end=0,-2;-1,-5", "--depth=-3"],
        ["path-search", "--spec", "A,B", "--start=-1,-3;0,-4", "--end=0,-2;-1,-5", "--max-len=-1"],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert err.startswith("error: "), argv
        assert out == "", argv


def test_canonical_and_xy_need_both_point_coordinates(capsys):
    for command in ("canonical", "xy"):
        for point in ([], ["--tb", "1"], ["--r", "0"]):
            with pytest.raises(SystemExit) as err:
                main([command, "--spec", "A:2", *point])
            assert err.value.code == 2
            cap = capsys.readouterr()
            assert cap.out == "" and cap.err.endswith("error: --tb and --r are required here\n"), (command, point)


def test_path_search_needs_two_summands_of_count_one(capsys):
    rc, out, err = run(capsys, "path-search", "--spec", "A:2", "--start=0,2;0,-2", "--end=0,2;0,-2")
    assert (rc, out) == (1, "")
    assert err == "error: path-search needs a spec with exactly two summands of count 1\n"


@pytest.mark.parametrize("data, needle", UNPARSABLE_JSON)
def test_documents_too_deep_or_long_to_parse_exit_1(capsys, tmp_path, data, needle):
    doc = tmp_path / "big.json"
    doc.write_text(data)
    for argv in (["validate", "--knot", str(doc)], ["criterion", "--spec", str(doc)]):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, ""), argv
        assert err.startswith(f"error: {doc}: ") and needle in err and "Traceback" not in err, argv


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no integer digit limit")
def test_over_long_integer_reports_the_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    doc = tmp_path / "big.json"
    doc.write_text('{"name": "X", "peaks": [[0, ' + "1" * max(5000, limit + 1) + "]]}")
    rc, out, err = run(capsys, "validate", "--knot", str(doc))
    assert (rc, out) == (1, "")
    assert err == f"error: {doc}: an integer has more than {limit} digits\n"


def test_main_accepts_argv_tuple(capsys):
    assert main(("validate", "--knot", "A")) == 0
    capsys.readouterr()


# --- validate ---------------------------------------------------------------------


def test_validate_catalog_name(capsys):
    rc, out, err = run(capsys, "validate", "--knot", "A")
    assert (rc, err) == (0, "")
    assert out == "knot\tA\nvalid\ttrue\n"


def test_validate_json(capsys):
    rc, out, _ = run(capsys, "validate", "--knot", "A", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "command": "validate",
        "source": "A",
        "knot": "A",
        "valid": True,
        "violations": [],
    }


def test_validate_file(capsys, tmp_path):
    p = tmp_path / "d.json"
    p.write_text('{"name": "D", "genus": 3, "peaks": [[0, -2], [0, 4]]}')
    rc, out, err = run(capsys, "validate", "--knot", str(p))
    assert (rc, err) == (0, "")
    assert "knot\tD" in out


def test_validate_and_peaks_file_json_golden(capsys, tmp_path):
    p = tmp_path / "d.json"
    p.write_text('{"name": "D", "genus": 3, "peaks": [[0, -2], [0, 4]]}')
    rc, out, err = run(capsys, "validate", "--knot", str(p), "--format", "json")
    assert (rc, err) == (0, "")
    assert out == (
        '{\n  "command": "validate",\n  "knot": "D",\n'
        f'  "source": {json.dumps(str(p))},\n'
        '  "valid": true,\n  "violations": []\n}\n'
    )
    rc, out, err = run(capsys, "peaks", "--knot", str(p), "--format", "json")
    assert (rc, err) == (0, "")
    assert out == (
        '{\n  "command": "peaks",\n  "knot": "D",\n  "peaks": [\n'
        '    [\n      0,\n      -2\n    ],\n    [\n      0,\n      4\n    ]\n  ]\n}\n'
    )


def test_validate_invalid_document(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"name": "X", "peaks": [[0, 0], [-1, 1]]}')
    rc, out, err = run(capsys, "validate", "--knot", str(p))
    assert rc == 1
    assert err == ""  # a clean verdict, not a crash: violations go to stdout
    assert out.startswith("valid\tfalse\n")
    assert "violation\tvalley-misplaced" in out

    rc, out, _ = run(capsys, "validate", "--knot", str(p), "--format", "json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert {v["code"] for v in payload["violations"]} >= {"valley-misplaced"}


# --- enumeration commands -----------------------------------------------------------


def test_peaks_knot(capsys):
    rc, out, _ = run(capsys, "peaks", "--knot", "B")
    assert rc == 0
    assert out == "knot\tB\npeak\t0\t-4\npeak\t0\t0\npeak\t0\t4\n"


def test_peaks_spec_json(capsys):
    rc, out, _ = run(capsys, "peaks", "--spec", "A:2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["spec"] == "A^2"
    assert payload["count"] == 3 == payload["formula"]
    assert [p["point"] for p in payload["peaks"]] == [[1, -4], [1, 0], [1, 4]]


def test_valleys_knot(capsys):
    rc, out, _ = run(capsys, "valleys", "--knot", "A")
    assert rc == 0
    assert out == "knot\tA\nvalley\t-2\t0\tpeaks 0,1\n"


def test_valleys_spec(capsys):
    rc, out, _ = run(capsys, "valleys", "--spec", "A:2", "--depth", "2")
    assert rc == 0
    assert out == (
        "spec\tA^2\n"
        "valley\t-1\t-2\tA(0,-2)|A(-2,0)\n"
        "valley\t-1\t2\tA(0,-2)|A(-2,4)\n"
    )


def test_sum_window(capsys):
    rc, out, _ = run(capsys, "sum", "--spec", "C", "--tb-min", "0")
    assert rc == 0
    assert out == (
        "spec\tC\ntop_tb\t1\ntb_min\t0\nnodes\t3\nedges\t2\n"
        "node\t1\t0\t1\tC(1,0)\nnode\t0\t-1\t1\tC(0,-1)\nnode\t0\t1\t1\tC(0,1)\n"
    )
    rc, out, _ = run(capsys, "sum", "--spec", "B:2", "--depth", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["node_count"] == 42
    assert payload["tb_min"] == -2


def test_sum_text_formats_one_id_per_class(monkeypatch, capsys):
    # Text prints sizes and keys only, so no member id is formatted.
    calls = []
    id_string = legsum.TupleClass.id_string

    def counted(t):
        calls.append(t)
        return id_string(t)

    monkeypatch.setattr(legsum.TupleClass, "id_string", counted)
    rc, out, _ = run(capsys, "sum", "--spec", "U1,A", "--depth", "10", "--format", "text")
    assert rc == 0
    nodes = [row for row in out.splitlines() if row.startswith("node\t")]
    assert len(nodes) == 87 and len(calls) == len(nodes)


def test_fiber(capsys):
    rc, out, _ = run(capsys, "fiber", "--spec", "B:2", "--tb", "1", "--r", "0")
    assert rc == 0
    assert out == (
        "spec\tB^2\npoint\t1\t0\nclasses\t2\n"
        "class\t0\t1\tB(0,-4)|B(0,4)\nmember\t0\tB(0,-4)|B(0,4)\n"
        "class\t1\t1\tB(0,0)|B(0,0)\nmember\t1\tB(0,0)|B(0,0)\n"
    )


def test_text_fiber_formats_each_id_once(monkeypatch, capsys):
    # Text lists one row per class and per member; no JSON payload is made beside it.
    calls = []
    id_string = legsum.TupleClass.id_string

    def counted(t):
        calls.append(t)
        return id_string(t)

    monkeypatch.setattr(legsum.TupleClass, "id_string", counted)
    rc, out, _ = run(capsys, "fiber", "--spec", "A:2,B:2", "--tb", "1", "--r", "0")
    assert rc == 0
    rows = out.splitlines()
    classes = [row for row in rows if row.startswith("class\t")]
    members = [row for row in rows if row.startswith("member\t")]
    assert len(classes) > 1 and len(members) > len(classes)
    assert len(calls) == len(members) + len(classes)


def test_fiber_json_golden(capsys):
    rc, out, err = run(capsys, "fiber", "--spec", "B:2", "--tb", "1", "--r", "0", "--format", "json")
    assert (rc, err) == (0, "")
    assert out == GOLDEN_B2_FIBER_JSON


def test_fiber_empty_point(capsys):
    # Wrong parity: the fiber is empty but the request itself is fine.
    rc, out, _ = run(capsys, "fiber", "--spec", "B:2", "--tb", "1", "--r", "1")
    assert rc == 0
    assert "classes\t0" in out


def test_fiber_outside_the_sum(capsys):
    # Wrong parity, and a point outside every cone: both lie outside the box
    # too, where a point of the sum would have one class.
    for point in (("--tb=-6", "--r=0"), ("--tb=5", "--r=-100")):
        rc, out, err = run(capsys, "fiber", "--spec", "A,B", *point)
        assert (rc, err) == (0, "")
        assert "classes\t0\n" in out


def count_walks(monkeypatch) -> collections.Counter:
    """Walks of a point by ``_Generators.walk``, as tuples or as ids, by point, from now on."""
    walked = collections.Counter()
    walk = legsum.sums._Generators.walk

    def counted(gens, tb, r, text):
        walked[tb, r] += 1
        return walk(gens, tb, r, text)

    monkeypatch.setattr(legsum.sums._Generators, "walk", counted)
    return walked


def test_sum_json_walk_each_point_once(monkeypatch, capsys):
    walked = count_walks(monkeypatch)
    rc, out, _ = run(capsys, "sum", "--spec", "A:2,B:2", "--depth", "6", "--format", "json")
    assert rc == 0
    classes = collections.Counter(tuple(node["point"]) for node in json.loads(out)["nodes"])
    assert 1 in classes.values() and max(classes.values()) > 1
    assert walked == dict.fromkeys(classes, 1)


def test_sum_text_walk_each_point_once(monkeypatch, capsys):
    walked = count_walks(monkeypatch)
    rc, out, _ = run(capsys, "sum", "--spec", "A:2,B:2", "--depth", "6", "--format", "text")
    assert rc == 0
    rows = [row.split("\t") for row in out.splitlines()]
    classes = collections.Counter((int(row[1]), int(row[2])) for row in rows if row[0] == "node")
    assert 1 in classes.values() and max(classes.values()) > 1
    assert walked == dict.fromkeys(classes, 1)


def test_sum_json_lists_one_class_points_without_tuples(monkeypatch, capsys):
    made = collections.Counter()
    init = legsum.TupleClass.__init__

    def counted(t, factors):
        init(t, factors)
        made[t.invariants()] += 1

    monkeypatch.setattr(legsum.TupleClass, "__init__", counted)
    rc, out, _ = run(capsys, "sum", "--spec", "A:2,B:2", "--depth", "6", "--format", "json")
    assert rc == 0
    classes = collections.Counter(tuple(node["point"]) for node in json.loads(out)["nodes"])
    assert made and 1 in classes.values()
    assert all(classes[point] > 1 for point in made)


def test_fiber_json_walks_its_one_class_point_once(monkeypatch, capsys):
    walked = count_walks(monkeypatch)
    rc, out, _ = run(capsys, "fiber", "--spec", "A:2", "--tb=-1", "--r=0", "--format", "json")
    assert rc == 0 and json.loads(out)["class_count"] == 1
    assert walked == {(-1, 0): 1}


def test_sum_and_simple_make_no_parent_list(capsys, monkeypatch):
    windows = []
    for module in (sys.modules["legsum.cli"], sys.modules["legsum.simplicity"]):
        build = module.build_quotient
        monkeypatch.setattr(module, "build_quotient", lambda *a, build=build, **k: windows.append(build(*a, **k)) or windows[-1])
    for argv in (["sum", "--format", "json"], ["sum", "--format", "text"], ["simple"]):
        assert run(capsys, *argv, "--spec", "A:2,B:2", "--depth", "6")[0] == 0
    assert len(windows) == 3 and not any("_up" in vars(w) for w in windows)
    # Parent lists made later read as those of a fresh window.
    spec = legsum.SumSpec.of([(legsum.catalog()["A"], 2), (legsum.catalog()["B"], 2)])

    def analyses(w):
        keys = lambda nodes: [n.key for n in nodes]
        parents = [w.parents(n.key, sign) for n in w for sign in (None, "+", "-")]
        return parents, keys(legsum.detect_peaks(w)), keys(legsum.detect_valleys(w)), legsum.nonsimple_report(w)

    for w in windows:
        assert analyses(w) == analyses(legsum.build_quotient(spec, w.tb_min))


# --- simplicity commands -------------------------------------------------------------


def test_simple_nonsimple_spec(capsys):
    rc, out, _ = run(capsys, "simple", "--spec", "B:2", "--depth", "2")
    assert rc == 0
    assert out == (
        "spec\tB^2\ncriterion_simple\tfalse\nmatched_case\tnone\n"
        "simple_in_window\tfalse\ntb_min\t-1\n"
        "witness_point\t1\t0\nwitness_a\tB(0,-4)|B(0,4)\nwitness_b\tB(0,0)|B(0,0)\n"
    )


def test_simple_simple_spec_json(capsys):
    rc, out, _ = run(capsys, "simple", "--spec", "A:2", "--depth", "2", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    # The closed-form criterion and the window oracle stay separate keys.
    assert payload["criterion"]["simple"] is True
    assert payload["criterion"]["matched_case"] == "one-two-peak-with-multiplicity>=2"
    assert payload["window"]["simple_in_window"] is True
    assert payload["window"]["witness"] is None


def test_criterion(capsys):
    rc, out, _ = run(capsys, "criterion", "--spec", "U1:3")
    assert rc == 0
    assert out == (
        "spec\tU1^3\nsimple\ttrue\nmatched_case\tall-one-peak\nsummand\tU1\t3\t1\n"
    )


def test_witness(capsys):
    rc, out, _ = run(capsys, "witness", "--spec", "B:2")
    assert rc == 0
    assert out == (
        "spec\tB^2\npoint\t-1\t0\n"
        "tuple_a\tB(-1,-3)|B(-1,3)\ntuple_b\tB(-1,-1)|B(-1,1)\n"
    )


def test_canonical(capsys):
    rc, out, _ = run(capsys, "canonical", "--spec", "A:2", "--tb", "1", "--r", "0")
    assert rc == 0
    assert out == "a\t0\nb\t0\np\t1\nq\t1\n"
    rc, out, _ = run(capsys, "canonical", "--spec", "A:2", "--tb", "1", "--r", "1")
    assert rc == 0
    assert out == "form\tabsent\n"


def test_xy(capsys):
    rc, out, _ = run(capsys, "xy", "--spec", "A:2", "--tb", "1", "--r", "0")
    assert rc == 0
    assert out == "x\t2\ny\t-2\n"


def test_nmax(capsys):
    rc, out, _ = run(capsys, "nmax", "--spec", "B:2", "--depth", "3")
    assert rc == 0
    assert out == "spec\tB^2\ntb_min\t-2\nsimple\tfalse\ncandidate\t1\t0\t2\tcase1\n"


# --- path search ---------------------------------------------------------------------


def test_path_search_found(capsys):
    rc, out, _ = run(
        capsys, "path-search", "--spec", "A,C", "--start=-1,3;1,0", "--end=0,2;0,1"
    )
    assert rc == 0
    assert out == "found\ttrue\nword\t+^-1\nlength\t1\n"


def test_path_search_bounded_miss(capsys):
    rc, out, _ = run(
        capsys,
        "path-search", "--spec", "A,C",
        "--start=-1,-1;0,1", "--end=-1,1;0,-1", "--max-len", "1",
    )
    assert rc == 0
    assert out == "found\tfalse\nnote\tno word within length 1 and floor -8\n"


def test_path_search_invariant_mismatch(capsys):
    rc, out, err = run(
        capsys, "path-search", "--spec", "A,C", "--start=0,-2;1,0", "--end=0,2;1,0"
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error: invariant mismatch:")


def test_path_search_bad_endpoint_shape(capsys):
    rc, _, err = run(
        capsys, "path-search", "--spec", "A,C", "--start=1,2,3", "--end=0,2;0,1"
    )
    assert rc == 1
    assert "--start must look like 'tb,r;tb,r'" in err


def test_path_search_json(capsys):
    rc, out, _ = run(
        capsys,
        "path-search", "--spec", "A,C",
        "--start=-1,-1;0,1", "--end=-1,1;0,-1", "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["found"] is True
    assert payload["word"] == "-^-1 +"
    assert payload["length"] == 2
    assert payload["start"] == [[-1, -1], [0, 1]]
    assert payload["tb_floor"] == -8


# --- render ---------------------------------------------------------------------------


def test_render_ascii_golden_to_stdout(capsys):
    rc = main(["render", "--knot", "A", "--depth", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == GOLDEN_A_ASCII


def test_render_out_file_and_summary(capsys, tmp_path):
    target = tmp_path / "a.txt"
    rc, out, _ = run(capsys, "render", "--knot", "A", "--depth", "2", "--out", str(target))
    assert rc == 0
    assert target.read_text() == GOLDEN_A_ASCII
    assert out == f"model\tA\nformat\tascii\npoints\t11\nout\t{target}\n"


def test_render_svg_marks_multiplicity(capsys, tmp_path):
    target = tmp_path / "b.svg"
    rc, _, _ = run(
        capsys,
        "render", "--spec", "B:2", "--depth", "2", "--render", "svg", "--out", str(target),
    )
    assert rc == 0
    svg = target.read_text()
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    # Fiber-size-2 points render as a filled square with the count inside.
    assert '<rect x=' in svg and "#8e44ad" in svg and ">2</text>" in svg


def test_render_empty_window_placeholder(capsys):
    rc = main(["render", "--spec", "A:2", "--tb-min", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == "(empty diagram)\n"


def test_render_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "r1.svg", tmp_path / "r2.svg"
    for f in (f1, f2):
        run(capsys, "render", "--spec", "A:2", "--depth", "3", "--render", "svg", "--out", str(f))
    assert f1.read_bytes() == f2.read_bytes()


def test_render_summary_counts_the_window_points(capsys, tmp_path, grid_specs):
    target = tmp_path / "w.txt"
    for spec in grid_specs:
        arg = ",".join(f"{s.knot_id}:{s.count}" for s in spec.summands)
        for depth in (0, 3, 8):
            rc, out, _ = run(capsys, "render", "--spec", arg, "--depth", str(depth), "--out", str(target))
            points = len(legsum.build_quotient(spec, spec.top_tb - depth).points())
            assert (rc, out.splitlines()[2]) == (0, f"points\t{points}"), (arg, depth)


def test_render_refuses_a_figure_over_the_point_limit(capsys, monkeypatch):
    made = []
    level_points = legsum.sums._Generators.level_points
    monkeypatch.setattr(legsum.sums._Generators, "level_points", lambda gens, tb: made.append(tb) or level_points(gens, tb))
    # A's rows from its top 0 down hold 2, 4 and 5 points: 11 > 10 at the third.
    monkeypatch.setattr(legsum.sums, "_MAX_POINTS", 10)
    rc, out, err = run(capsys, "render", "--spec", "A", "--depth", "100000", "--render", "svg")
    assert (rc, out) == (1, "")
    assert err == "error: figure too large: its rows from tb 0 down to -2 hold 11 points, more than the limit of 10\n"
    assert made == [0, -1, -2]
    rc, out, _ = run(capsys, "render", "--spec", "A", "--depth", "1", "--out", os.devnull)
    assert (rc, out.splitlines()[2]) == (0, "points\t6")
    monkeypatch.undo()
    # The limit lies above the deepest figure the CI guards draw, A at depth 1000.
    gens = legsum.sums._Generators(legsum.SumSpec.of([(legsum.catalog()["A"], 1)]))
    assert sum(len(gens.level_points(-depth)) for depth in range(1001)) == 503502 < legsum.sums._MAX_POINTS
    rc, out, err = run(capsys, "render", "--spec", "A", "--depth", "100000")
    assert (rc, out) == (1, "")
    assert err.startswith("error: figure too large: ") and f"the limit of {legsum.sums._MAX_POINTS}\n" in err


def test_sum_and_valleys_refuse_a_window_over_the_point_limit(capsys, monkeypatch):
    made = []
    level_points = legsum.sums._Generators.level_points
    monkeypatch.setattr(legsum.sums._Generators, "level_points", lambda gens, tb: made.append(tb) or level_points(gens, tb))
    # Windows read their rows through the same budget as figures: A's rows
    # from its top 0 down hold 2, 4 and 5 points, 11 > 10 at the third.
    monkeypatch.setattr(legsum.sums, "_MAX_POINTS", 10)
    for argv in (["sum", "--spec", "A"], ["sum", "--spec", "A", "--format", "text"], ["valleys", "--spec", "A"]):
        made.clear()
        rc, out, err = run(capsys, *argv, "--depth", "100000")
        assert (rc, out) == (1, ""), argv
        assert err == "error: window too large: its rows from tb 0 down to -2 hold 11 points, more than the limit of 10\n"
        assert made == [0, -1, -2]
    spec = legsum.SumSpec.of([(legsum.catalog()["A"], 1)])
    with pytest.raises(legsum.LegsumError, match="^window too large: "):
        legsum.build_quotient(spec, -100000)
    monkeypatch.undo()
    # The limit lies above the largest tier-1 window, A at depth 400.
    gens = legsum.sums._Generators(spec)
    assert sum(len(gens.level_points(-depth)) for depth in range(401)) == 81402 < legsum.sums._MAX_POINTS
    for command in ("sum", "valleys"):
        rc, out, err = run(capsys, command, "--spec", "A", "--depth", "100000")
        assert (rc, out) == (1, "")
        assert err == "error: window too large: its rows from tb 0 down to -1411 hold 1000401 points, more than the limit of 1000000\n"


# --- shared plumbing --------------------------------------------------------------------


def test_out_writes_text_payload(capsys, tmp_path):
    target = tmp_path / "crit.txt"
    rc, out, _ = run(capsys, "criterion", "--spec", "U1:3", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text().startswith("spec\tU1^3\n")


def test_out_into_missing_directory_exits_1(capsys, tmp_path):
    missing = tmp_path / "missing"
    for argv in (
        ["criterion", "--spec", "A", "--out", str(missing / "x.txt")],
        ["render", "--spec", "A:2", "--depth", "2", "--render", "svg", "--out", str(missing / "x.svg")],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert err.startswith("error: "), argv
        assert out == "", argv
    assert not missing.exists()


def test_knot_flag_registers_document(capsys, tmp_path):
    p = tmp_path / "d.json"
    p.write_text('{"name": "D", "genus": 3, "peaks": [[0, -2], [0, 4]]}')
    rc, out, _ = run(capsys, "criterion", "--spec", "D:2", "--knot", str(p))
    assert rc == 0
    assert "matched_case\tone-two-peak-with-multiplicity>=2" in out


def test_spec_document_file(capsys, tmp_path):
    p = tmp_path / "spec.json"
    p.write_text('{"summands": [{"knot": "B", "count": 2}]}')
    rc, out, _ = run(capsys, "criterion", "--spec", str(p))
    assert rc == 0
    assert "simple\tfalse" in out


def test_directories_do_not_shadow_catalog_names(capsys, tmp_path, monkeypatch):
    # A directory named like a knot or an inline spec is not a document.
    want = {}
    for argv in (("validate", "--knot", "A"), ("criterion", "--spec", "A,B"), ("sum", "--spec", "B:2", "--depth", "2")):
        want[argv] = run(capsys, *argv)
        assert want[argv][0] == 0, argv
    monkeypatch.chdir(tmp_path)
    for name in ("A", "A,B", "B:2"):
        (tmp_path / name).mkdir()
    for argv, result in want.items():
        assert run(capsys, *argv) == result, argv


def test_knot_and_spec_files_still_win_over_names(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A").write_text('{"name": "D", "genus": 3, "peaks": [[0, -2], [0, 4]]}')
    rc, out, _ = run(capsys, "validate", "--knot", "A")
    assert rc == 0 and out.startswith("knot\tD\n")
    (tmp_path / "A,B").write_text('{"summands": [{"knot": "B", "count": 2}]}')
    rc, out, _ = run(capsys, "criterion", "--spec", "A,B")
    assert rc == 0 and "spec\tB^2\n" in out


def test_values_longer_than_a_file_name_are_not_files(capsys):
    # The OS refuses to look such a name up (ENAMETOOLONG); it names no
    # document, so the value is read as an inline spec or a catalog name.
    def verdict(spec):
        rc, out, err = run(capsys, "criterion", "--spec", spec, "--format", "json")
        assert (rc, err) == (0, "")
        payload = json.loads(out)
        return payload["simple"], payload["matched_case"]

    assert verdict("A:1" + "0" * 260) == verdict("A:2") == (True, "one-two-peak-with-multiplicity>=2")
    rc, _, err = run(capsys, "validate", "--knot", "x" * 300)
    assert rc == 1 and "neither a knot file nor a catalog name" in err


def test_json_output_is_canonical_and_repeatable(capsys, tmp_path, monkeypatch):
    outs = []
    for _ in range(2):
        rc, out, _ = run(capsys, "nmax", "--spec", "B:2", "--depth", "3", "--format", "json")
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert list(payload) == sorted(payload)
    assert payload["candidates"] == [{"point": [1, 0], "fiber_size": 2, "case": "case1"}]
    # Every subcommand, the sum writer included, writes the bytes of the
    # standard library's canonical form.  render keeps --out: without it,
    # stdout carries the figure, not the JSON document.
    monkeypatch.chdir(tmp_path)
    for argv in VALID_ARGVS:
        argv = [*argv, "--format", "json"] if "--format" not in argv else argv
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first == second, argv
        rc, out, _ = first
        assert rc == 0, argv
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv


# --- parser -----------------------------------------------------------------------

# One valid argv per subcommand.
VALID_ARGVS = (
    ["validate", "--knot", "A"],
    ["render", "--spec", "A,B", "--render", "svg", "--depth", "3", "--out", "fig.svg"],
    ["peaks", "--knot", "A", "--format", "json"],
    ["valleys", "--spec", "A,B", "--tb-min", "-4"],
    ["sum", "--spec", "A:2", "--knot", "A", "--depth", "4"],
    ["fiber", "--spec", "B:2", "--tb", "1", "--r", "0"],
    ["simple", "--spec", "B:2", "--depth", "3"],
    ["criterion", "--spec", "A,B"],
    ["witness", "--spec", "B:2"],
    ["canonical", "--spec", "A:2", "--tb", "-1", "--r", "0"],
    ["xy", "--spec", "A:2", "--tb", "-1", "--r", "0"],
    ["path-search", "--spec", "A,B", "--start=-1,-3;0,-4", "--end=0,-2;-1,-5", "--max-len", "6"],
    ["nmax", "--spec", "B:2", "--depth", "3"],
)


def count_add_argument(monkeypatch):
    calls = []
    original = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    return calls


def test_only_the_invoked_subcommand_gets_options(monkeypatch, capsys):
    calls = count_add_argument(monkeypatch)
    assert main(["criterion", "--spec", "A,B"]) == 0
    # The top level's and criterion's -h, plus criterion's --spec, --knot,
    # --format and --out.
    assert len(calls) == 6
    calls.clear()
    with pytest.raises(SystemExit):
        main(["-h"])
    assert len(calls) == 87
    capsys.readouterr()


def test_every_subcommand_prints_its_own_help(capsys):
    full = build_parser()
    subparsers = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    assert len(subparsers.choices) == 13
    for name in subparsers.choices:
        with pytest.raises(SystemExit) as err:
            main([name, "-h"])
        assert err.value.code == 0
        out, err_text = capsys.readouterr()
        assert out.startswith(f"usage: legsum {name} [-h]") and err_text == "", name


def test_per_command_parser_parses_like_the_full_one():
    full = build_parser()
    subparsers = next(a for a in full._actions if isinstance(a, argparse._SubParsersAction))
    assert [argv[0] for argv in VALID_ARGVS] == list(subparsers.choices)
    for argv in VALID_ARGVS:
        assert vars(build_parser(argv[0]).parse_args(argv)) == vars(full.parse_args(argv)), argv


def test_help_and_usage_golden(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, golden in ((["-h"], GOLDEN_TOP_HELP), (["sum", "-h"], GOLDEN_SUM_HELP)):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert capsys.readouterr() == (golden, "")
    for argv, token in ((["bogus"], "bogus"), (["--", "sum"], "--")):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr() == ("", invalid_choice(token))
    for argv, code in (([], 2), (["--he"], 0), (["-x", "sum"], 2)):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == code, argv
        capsys.readouterr()


def test_console_entry_reads_sys_argv(capsys):
    argv = ["criterion", "--spec", "A,B"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    src = str(Path(legsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "legsum.cli", *argv], env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, expected)
    bare = subprocess.run(
        [sys.executable, "-m", "legsum.cli"], env=env, capture_output=True, text=True, timeout=60,
    )
    assert bare.returncode == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_command_lines_run_in_a_shell(tmp_path):
    # Each `legsum ...` line of the README's sh blocks, run as written by sh.
    lines, in_sh = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("legsum "):
            lines.append(line)
    assert len(lines) == 13
    src = str(Path(legsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for line in lines:
        command = f'"{sys.executable}" -m legsum.cli' + line[len("legsum"):]
        done = subprocess.run(
            ["sh", "-c", command], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, (line, done.stderr)


# --- window dump bytes ------------------------------------------------------------

WINDOW_DUMP_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "window_dump.sha256.json"


def test_window_dumps_match_recorded_digests(capsysbinary):
    # The benchmark's 40 `sum --format json` and `render --render svg` argvs
    # at depth 10, keyed by their space-joined argv; the file is only read.
    digests = json.loads(WINDOW_DUMP_DIGESTS.read_text(encoding="utf-8"))
    assert len(digests) == 40
    for key, want in sorted(digests.items()):
        assert main(key.split(" ")) == 0, key
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == want, key
