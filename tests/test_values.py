"""The value types behave as the frozen dataclasses they replace; importing legsum loads no dataclasses."""

from __future__ import annotations

import copy
import operator
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest

import legsum as L
from legsum import cli

from oracles import VALUE_FIELDS, dataclass_twin

SRC = Path(__file__).resolve().parents[1] / "src"
TWINS = {cls: dataclass_twin(cls) for cls in VALUE_FIELDS}


@pytest.fixture(scope="module")
def values(cat) -> list:
    """At least two values of every value type, some equal and some not."""
    A, B = cat["A"], cat["B"]
    spec, simple = L.SumSpec.of([(A, 1), (B, 2)]), L.SumSpec.of([(A, 1)])
    witness = L.nonsimplicity_witness(spec)
    report = L.nonsimple_report(L.build_quotient(spec, spec.top_tb - 3))
    plus = L.PathLetter("+", -1)
    out = [
        L.Peak(0, 2), L.Peak(0, -2), L.Peak(1, -2), L.Peak(0, 2), L.Peak(-1, 2),
        *A.valleys(), L.Valley(0, 0, 1, 2),
        L.SimpleClass("A", -1, 2), L.SimpleClass("B", 1, 0), L.SimpleClass("A", -1, 2),
        L.Violation("order", "m"), L.Violation("parity", "m"),
        A.validate(), L.make_range("X", [(0, 2), (0, 0)]).validate(),
        A.membership(-1, 1), A.membership(5, 5),
        A, B, L.MountainRange("A", A.peaks, genus=2), L.MountainRange("A", A.peaks),
        *spec.summands, spec, simple,
        witness.tuple_a, witness.tuple_b, L.TupleClass(()),
        L.Edge("x", "+", "y"), L.Edge("x", "-", "y"),
        *report.nmax, L.DichotomyVerdict((0, 0), 2, "case2"), report,
        L.nonsimple_report(L.build_quotient(simple, simple.top_tb - 2)),
        L.criterion(spec), L.criterion(simple),
        witness, L.WitnessPair(witness.point, witness.tuple_b, witness.tuple_a),
        L.simplicity_in_window(spec, spec.top_tb - 3), L.simplicity_in_window(simple, simple.top_tb - 3),
        L.CanonicalForm(1, 2, 3, 0), L.CanonicalForm(1, 2, 0, 3),
        L.XYInvariants(1, -2), L.XYInvariants(-2, 1),
        plus, L.PathLetter("0", -1), L.PathLetter("0"),
        L.PathWord((plus, L.PathLetter("-"))), L.PathWord(),
        L.RenderSpec(), L.RenderSpec("svg", -4), L.RenderSpec(tb_min=None),
        cli.Result({"a": 1}, "t"), cli.Result({}, "", figure=b"x", code=1, document="{}"),
    ]
    counts = {cls: sum(type(v) is cls for v in out) for cls in VALUE_FIELDS}
    assert min(counts.values()) >= 2 and len(out) == sum(counts.values()), counts
    return out


def twin(value):
    twin_cls = TWINS[type(value)]
    return twin_cls(*(getattr(value, f.name) for f in fields(twin_cls)))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def test_repr_hash_construction_and_match_args_match_the_twins(values):
    for value in values:
        cls, twin_cls, other = type(value), TWINS[type(value)], twin(value)
        assert repr(value) == repr(other)
        assert outcome(hash, value) == outcome(hash, other)
        assert cls.__match_args__ == twin_cls.__match_args__
        named = {f.name: getattr(value, f.name) for f in fields(twin_cls)}
        assert cls(**named) == value
        required = [v for (name, v), spec in zip(named.items(), VALUE_FIELDS[cls]) if isinstance(spec, str)]
        assert repr(cls(*required)) == repr(twin_cls(*required))


def test_equality_matches_the_twins(values):
    twins = [twin(v) for v in values]
    for x, tx in zip(values, twins):
        plain = tuple(getattr(x, name) for name in type(x).__match_args__)
        assert (x == tx, tx == x, x != tx, x == plain, x != plain) == (False, False, True, False, True)
        for y, ty in zip(values, twins):
            assert (x == y, x != y) == (tx == ty, tx != ty), (x, y)


def test_peaks_order_as_the_twins(values):
    peaks = [v for v in values if type(v) is L.Peak]
    for a in peaks:
        for b in peaks:
            ta, tb = twin(a), twin(b)
            assert (a < b, a <= b, a > b, a >= b) == (ta < tb, ta <= tb, ta > tb, ta >= tb)
        assert outcome(operator.lt, a, (0, 0)) is outcome(operator.lt, twin(a), (0, 0)) is TypeError
    assert [twin(p) for p in sorted(peaks)] == sorted(twin(p) for p in peaks)


def test_fields_are_frozen_as_in_the_twins(values):
    for value in values:
        for obj in (value, twin(value)):
            for name in (*type(value).__match_args__, "extra"):
                if type(value) is cli.Result:  # the one mutable type; change a copy
                    mutable = copy.copy(obj)
                    setattr(mutable, name, 0)
                    assert getattr(mutable, name) == 0
                    delattr(mutable, name)
                    continue
                with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                    setattr(obj, name, 0)
                with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                    delattr(obj, name)


def test_copies_and_pickles_are_equal(values):
    for value in values:
        for made in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(made) is type(value) and made == value and repr(made) == repr(value)
            assert outcome(hash, made) == outcome(hash, value)


def test_importing_legsum_loads_neither_dataclasses_nor_inspect():
    # A fresh, isolated interpreter: pytest itself has imported dataclasses.
    # On Python 3.12+ ``importlib.resources``, which the catalog reads through,
    # imports ``inspect`` itself; it is imported first, so only what legsum
    # adds is counted.
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "from importlib import resources\n"
        "before = set(sys.modules)\n"
        "import legsum.cli, legsum\n"
        "legsum.catalog()\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)), 'dataclasses' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[] False\n"
