"""The benchmark workloads: seeded CLI argv lists and their output checks.

Every op is one ``legsum.cli.main(argv)`` call.  A workload's ``ops`` are
drawn once from the seeded ``rng``; each op carries a check that inspects the
exit code, stdout bytes and stderr text and returns ``None`` when the output
is right, or a short reason when it is not.

Why these two (the layer each loads and bypasses is in BENCHMARK.json and
in ``layer_map.json``):

* ``window_sweep`` builds quotient windows.  It answers "is this sum simple,
  and where does it fail?" for the whole 55-spec grid with ``simple`` and
  ``nmax``, where the ``sums`` partition dominates and no JSON or figure is
  made; and it writes 20 full windows as JSON and SVG, which puts member
  expansion, ``documents`` serialization and ``render`` on the path.  One
  pass takes about 10 to 12 s on a 2-core x86 VM with Python 3.11 at the
  seed commit.
* ``point_queries`` is a stream of single-point commands: ``enumerate_fiber``
  on one level, ``path-search``, and closed-form commands whose cost is
  argument parsing and catalog loading.  One pass takes about 5 s.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import legsum as L

GRID_NAMES = ("U1", "C", "A", "B", "Aprime")

# Window depth of the simple/nmax ops.  At depth 6 one pass takes about 43 s, longer
# than a run may last; at depth 3 it takes about 5 s and every window verdict
# still equals the closed-form criterion.
VERDICT_DEPTH = 3
# Window depth of the sum/render ops; JSON outputs reach about 140 KB.
DUMP_DEPTH = 10
# path-search endpoints lie in windows of this depth.
PATH_DEPTH = 6
# fiber queries reach this many levels below the top.
FIBER_LEVELS = 12
FIBER_SPECS = ("A,B", "B,Aprime", "A:2", "B:2")

# point_queries: ops and their mix: 55% cheap closed-form commands, 5% of
# which end in a domain error, 30% fiber and 15% path-search.  Cheap ops stay
# the majority so the median latency is a cheap op's.
POINT_OPS = 1000
POINT_FIBER = 300
POINT_PATH = 150
POINT_ERRORS = 28
# share of path-search ops whose endpoints lie in different classes
PATH_SPLIT_SHARE = 0.2

DIGESTS_FILE = Path(__file__).with_name("window_dump.sha256.json")

Check = Callable[[int, bytes, str], "str | None"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check

    @property
    def command(self) -> str:
        return self.argv[0]


def grid_specs(max_n: int) -> list[str]:
    """Inline specs of every multiset of catalog knots with total size <= max_n."""
    out = []
    for n in range(1, max_n + 1):
        for combo in itertools.combinations_with_replacement(GRID_NAMES, n):
            parts = []
            for name in GRID_NAMES:
                c = combo.count(name)
                if c:
                    parts.append(name if c == 1 else f"{name}:{c}")
            out.append(",".join(parts))
    return out


def summands(spec: str) -> list[tuple[str, int]]:
    out = []
    for tok in spec.split(","):
        name, _, count = tok.partition(":")
        out.append((name, int(count) if count else 1))
    return out


def expected_simple(spec: str, cat) -> bool:
    """The closed-form criterion, restated from its definition.

    Simple exactly when at most one summand has several peaks, and that
    summand has exactly two peaks or occurs once.
    """
    multi = [(c, cat[k].peak_count) for k, c in summands(spec) if cat[k].peak_count >= 2]
    return not multi or (len(multi) == 1 and (multi[0][0] == 1 or multi[0][1] == 2))


# --- output parsing ---------------------------------------------------------------------

_FACTOR = re.compile(r"^(\w+)\((-?\d+),(-?\d+)\)$")


def rows(out: bytes) -> list[list[str]]:
    return [line.split("\t") for line in out.decode("utf-8").splitlines()]


def first_rows(out: bytes) -> dict[str, list[str]]:
    table: dict[str, list[str]] = {}
    for row in rows(out):
        table.setdefault(row[0], row[1:])
    return table


def tuple_point(id_string: str, spec: str) -> tuple[int, int] | None:
    """Summed (tb, r) of a tuple id, or None when its factors do not fit the spec."""
    factors = []
    for part in id_string.split("|"):
        m = _FACTOR.match(part)
        if not m:
            return None
        factors.append((m.group(1), int(m.group(2)), int(m.group(3))))
    want = sorted(k for k, c in summands(spec) for _ in range(c))
    if sorted(f[0] for f in factors) != want:
        return None
    return (sum(f[1] for f in factors) + len(factors) - 1, sum(f[2] for f in factors))


def _domain_error(code: int, out: bytes, err: str) -> str | None:
    if code != 1:
        return f"exit {code}, expected 1"
    if not err.startswith("error:"):
        return "domain error without an 'error:' message"
    return None


# --- window_sweep -----------------------------------------------------------------------


def _check_simple(simple: bool) -> Check:
    want = str(simple).lower()

    def check(code, out, err):
        if code != 0:
            return f"exit {code}"
        t = first_rows(out)
        crit, window = t.get("criterion_simple"), t.get("simple_in_window")
        if crit != [want]:
            return f"criterion_simple {crit}, expected {want}"
        if window != crit:
            return f"simple_in_window {window} differs from criterion_simple {crit}"
        if not simple and ("witness_a" not in t or "witness_b" not in t):
            return "nonsimple window without a witness"
        return None

    return check


def _check_nmax(simple: bool) -> Check:
    want = str(simple).lower()

    def check(code, out, err):
        if code != 0:
            return f"exit {code}"
        table = rows(out)
        verdict = [r[1:] for r in table if r[0] == "simple"]
        if verdict != [[want]]:
            return f"simple {verdict}, expected {want}"
        cases = [r[-1] for r in table if r[0] == "candidate"]
        if not simple and not cases:
            return "nonsimple window without nmax candidates"
        bad = [c for c in cases if c not in ("case1", "case2")]
        if bad:
            return f"nmax candidate outside the dichotomy: {bad[0]}"
        return None

    return check


def _check_digest(want: str) -> Check:
    def check(code, out, err):
        if code != 0:
            return f"exit {code}"
        got = hashlib.sha256(out).hexdigest()
        if got != want:
            return f"output digest {got[:12]} differs from the recorded {want[:12]}"
        return None

    return check


def verdict_ops(cat) -> list[Op]:
    """All 55 grid specs, each running ``simple`` and ``nmax``."""
    ops = []
    for spec in grid_specs(3):
        simple = expected_simple(spec, cat)
        window = ("--spec", spec, "--depth", str(VERDICT_DEPTH))
        ops.append(Op(("simple",) + window, _check_simple(simple)))
        ops.append(Op(("nmax",) + window, _check_nmax(simple)))
    return ops


def dump_argvs() -> list[tuple[str, ...]]:
    out = []
    for spec in grid_specs(2):
        window = ("--spec", spec, "--depth", str(DUMP_DEPTH))
        out.append(("sum",) + window + ("--format", "json"))
        out.append(("render",) + window + ("--render", "svg"))
    return out


def digest_key(argv) -> str:
    return " ".join(argv)


def dump_ops() -> list[Op]:
    """All 20 specs of size <= 2: ``sum --format json`` and ``render --render svg``.

    The set of commands is fixed, so each output is compared by SHA-256 with
    the bytes recorded in ``window_dump.sha256.json``.
    """
    digests = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    return [Op(argv, _check_digest(digests[digest_key(argv)])) for argv in dump_argvs()]


class WindowSweep:
    """The 110 verdict ops, smallest sums first, then the 40 dump ops."""

    name = "window_sweep"

    def __init__(self, cat, rng):
        self.ops = verdict_ops(cat) + dump_ops()


# --- point_queries ----------------------------------------------------------------------


class PointQueries:
    """A seeded mix of single-point commands.

    Every seed draws the same number of ops of each kind, and fibers are
    spread evenly over specs and levels, so op lists drawn from different
    seeds cost about the same.
    """

    name = "point_queries"

    def __init__(self, cat, rng):
        self.cat = cat
        self.rng = rng
        self.specs = grid_specs(3)
        self.nonsimple = [s for s in self.specs if not expected_simple(s, cat)]
        self.simple = [s for s in self.specs if expected_simple(s, cat)]
        self.pairs = [f"{a},{b}" for a, b in itertools.combinations(GRID_NAMES, 2)]
        self._levels: dict[tuple[str, int], list[int]] = {}
        self._fibers: dict[tuple[str, int, int], list] = {}
        self._parsed: dict[str, L.SumSpec] = {}
        self._fiber_start: dict[int, int] = {}
        self.ops = self._draw()

    # -- model lookups, made outside the timed region --

    def spec(self, text: str) -> L.SumSpec:
        if text not in self._parsed:
            self._parsed[text] = L.parse_inline_sum(text, self.cat)
        return self._parsed[text]

    def level(self, text: str, tb: int) -> list[int]:
        """The r values with at least one class at this tb."""
        key = (text, tb)
        if key not in self._levels:
            spec = self.spec(text)
            rs = {t.invariants()[1] for t in L.iter_canonical_tuples(spec, tb - (spec.n - 1))}
            self._levels[key] = sorted(rs)
        return self._levels[key]

    def fiber(self, text: str, tb: int, r: int) -> list:
        key = (text, tb, r)
        if key not in self._fibers:
            self._fibers[key] = L.enumerate_fiber(self.spec(text), tb, r)
        return self._fibers[key]

    # -- op makers --

    def _criterion(self) -> Op:
        spec = self.rng.choice(self.specs)
        want = str(expected_simple(spec, self.cat)).lower()

        def check(code, out, err):
            if code != 0:
                return f"exit {code}"
            got = first_rows(out).get("simple")
            return None if got == [want] else f"criterion simple {got}, expected {want}"

        return Op(("criterion", "--spec", spec), check)

    def _witness(self) -> Op:
        spec = self.rng.choice(self.nonsimple)

        def check(code, out, err):
            if code != 0:
                return f"exit {code}"
            t = first_rows(out)
            point = (int(t["point"][0]), int(t["point"][1]))
            a, b = t["tuple_a"][0], t["tuple_b"][0]
            if a == b:
                return "witness tuples are equal"
            if tuple_point(a, spec) != point or tuple_point(b, spec) != point:
                return "witness tuples do not sit at the witness point"
            return None

        return Op(("witness", "--spec", spec), check)

    def _peaks(self) -> Op:
        spec = self.rng.choice(self.specs)
        want = math.prod(
            math.comb(self.cat[k].peak_count + c - 1, c) for k, c in summands(spec)
        )

        def check(code, out, err):
            if code != 0:
                return f"exit {code}"
            table = rows(out)
            peaks = [r for r in table if r[0] == "peak"]
            if first_rows(out).get("count") != [str(want)] or len(peaks) != want:
                return f"peak count differs from the formula {want}"
            for r in peaks:
                if tuple_point(r[3], spec) != (int(r[1]), int(r[2])):
                    return f"peak {r[3]} does not sit at ({r[1]},{r[2]})"
            return None

        return Op(("peaks", "--spec", spec), check)

    def _two_peak_form(self):
        """A random normal form of A^n or Aprime^n (n <= 4), its spec and its point."""
        knot = self.rng.choice(("A", "Aprime"))
        n = self.rng.randint(1, 4)
        q = self.rng.randint(0, n)
        form = L.CanonicalForm(self.rng.randint(0, 3), self.rng.randint(0, 3), n - q, q)
        rng = self.cat[knot]
        tb, r = L.form_point(rng, n, form)
        spec = knot if n == 1 else f"{knot}:{n}"
        return spec, n, rng, form, tb, r

    def _canonical(self) -> Op:
        spec, n, rng, _form, tb, r = self._two_peak_form()

        def check(code, out, err):
            if code != 0:
                return f"exit {code}"
            t = first_rows(out)
            got = L.CanonicalForm(*(int(t[k][0]) for k in ("a", "b", "p", "q")))
            if L.form_point(rng, n, got) != (tb, r):
                return f"canonical form {got} does not map back to ({tb},{r})"
            return None

        return Op(("canonical", "--spec", spec, f"--tb={tb}", f"--r={r}"), check)

    def _xy(self) -> Op:
        spec, n, rng, form, tb, r = self._two_peak_form()
        p1, p2 = rng.peaks
        v = rng.valleys()[0]
        want = (form.q * (p2.r - v.r) - form.b, form.p * (p1.r - v.r) + form.a)

        def check(code, out, err):
            if code != 0:
                return f"exit {code}"
            t = first_rows(out)
            got = (int(t["x"][0]), int(t["y"][0])) if "x" in t and "y" in t else None
            return None if got == want else f"xy {got}, expected {want}"

        return Op(("xy", "--spec", spec, f"--tb={tb}", f"--r={r}"), check)

    def _validate(self) -> Op:
        knot = self.rng.choice(GRID_NAMES)

        def check(code, out, err):
            if code != 0:
                return f"exit {code}"
            t = first_rows(out)
            return None if t.get("knot") == [knot] and t.get("valid") == ["true"] else "not reported valid"

        return Op(("validate", "--knot", knot), check)

    def _error(self, kind: int) -> Op:
        if kind == 0:
            return Op(("witness", "--spec", self.rng.choice(self.simple)), _domain_error)
        if kind == 1:
            spec, _n, _rng, _form, tb, r = self._two_peak_form()
            return Op(("xy", "--spec", spec, f"--tb={tb}", f"--r={r + 1}"), _domain_error)
        unknown = "K" + str(self.rng.randint(10, 99))
        return Op(("validate", "--knot", unknown), _domain_error)

    def _fiber(self, i: int) -> Op:
        # Ops are dealt round-robin over (spec, level) strata; within one
        # stratum the r values are evenly spaced over the level from a seeded
        # start, so every seed draws fibers of about the same cost.
        strata = len(FIBER_SPECS) * (FIBER_LEVELS + 1)
        stratum, k = i % strata, i // strata
        text = FIBER_SPECS[stratum % len(FIBER_SPECS)]
        spec = self.spec(text)
        tb = spec.top_tb - stratum // len(FIBER_SPECS)
        rs = self.level(text, tb)
        if k == 0:
            self._fiber_start[stratum] = self.rng.randrange(len(rs))
        per_stratum = -(-(POINT_FIBER - stratum) // strata)
        r = rs[(self._fiber_start[stratum] + k * len(rs) // per_stratum) % len(rs)]
        one_class = expected_simple(text, self.cat)

        def check(code, out, err):
            if code != 0:
                return f"exit {code}"
            table = rows(out)
            t = first_rows(out)
            classes = [row for row in table if row[0] == "class"]
            members = [row[2] for row in table if row[0] == "member"]
            if t.get("classes") != [str(len(classes))] or not classes:
                return "class count does not match the class rows"
            if one_class and len(classes) != 1:
                return f"{len(classes)} classes in a fiber of a simple sum"
            if sum(int(row[2]) for row in classes) != len(members) or len(set(members)) != len(members):
                return "member rows do not match the class sizes"
            if any(tuple_point(m, text) != (tb, r) for m in members):
                return "a member does not sit at the fiber point"
            return None

        return Op(("fiber", "--spec", text, f"--tb={tb}", f"--r={r}"), check)

    def _path(self, i: int) -> Op:
        text = self.pairs[i % len(self.pairs)]
        spec = self.spec(text)
        split = not expected_simple(text, self.cat) and self.rng.random() < PATH_SPLIT_SHARE
        while True:
            tb = spec.top_tb - self.rng.randint(0, PATH_DEPTH)
            classes = self.fiber(text, tb, self.rng.choice(self.level(text, tb)))
            if split and len(classes) >= 2:
                c1, c2 = self.rng.sample(classes, 2)
                t1, t2 = c1.representative, c2.representative
                break
            big = [c for c in classes if len(c.members) >= 2]
            if not split and big:
                t1, t2 = self.rng.sample(self.rng.choice(big).members, 2)
                break

        def endpoint(t) -> str:
            return ";".join(f"{f.tb},{f.r}" for f in t.factors)

        def check(code, out, err):
            if code != 0:
                return f"exit {code}"
            t = first_rows(out)
            if split:
                return None if t.get("found") == ["false"] else "inequivalent tuples were connected"
            if t.get("found") != ["true"] or "word" not in t:
                return "no word between equivalent tuples"
            word = L.parse_word(t["word"][0])
            if len(word) > 24 or not L.check_multipath(spec, [word, word.reverse()], t1, t2):
                return "the word is not a valid transfer path"
            return None

        argv = (
            "path-search", "--spec", text, "--depth", str(PATH_DEPTH),
            f"--start={endpoint(t1)}", f"--end={endpoint(t2)}",
        )
        return Op(argv, check)

    def _draw(self) -> list[Op]:
        ops = [self._fiber(i) for i in range(POINT_FIBER)]
        ops += [self._path(i) for i in range(POINT_PATH)]
        ops += [self._error(i % 3) for i in range(POINT_ERRORS)]
        cheap = (self._criterion, self._witness, self._peaks, self._canonical, self._xy, self._validate)
        n_cheap = POINT_OPS - len(ops)
        ops += [cheap[i % len(cheap)]() for i in range(n_cheap)]
        return ops


WORKLOADS = {w.name: w for w in (WindowSweep, PointQueries)}
