"""legsum benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload window_sweep --seed 1 --seconds 55 --trace 0

One process, one thread and one client: each op is a ``legsum.cli.main(argv)``
call made in-process after the previous one returned.  The workload's argv
lists are drawn from ``--seed``; every op's exit code and output are checked,
and a wrong one counts as failed.

A run makes passes over the workload's ops, each pass in a fresh seeded
order, as many as fit in ``--seconds`` (at least MIN_PASSES).  An op's
latency is the median of its repetitions.

Times are reported at a reference speed of the machine.  The small shared
VMs this was sized on (2-core x86) switch between speed states up to 1.6x
apart that last from a second to minutes, so whole runs of the same code
differ by 30% in wall time.  A fixed piece of pure-Python work that uses no
legsum code, :func:`reference_work`, is timed every REF_INTERVAL_S between
ops, and every time of the program is multiplied by REF_NOMINAL_S over the
reference time measured next to it.  A change to the program moves the
scaled times as it moves the wall times; the machine's state does not.  The
unscaled values are printed on the ``meta`` line as ``wall_clock``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` two passes run untraced and then one
traced by ``spans.py``, and the last line reports the per-layer metrics of
the traced pass, in unscaled wall time; the kept spans are written to
``.perfbench_out/`` in the checkout.  Earlier lines carry the run metadata and a readable metric table.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3

# Set-up is measured in fresh interpreters, this many before each pass so the
# samples spread over the run, and the median is reported.  One warm-up
# interpreter first leaves compiled bytecode behind, as an installed package
# has.
SETUP_REPEATS = 2
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import legsum\n"
    "legsum.catalog()\n"
    "print(time.perf_counter() - t0)\n"
)

# reference_work() takes about this long in the fast state of the VMs the
# benchmark was sized on, with Python 3.11; times are scaled to it.
REF_NOMINAL_S = 1.25e-3
REF_INTERVAL_S = 0.1

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


def setup_seconds() -> float:
    """Seconds one fresh interpreter takes to import legsum and load the catalog."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def reference_work():
    """Fixed pure-Python work of the kind legsum does: tuples, dicts, str, sorting."""
    counts = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + len(str(i))
    return sorted(counts.items())[:5]


class Speed:
    """Timings of :func:`reference_work` taken through a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> int:
        """Time reference_work three times; keep the median and return its index."""
        xs = []
        for _ in range(3):
            t0 = perf_counter()
            reference_work()
            xs.append(perf_counter() - t0)
        self.samples.append(statistics.median(xs))
        self.last = perf_counter()
        return len(self.samples) - 1

    def tick(self) -> int:
        """Index of the latest sample, after taking one if REF_INTERVAL_S has passed."""
        if perf_counter() - self.last >= REF_INTERVAL_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor taking a time measured at sample ``index`` to the reference speed."""
        near = self.samples[max(0, index - 1) : index + 2]
        return REF_NOMINAL_S / statistics.median(near)


def execute(main, op) -> tuple[float, str | None]:
    """Run one op through ``main`` with captured streams; return (seconds, failure)."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = perf_counter()
    try:
        code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a failed run
        code, crash = None, f"{type(exc).__name__}: {exc}"
    else:
        crash = None
    finally:
        out.flush()
        elapsed = perf_counter() - t0
        sys.stdout, sys.stderr = saved
    if crash is not None:
        return elapsed, crash
    try:
        return elapsed, op.check(code, raw.getvalue(), err.getvalue())
    except (ValueError, IndexError, KeyError, legsum.LegsumError) as exc:
        # a check that cannot read or re-validate the output rejects it
        return elapsed, f"unreadable output ({type(exc).__name__}: {exc})"


class Run:
    """Every repetition's latency, per op, the failures seen and set-up samples.

    With a :class:`Speed`, each repetition also records the index of the
    reference sample taken just before it, in ``refs``.
    """

    def __init__(self, ops, speed: Speed | None = None):
        self.ops = ops
        self.speed = speed
        self.times: list[list[float]] = [[] for _ in ops]
        self.refs: list[list[int]] = [[] for _ in ops]
        self.failures: list[str] = []
        self.passes = 0
        self.setups: list[float] = []
        self.setups_wall: list[float] = []

    def do_pass(self, order, run_op) -> None:
        for i in order:
            op = self.ops[i]
            if self.speed is not None:
                self.refs[i].append(self.speed.tick())
            elapsed, failure = run_op(op)
            self.times[i].append(elapsed)
            if failure is not None:
                self.failures.append(f"{' '.join(op.argv)}: {failure}")
        self.passes += 1

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times)

    def scaled_times(self) -> list[list[float]]:
        return [
            [t * self.speed.scale(j) for t, j in zip(ts, js)]
            for ts, js in zip(self.times, self.refs)
        ]

    def setup(self) -> None:
        """One set-up sample, scaled by the reference times just before and after it."""
        before = self.speed.sample()
        seconds = setup_seconds()
        after = self.speed.sample()
        ref = (self.speed.samples[before] + self.speed.samples[after]) / 2
        self.setups_wall.append(seconds)
        self.setups.append(seconds * REF_NOMINAL_S / ref)

    def by_command(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for op, t in zip(self.ops, self.times):
            out[op.command] = out.get(op.command, 0) + len(t)
        return out


def measure(ops, seconds: float, rng, main) -> Run:
    """Whole passes until one more would end over half a pass past ``seconds``."""
    run = Run(ops, Speed())
    order = list(range(len(ops)))
    setup_seconds()
    t0 = perf_counter()
    while True:
        for _ in range(SETUP_REPEATS):
            run.setup()
        rng.shuffle(order)
        run.do_pass(order, lambda op: execute(main, op))
        elapsed = perf_counter() - t0
        if run.passes >= MIN_PASSES and elapsed * (1 + 0.5 / run.passes) > seconds:
            return run


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples above it."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs)


def timings(per_op: list[list[float]], setups: list[float]) -> tuple[dict, float]:
    """setup_s, ops_per_s, op_p50_ms and op_tail_ms, and the tail's percentile."""
    typical = [statistics.median(t) for t in per_op]
    tail_s, tail_pct = tail(typical)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(typical) / sum(typical),
        "op_p50_ms": 1000 * statistics.median(typical),
        "op_tail_ms": 1000 * tail_s,
    }, tail_pct


def end_to_end(run: Run) -> tuple[dict, dict]:
    values, tail_pct = timings(run.scaled_times(), run.setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    notes = {
        "wall_clock": timings(run.times, run.setups_wall)[0],
        "reference_s": {
            "median": statistics.median(run.speed.samples),
            "min": min(run.speed.samples),
            "max": max(run.speed.samples),
            "samples": len(run.speed.samples),
        },
        "repetitions_per_op": run.passes,
        "setup_s": {"samples": len(run.setups)},
        "op_p50_ms": {"samples": len(run.ops)},
        "op_tail_ms": {"percentile": tail_pct, "samples": len(run.ops)},
        "failed_frac": {"value": len(run.failures) / run.attempted, "unit": "ratio"},
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, notes


# --- traced run --------------------------------------------------------------------------

def _stat(tracer, kind, name):
    calls, incl, own = tracer.stats.get(name, (0, 0.0, 0.0))
    return {"calls": calls, "incl": incl, "self": own}[kind]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, untraced_wall: float) -> dict:
    s = lambda kind, name: _stat(tracer, kind, name)  # noqa: E731
    c = lambda key: tracer.counters.get(key, 0)  # noqa: E731
    wall = s("incl", "bench.op")
    values = {
        "sums.build_quotient_self_s": ("s", s("self", "sums.build_quotient")),
        "sums.relation_neighbors_s": ("s", s("incl", "sums.relation_neighbors")),
        "sums.relation_neighbors_calls": ("count", s("calls", "sums.relation_neighbors")),
        "sums.canonicalize_tuple_calls": ("count", s("calls", "sums.canonicalize_tuple")),
        "sums.canonicalize_tuple_s": ("s", s("incl", "sums.canonicalize_tuple")),
        "sums.neighbors_per_tuple": (
            "ratio", _ratio(c("sums.neighbors"), s("calls", "sums.relation_neighbors"))),
        "sums.iter_canonical_tuples_s": ("s", s("incl", "sums.iter_canonical_tuples")),
        "sums.tuples_enumerated": ("count", c("sums.iter_canonical_tuples.items")),
        "sums.classes_per_tuple": (
            "ratio", _ratio(c("sums.classes"), c("sums.iter_canonical_tuples.items"))),
        "sums.enumerate_fiber_s": ("s", s("incl", "sums.enumerate_fiber")),
        "sums.enumerate_fiber_calls": ("count", s("calls", "sums.enumerate_fiber")),
        "ranges.point_calls": ("count", s("calls", "ranges.MountainRange.point")),
        "ranges.contains_calls": ("count", s("calls", "ranges.MountainRange.contains")),
        "documents.to_jsonable_s": ("s", s("incl", "documents.to_jsonable")),
        "documents.dump_json_s": ("s", s("incl", "documents.dump_json")),
        "documents.json_bytes": ("B", c("documents.json_bytes")),
        "documents.catalog_s": ("s", s("incl", "documents.catalog")),
        "documents.catalog_calls": ("count", s("calls", "documents.catalog")),
        "documents.parse_inline_sum_s": ("s", s("incl", "documents.parse_inline_sum")),
        "cli.build_parser_s": ("s", s("incl", "cli.build_parser")),
        "cli.main_self_s": ("s", s("self", "cli.main")),
        "paths.find_connecting_path_s": ("s", s("incl", "paths.find_connecting_path")),
        "paths.find_connecting_path_calls": ("count", s("calls", "paths.find_connecting_path")),
        "paths.found_ratio": (
            "ratio", _ratio(c("paths.found"), s("calls", "paths.find_connecting_path"))),
        "poset.QuotientPoset_init_s": ("s", s("incl", "poset.QuotientPoset.__init__")),
        "poset.nodes": ("count", c("poset.nodes")),
        "poset.edges": ("count", c("poset.edges")),
        "poset.nonsimple_report_s": ("s", s("incl", "poset.nonsimple_report")),
        "poset.find_nmax_s": ("s", s("incl", "poset.find_nmax")),
        "poset.detect_valleys_s": ("s", s("incl", "poset.detect_valleys")),
        "simplicity.simplicity_in_window_self_s": ("s", s("self", "simplicity.simplicity_in_window")),
        "simplicity.criterion_s": ("s", s("incl", "simplicity.criterion")),
        "simplicity.nonsimplicity_witness_s": ("s", s("incl", "simplicity.nonsimplicity_witness")),
        "simplicity.canonical_form_s": ("s", s("incl", "simplicity.canonical_form")),
        "render.render_s": ("s", s("incl", "render.render")),
        "render.figure_bytes": ("B", c("render.figure_bytes")),
        "trace.overhead_frac": ("ratio", wall / untraced_wall - 1),
        "trace.wall_s": ("s", wall),
    }
    layers = tracer.layer_self()
    for layer in ("bench",) + LAYERS:
        values[f"{layer}.self_s"] = ("s", layers.get(layer, 0.0))
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}


def traced_pass(ops, main) -> tuple[Run, Run, Tracer]:
    """Two passes through ``main`` untraced, then the same ops in the same order traced.

    The first untraced pass warms caches and first calls up, so the second
    is the one the traced pass is compared with.  The traced pass looks
    ``cli.main`` up on every op, so it calls the wrapper :func:`install` put
    there.
    """
    order = list(range(len(ops)))
    plain = Run(ops)
    for _ in range(2):
        plain.do_pass(order, lambda op: execute(main, op))
    tracer = Tracer()

    def traced_op(op):
        tracer.op += 1
        tracer.active = True
        tracer.push("bench.op")
        try:
            _elapsed, failure = execute(cli.main, op)
        finally:
            elapsed = tracer.pop()
            tracer.active = False
        return elapsed, failure

    traced = Run(ops)
    patched = install(tracer)
    try:
        traced.do_pass(order, traced_op)
    finally:
        uninstall(patched)
    return plain, traced, tracer


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    rng = random.Random(args.seed)
    workload = WORKLOADS[args.workload](legsum.catalog(), rng)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    if args.trace:
        plain, run, tracer = traced_pass(workload.ops, cli.main)
        metrics = per_layer(tracer, sum(t[-1] for t in plain.times))
        layer_sum = sum(tracer.layer_self().values())
        wall = metrics["trace.wall_s"]["value"]
        meta["self_time_sum_s"] = layer_sum
        failures = plain.failures + run.failures
        attempted = plain.attempted + run.attempted
        consistent = abs(layer_sum - wall) <= 1e-6 * wall
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        meta["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        run = measure(workload.ops, args.seconds, rng, cli.main)
        metrics, notes = end_to_end(run)
        meta["notes"] = notes
        failures, attempted, consistent = run.failures, run.attempted, True
    meta.update(passes=run.passes, ops=run.attempted, ops_by_command=run.by_command(),
                failed=len(failures), failed_examples=failures[:5])
    print("meta " + json.dumps(meta, sort_keys=True))
    print_table(metrics)
    if args.trace == 0:
        print(f"  {'failed_frac':<44} {notes['failed_frac']['value']:>16.6g} ratio")
        for name, value in notes["wall_clock"].items():
            print(f"  {'wall_clock.' + name:<44} {value:>16.6g} {E2E_UNITS[name]}")
    result = {
        "correct": not failures and consistent,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__" and not (SRC / "legsum" / "__init__.py").is_file():
    sys.exit(f"perfbench: no legsum sources under {SRC}")
sys.path.insert(0, str(SRC))

import legsum  # noqa: E402
import legsum.cli as cli  # noqa: E402
from spans import LAYERS, Tracer, install, uninstall  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
