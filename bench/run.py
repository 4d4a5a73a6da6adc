"""Time legsum end to end and layer by layer, and write the record as JSON.

    PYTHONPATH=src python3 bench/run.py bench/BENCH_<n>.json [--no-tier1]

The record holds the Python version, the CPU count and the commit, then:

* ``processes``: each argv of :data:`ARGVS` run as a whole
  ``python -m legsum.cli`` process, best of 3, each run under a 60 s
  timeout.  A run that times out is recorded as such and not repeated.
* ``layers``: each layer of :func:`time_layers` timed in-process on its own,
  best of 5, on each spec of :data:`LAYER_SPECS` down to its floor, with
  counts of the boxed points read, the window's nodes and the members that
  the ``sum`` JSON document lists.
* ``tier1``: the wall time of one tier-1 run, unless ``--no-tier1``.

The script is stdlib-only and has no gate and no bound: a change is judged
by reading two records, one before it and one after.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

import legsum
from legsum import sums

ROOT = Path(__file__).resolve().parent.parent

# The fixed runs: each command on three sums at depths 8 and 12.
FIXED = [
    f"{command} --spec {spec} --depth {depth}"
    for command in ("simple", "nmax", "sum", "render")
    for spec in ("B:3", "A,B,Aprime", "A:2,B:2")
    for depth in (8, 12)
]
# Runs that still cost more than the interpreter's start-up.
COSTLY = [
    "sum --spec A:2,B:2 --depth 12",
    "sum --spec A,B,Aprime --depth 20 --format text",
    "sum --spec A,B,Aprime --depth 30 --format text",
    "simple --spec B:60 --depth 0",
    "simple --spec B:100 --depth 0",
    "nmax --spec B:400 --depth 0",
    "nmax --spec A:6,B:6,Aprime:6 --depth 100",
    "fiber --spec B,Aprime --tb=-1000 --r=3",
    "fiber --spec B,Aprime --tb=-1000 --r=3 --format json",
]
# Windows over the point limit, which end in a domain error.
OVER_LIMIT = ["sum --spec A --depth 100000", "valleys --spec A --depth 100000"]
ARGVS = list(dict.fromkeys(FIXED + COSTLY + OVER_LIMIT))

LAYER_SPECS = [("A:2,B:2", 12), ("B:3", 12)]


def environment() -> dict:
    """The Python version, the CPU count and the commit of the checkout (``dirty`` if it has changes)."""

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True).stdout.strip()

    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
    }


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}


def time_argv(argv: str, repeat: int = 3, timeout: float = 60) -> dict:
    """The best wall time of ``python -m legsum.cli argv`` over ``repeat`` runs, with its exit code.

    The wait blocks until the process ends, and a timer kills it at the
    timeout.  A wait with a timeout would poll, and add up to 50 ms a run.
    """
    best, code = None, None
    for _ in range(repeat):
        killed = []
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "legsum.cli", *argv.split()],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_child_env(),
        )
        timer = threading.Timer(timeout, lambda: (killed.append(True), proc.kill()))
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        if killed:
            return {"argv": argv, "best_s": None, "exit": None, "timeout_s": timeout}
        best = elapsed if best is None else min(best, elapsed)
    return {"argv": argv, "best_s": round(best, 4), "exit": code, "timeout_s": None}


def _best(run, setup, repeat: int) -> float:
    """The least time of ``run(setup())`` over ``repeat`` calls, timing ``run`` alone."""
    times = []
    for _ in range(repeat):
        arg = setup()
        start = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - start)
    return round(min(times), 6)


def time_layers(text: str, depth: int, repeat: int = 5) -> dict:
    """Each layer's best time on the sum ``text`` down to ``depth`` rows under its top, and the counts.

    Each timing starts from fresh inputs, made outside the timed call: a
    walk from a new builder, which has made none of its factor rows, and a
    JSON dump from a new window, none of whose points has been walked.  The
    walks read the middle point of the floor row.
    """
    documents = sys.modules["legsum.documents"]
    spec = documents.parse_inline_sum(text, legsum.catalog())
    tb_min = spec.top_tb - depth
    floor_row = sums._Generators(spec).level_points(tb_min)
    deep = (tb_min, floor_row[len(floor_row) // 2])
    same = lambda: None
    fresh_gens = lambda: sums._Generators(spec)
    seconds = {
        "validate_ranges": _best(lambda _: [rng.validate() for rng in spec.ranges], same, repeat),
        "generators": _best(lambda _: sums._Generators(spec), same, repeat),
        "walk_tuples": _best(lambda gens: list(gens.walk(*deep, False)), fresh_gens, repeat),
        "walk_ids": _best(lambda gens: list(gens.walk(*deep, True)), fresh_gens, repeat),
        "box_scan": _best(lambda _: list(sums._box_scan(spec, tb_min)), same, repeat),
        "build_quotient": _best(lambda _: sums.build_quotient(spec, tb_min), same, repeat),
        "render_svg": _best(lambda _: legsum.render(spec, legsum.RenderSpec("svg", tb_min)), same, repeat),
        "dump_sum_json": _best(lambda window: documents.dump_sum_json(spec.label(), window), lambda: sums.build_quotient(spec, tb_min), repeat),
    }
    gens = sums._Generators(spec)
    window = sums.build_quotient(spec, tb_min)
    counts = {
        "boxed_points": sum(hi - lo for _tb, _row, lo, hi in sums._level_rows(gens, spec.top_tb, tb_min, "window")),
        "nodes": len(window),
        "members_listed": sum(len(node.ids) for node in window),
        "walked_point": list(deep),
    }
    return {"spec": text, "depth": depth, "best_s": seconds, **counts}


def time_tier1() -> dict:
    """The wall time and the summary line of one tier-1 run."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - start, 1), "exit": done.returncode, "summary": lines[-1] if lines else ""}


def record(argvs: list[str], layer_specs: list[tuple[str, int]], tier1: bool, repeat: tuple[int, int] = (3, 5)) -> dict:
    """The whole record: the environment, then the processes, the layers and the tier-1 run."""
    return {
        **environment(),
        "processes": [time_argv(argv, repeat[0]) for argv in argvs],
        "layers": [time_layers(text, depth, repeat[1]) for text, depth in layer_specs],
        "tier1": time_tier1() if tier1 else None,
    }


def main(args: list[str]) -> int:
    if not args or args[0].startswith("-") or set(args[1:]) - {"--no-tier1"}:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(args[0])
    out.write_text(json.dumps(record(ARGVS, LAYER_SPECS, "--no-tier1" not in args), indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
