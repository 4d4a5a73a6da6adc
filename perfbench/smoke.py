"""Smoke check of the benchmark harness, on a few ops of each workload.

    python3 perfbench/smoke.py

Checks that a run prints every metric of BENCHMARK.json with its unit, in
both modes; that a corrupted output of every kind of op counts as a failure;
and that the traced run's layer self times add up to its wall time.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import unittest
from pathlib import Path

import run
from workloads import WORKLOADS, Op

import legsum

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# Few and cheap ops of every kind, so the check takes seconds: window_sweep
# lists the smallest sums of each command first, point_queries lists ops by kind.
SAMPLE = {"simple": 20, "nmax": 20, "sum": 5, "render": 5}


def sample_ops(name: str, seed: int = 7) -> list[Op]:
    ops = WORKLOADS[name](legsum.catalog(), random.Random(seed)).ops
    if name == "point_queries":
        return ops[::9]
    return [op for command, k in SAMPLE.items() for op in [o for o in ops if o.command == command][:k]]


def corrupt(code: int, out: bytes) -> tuple[int, bytes]:
    """A plausible wrong answer: flip booleans, or change the last digit."""
    if code != 0:
        return 0, out
    swapped = re.sub(rb"true|false|case1|case2", lambda m: {
        b"true": b"false", b"false": b"true", b"case1": b"case3", b"case2": b"case3",
    }[m.group(0)], out)
    if swapped != out:
        return code, swapped
    digits = [m.start() for m in re.finditer(rb"\d", out)]
    if not digits:
        return code, out + b"\n"
    i = digits[-1]
    return code, out[:i] + str((int(out[i : i + 1]) + 1) % 10).encode() + out[i + 1 :]


class Harness(unittest.TestCase):
    def run_main(self, workload: str, trace: int) -> tuple[dict, str]:
        ops = sample_ops(workload)

        class Few:
            name = workload

            def __init__(self, cat, rng):
                self.ops = ops

        saved = run.WORKLOADS[workload]
        run.WORKLOADS[workload] = Few
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])
        finally:
            run.WORKLOADS[workload] = saved
        self.assertEqual(code, 0)
        lines = buf.getvalue().splitlines()
        return json.loads(lines[-1]), "\n".join(lines[:-1])

    def test_workloads_match_benchmark_json(self):
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(WORKLOADS))

    def test_every_metric_is_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, table = self.run_main(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, unit in want.items():
                        self.assertRegex(table, rf"{re.escape(name)}\s+\S+ {re.escape(unit)}\b")
                    if trace == 0:
                        self.assertRegex(table, r"failed_frac\s+0 ratio")

    def test_corrupted_output_is_a_failure(self):
        for workload in WORKLOADS:
            for op in sample_ops(workload):
                with self.subTest(argv=" ".join(op.argv)):
                    seen = []
                    run.execute(legsum.cli.main, Op(op.argv, lambda *output: seen.append(output)))
                    code, out, err = seen[0]
                    self.assertIsNone(op.check(code, out, err))
                    bad_code, bad_out = corrupt(code, out)
                    self.assertIsNotNone(op.check(bad_code, bad_out, err))

    def test_failed_op_is_counted(self):
        op = sample_ops("window_sweep")[0]

        def garbage(argv):
            print("nonsense")
            return 0

        r = run.Run([op])
        r.do_pass([0], lambda o: run.execute(garbage, o))
        self.assertEqual((r.attempted, len(r.failures)), (1, 1))

    def test_times_are_scaled_to_the_reference_speed(self):
        speed = run.Speed()
        speed.samples = [2 * run.REF_NOMINAL_S, 2 * run.REF_NOMINAL_S, 4 * run.REF_NOMINAL_S]
        r = run.Run(sample_ops("window_sweep")[:1], speed)
        r.times, r.refs = [[0.010, 0.020]], [[0, 1]]
        # each time is scaled by the median of its own sample and the two beside it
        self.assertEqual(r.scaled_times(), [[0.005, 0.010]])

    def test_self_times_add_up_and_patches_are_undone(self):
        original = legsum.sums.build_quotient
        ops = sample_ops("window_sweep")[:6]
        _plain, traced, tracer = run.traced_pass(ops, legsum.cli.main)
        self.assertFalse(traced.failures)
        wall = tracer.stats["bench.op"][1]
        self.assertAlmostEqual(sum(tracer.layer_self().values()), wall, delta=1e-9 * len(ops) + 1e-6 * wall)
        # the CLI reaches build_quotient through its own binding
        self.assertEqual(tracer.stats["sums.build_quotient"][0], len(ops))
        for owner in (legsum, legsum.sums, legsum.cli, legsum.simplicity):
            self.assertIs(owner.build_quotient, original)
        self.assertNotIn("traced", legsum.ranges.MountainRange.point.__code__.co_name)
        kept = {span[1] for span in tracer.spans}
        self.assertTrue(all(span[2] is None or span[2] in kept for span in tracer.spans))
        self.assertEqual(sum(span[2] is None for span in tracer.spans), len(ops))


if __name__ == "__main__":
    unittest.main()
