"""The bench script: one cheap process and one layer, recorded with the fields of the committed records."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_records_a_process_and_a_layer():
    bench = load_bench()
    assert len(bench.FIXED) == 24 and len(bench.COSTLY) == 9 and len(bench.OVER_LIMIT) == 3
    rec = bench.record(["criterion --spec U1:3"], [("B:2", 3)], tier1=False, repeat=(1, 1))
    (process,) = rec["processes"]
    assert process["argv"] == "criterion --spec U1:3" and process["exit"] == 0 and process["timeout_s"] is None
    assert 0 < process["best_s"] < 60
    (layer,) = rec["layers"]
    assert (layer["spec"], layer["depth"]) == ("B:2", 3)
    assert all(seconds >= 0 for seconds in layer["best_s"].values())
    # B:2 down to 3 rows under its top: the window holds 42 nodes (test_sum_window).
    assert layer["nodes"] == 42 and layer["members_listed"] >= layer["nodes"] and layer["boxed_points"] > 0
    assert rec["tier1"] is None and rec["python"] and rec["nproc"] >= 1 and len(rec["commit"]) in (0, 40)
    # Every committed record has the same fields.
    for path in sorted(BENCH.glob("BENCH_*.json")):
        committed = json.loads(path.read_text())
        assert committed.keys() == rec.keys(), path.name
        assert committed["processes"][0].keys() == process.keys(), path.name
        assert committed["layers"][0].keys() == layer.keys(), path.name
        assert committed["layers"][0]["best_s"].keys() == layer["best_s"].keys(), path.name
        # A timed-out run is recorded, not dropped.
        assert all(p["best_s"] is not None or p["timeout_s"] for p in committed["processes"]), path.name
