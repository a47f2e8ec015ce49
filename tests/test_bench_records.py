"""The committed benchmark points: every ``BENCH_<pr>_<rev7>.json`` at the repository root.

Each file holds, per workload of ``BENCHMARK.json``, the full records of
``bench/run.py --trace 0`` runs of one commit and the per-metric medians
over them.  A point is only worth keeping if every run behind it was
correct, so each run must read ``correct`` with no failed call.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
POINTS = sorted(ROOT.glob("BENCH_*.json"))


def test_points_are_committed():
    assert POINTS


@pytest.mark.parametrize("path", POINTS, ids=[p.name for p in POINTS])
def test_point_covers_every_workload_with_correct_runs(path):
    point = json.loads(path.read_text())
    rev7 = path.stem.split("_")[-1]
    assert point["git_rev"].startswith(rev7)
    assert set(point["workloads"]) == WORKLOADS
    for name, workload in point["workloads"].items():
        runs = workload["runs"]
        assert len(runs) >= 3
        for run in runs:
            assert (run["workload"], run["trace"], run["git_rev"]) == (name, 0, point["git_rev"])
            assert run["correct"] is True and run["failed"] == 0
            assert set(run["metrics"]) == set(run["unscaled"]) == END_TO_END
            assert {"python", "nproc", "loadavg_before", "loadavg_after"} <= set(run)
        assert set(workload["median"]) == END_TO_END
        for metric, median in workload["median"].items():
            assert median == statistics.median(run["metrics"][metric]["value"] for run in runs)
