"""The benchmark's workloads: failure accounting, pins, metric names, repeatable counters."""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

import hybridmul  # noqa: E402
import hybridmul.cli  # noqa: E402,F401
from hybridmul.harness import RandomSource, gen_inputs  # noqa: E402
from bench.catalog import END_TO_END, PER_LAYER  # noqa: E402
from bench.worker import Runner, timed_loop, traced_loop  # noqa: E402
from bench.workloads import WORKLOADS, gen_pairs, load_pins  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("dist, width", [("sparse3", 8), ("uniform", 8), ("uniform", 32)])
def test_generator_draws_like_the_program(dist, width):
    ours = gen_pairs(random.Random(7), dist, width, 50)
    assert ours == gen_inputs(RandomSource(50, dist), width, seed=7)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_injected_wrong_product_counts_as_failed_call(name, monkeypatch, tmp_path):
    original = hybridmul.datapath.ArrayState.evaluate

    def off_by_one_evaluate(self, pp, mask=None):
        product, delta = original(self, pp, mask)
        return product + 1, delta

    def off_by_one_product(multiplicand, multiplier, arch):
        return multiplicand.bits * multiplier.bits + 1, hybridmul.OpCounts(1, 0, 0)

    monkeypatch.setattr(hybridmul.datapath.ArrayState, "evaluate", off_by_one_evaluate)
    monkeypatch.setattr(hybridmul.encoding, "unsigned_product", off_by_one_product)
    workload = WORKLOADS[name]
    runner = Runner(hybridmul, workload, 3, {}, inputs_dir=tmp_path)
    result = timed_loop(runner, seconds=0, min_calls=2)
    assert runner.attempted == result["timed_calls"] >= 2
    assert runner.failed == runner.attempted
    assert result["evals_ok"] == 0


def test_digest_mismatch_counts_as_failed_call(tmp_path):
    workload = WORKLOADS["stream-sparse3-w8"]
    pins = {workload.name: {"3": [" ".join(["0" * 16] * len(workload.configs))]}}
    runner = Runner(hybridmul, workload, 3, pins, inputs_dir=tmp_path)
    runner.call(0, 0)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "digest" in runner.failures[0]


def test_stream_outputs_match_the_pins_of_this_commit(tmp_path):
    workload = WORKLOADS["stream-sparse3-w8"]
    runner = Runner(hybridmul, workload, 1, load_pins(), inputs_dir=tmp_path)
    assert runner.pinned
    for c in range(len(workload.configs)):
        runner.call(0, c)
    assert runner.failed == 0, runner.failures


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)


def _counters(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith(".self_s") and not k.startswith("trace.")}


@pytest.mark.parametrize("name", ["count-w8", "stream-sparse3-w8"])
def test_traced_counters_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    runs = []
    for i in range(2):
        runner = Runner(hybridmul, workload, 4, {}, inputs_dir=tmp_path / str(i))
        runner.call(0, 0)
        runs.append(traced_loop(hybridmul, runner, seconds=0, spans_path=None))
        assert runner.failed == 0
    assert set(runs[0]) == {n for n, *_ in PER_LAYER}
    assert _counters(runs[0]) == _counters(runs[1])
    datapath_calls = [v for k, v in runs[0].items() if k.startswith("datapath.") and k.endswith(".calls")]
    if name == "count-w8":
        assert datapath_calls == [0] * len(datapath_calls)
    else:
        assert all(datapath_calls)
