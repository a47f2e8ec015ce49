"""The benchmark's tracer: self-time arithmetic, every binding caught, clean removal."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

import hybridmul  # noqa: E402
import hybridmul.cli  # noqa: E402,F401
from bench.tracer import Tracer, package_modules, call_counts, self_times  # noqa: E402
from bench.worker import Runner, timed_loop  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_direct_children():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.5, 1, 0),  # grandchild: covers part of a, not of root
        ("a", 5.0, 9.0, 0, 0),
        ("root", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx({"root": 3.0 + 1.0, "a": 1.5 + 4.0, "b": 1.5})
    assert call_counts(spans) == {"root": 2, "a": 2, "b": 1}


def _bindings() -> dict:
    """Identity of every attribute of every hybridmul module and class."""
    seen = {}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            seen[(mod.__name__, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    seen[(mod.__name__, attr, name)] = id(member)
    return seen


def _wrapped_names() -> list:
    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "bench_original"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                found += [f"{attr}.{n}" for n, m in vars(value).items() if hasattr(m, "bench_original")]
    return found


def test_tracer_catches_every_binding_and_restores_originals():
    before = _bindings()
    word = hybridmul.Word(45, 8)
    tracer = Tracer()
    tracer.install()
    try:
        assert _wrapped_names()
        hybridmul.encoding.booth_pp(word, hybridmul.encoding.booth_recode(word))
        hybridmul.datapath.booth_pp(word, hybridmul.datapath.booth_recode(word))
        hybridmul.booth_pp(word, hybridmul.booth_recode(word))
        hybridmul.datapath.ArrayState(8, hybridmul.Architecture.BOOTH).evaluate(
            hybridmul.datapath.build_pp(word, word, hybridmul.Architecture.BOOTH)
        )
    finally:
        tracer.uninstall()
    counts = call_counts(tracer.spans)
    assert counts["encoding.booth_pp"] == 4
    assert counts["encoding.booth_recode"] == 4
    assert counts["datapath.build_pp"] == 1
    assert counts["datapath.ArrayState.evaluate"] == 1
    assert tracer.word_count > 0
    assert _bindings() == before
    assert _wrapped_names() == []


def test_untraced_run_has_no_wrappers_and_passes_no_trace(monkeypatch, tmp_path):
    calls = []
    original = hybridmul.simulate_stream

    def spy(*args, **kwargs):
        calls.append((sorted(kwargs), _wrapped_names()))
        return original(*args, **kwargs)

    monkeypatch.setattr(hybridmul, "simulate_stream", spy)
    runner = Runner(hybridmul, WORKLOADS["stream-sparse3-w8"], 5, {}, inputs_dir=tmp_path)
    timed_loop(runner, seconds=0, min_calls=6)
    assert len(calls) == 6
    assert all(kwargs == [] and wrapped == [] for kwargs, wrapped in calls)
    assert runner.failed == 0
