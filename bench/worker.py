"""One benchmark worker process: runs one workload, then prints one JSON line.

Run as ``python3 -m bench.worker MODE --workload NAME --seed N ...`` from the
repository root; ``bench/run.py`` starts every worker, one at a time.

Modes:
  preflight  reproduce the acceptance pins and a reference-array prefix with
             the benchmark's own call path, and check the workload against
             its pinned digests; exit status 1 if anything disagrees
  setup      import, generate and write the first slice, warm up, report
             the set-up time and exit
  run        set up, then the untraced timed loop (``--trace 0``) or
             alternating untraced and traced passes (``--trace 1``)
  pins       recompute ``bench/pins.json`` from the program as it stands
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from .tracer import SPAN_NAMES, WORD_COUNT, Tracer, call_counts, self_times, write_spans
from .workloads import (
    ARCHS,
    CATEGORY_KINDS,
    PINS_PATH,
    WORKLOADS,
    CallFailed,
    Pool,
    Slice,
    digest,
    gen_pairs,
    load_pins,
)

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
# Reports name their input file, so inputs live at a fixed path relative to
# ROOT, the workers' working directory.
INPUTS_DIR = Path(".bench_work") / "inputs"

MIN_CALLS = 100  # p90 then has at least ten samples beyond it
PIN_SEEDS = (1, 2)  # 1 is the default seed; 2 is held out while tuning
ACCEPTANCE_SEED = 42
ACCEPTANCE_PLAIN = {"conventional": 94226, "booth": 111685, "hybrid": 99008}
ACCEPTANCE_HYBRID_GATED = 5856
REFERENCE_PREFIX = 32

PROBE_LOOPS = 4000
# Median probe time on the 2-core Xeon (2.1 GHz) development box; times are
# scaled to that speed.
PROBE_REF_S = 0.0011


def monotonic() -> float:
    """System-wide clock, comparable between the parent and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def speed_probe() -> float:
    """Seconds for a fixed loop of small-int work: the host's momentary speed.

    On a shared host, speed drifts by tens of percent within seconds, and
    the program slows with it.  A call's time is divided by the probe time
    around it.  The loop creates no container objects, so nothing the
    program keeps on its heap can change what the probe costs.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        x = (i * 2654435761) & 0xFFFF
        acc += (x ^ (x >> 3)).bit_count()
    return time.perf_counter() - start


def import_program():
    """Import hybridmul from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hybridmul
    import hybridmul.cli  # noqa: F401  (the compare workload calls it; the tracer wraps it)

    if not Path(hybridmul.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hybridmul imported from {hybridmul.__file__}, not {src}")
    return hybridmul


class Runner:
    """Makes calls for one workload and checks each one's output.

    A call fails if it raises, if the CLI exits nonzero, or if its output
    digest differs from the pin.  For a seed without pins the first output
    of each (slice, config) becomes the pin, so repeats must agree with it.
    Failures are counted, never raised.
    """

    def __init__(self, hm, workload, seed: int, pins: dict, inputs_dir: Path = INPUTS_DIR):
        self.hm = hm
        self.workload = workload
        workdir = inputs_dir / workload.name
        workdir.mkdir(parents=True, exist_ok=True)
        self.pool = Pool(workload, seed, workdir)
        self.out_path = workdir / "report.json" if workload.kind == "compare" else None
        self.expected: dict[tuple[int, int], str] = {}
        seed_pins = pins.get(workload.name, {}).get(str(seed))
        self.pinned = seed_pins is not None
        if seed_pins is not None:
            for k, digests in enumerate(seed_pins):
                for c, d in enumerate(digests.split()):
                    self.expected[(k, c)] = d
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, k: int, c: int):
        """Run one call on slice ``k``, config ``c``; returns (seconds, raw, text)."""
        sl = self.pool.get(k)
        config = self.workload.configs[c]
        if self.out_path is not None:
            self.out_path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            raw, err = self.workload.call(self.hm, sl, config, self.out_path), None
        except (Exception, SystemExit) as exc:  # a failed call must not stop the run
            raw, err = None, exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        text = None
        if err is None:
            try:
                text = self.workload.output(raw, self.out_path)
            except CallFailed as exc:
                err = exc
        if err is None:
            got = digest(text)
            want = self.expected.setdefault((k, c), got)
            if got != want:
                err = CallFailed(f"output digest {got} != pin {want}")
        if err is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"slice {k} config {c}: {type(err).__name__}: {err}")
            return elapsed, None, None
        return elapsed, raw, text


def setup(hm, workload, seed: int, pins: dict) -> Runner:
    runner = Runner(hm, workload, seed, pins)
    runner.call(0, 0)  # warm-up on slice 0; timed rounds start at slice 1
    return runner


def timed_loop(runner: Runner, seconds: float, min_calls: int = MIN_CALLS) -> dict:
    """Closed loop of whole rounds until ``seconds`` pass and ``min_calls`` are made.

    A speed probe runs before every call and after the last, so
    ``probe_s[i]`` and ``probe_s[i + 1]`` bracket ``call_s[i]``.
    """
    w = runner.workload
    call_s: list[float] = []
    probe_s: list[float] = []
    evals_ok = 0
    deadline = time.perf_counter() + seconds
    rnd = 0
    while time.perf_counter() < deadline or len(call_s) < min_calls:
        k = (rnd + 1) % w.pool_slices
        for c in range(len(w.configs)):
            probe_s.append(speed_probe())
            elapsed, _raw, text = runner.call(k, c)
            call_s.append(elapsed)
            if text is not None:
                evals_ok += w.evals_per_call
        rnd += 1
    probe_s.append(speed_probe())
    return {"call_s": call_s, "probe_s": probe_s, "evals_ok": evals_ok, "timed_calls": len(call_s)}


def _pass(runner: Runner, plan, tracer: Tracer | None):
    seconds = 0.0
    evals_ok = 0
    outputs = []
    for call_id, (k, c) in enumerate(plan):
        runner.pool.get(k)  # generate and write outside the traced region
        if tracer is not None:
            tracer.call_id = call_id
            tracer.install()
        try:
            elapsed, raw, text = runner.call(k, c)
        finally:
            if tracer is not None:
                tracer.uninstall()
        seconds += elapsed
        if text is not None:
            evals_ok += runner.workload.evals_per_call
            outputs.append((c, raw, text))
    return seconds, evals_ok, outputs


def work_mix(hm, runner: Runner, plan, outputs) -> dict[str, float]:
    """Category histogram, Booth fallbacks and freeze/toggle ratios of one pass.

    Computed with the tracer removed, so these calls count nowhere.
    """
    w = runner.workload
    hist = Counter()
    fallback = 0
    for k in sorted({k for k, _ in plan}):
        for _a, b in runner.pool.get(k).read_pairs():
            m = hm.Word(abs(b), w.width)
            kind = hm.classify(m).kind.value
            hist[kind] += 1
            if kind == "Split" and w.width % 2 == 0:
                fallback += sum(1 for half in hm.split(m) if half.popcount() > 3)
    evals = cells = frozen = toggles = 0
    for c, raw, text in outputs:
        for e, per_eval, f, t in w.toggle_stats(hm, raw, text, w.configs[c]):
            evals += e
            cells += e * per_eval
            frozen += f
            toggles += t
    mix = {f"encoding.category.{kind}": hist[kind] for kind in CATEGORY_KINDS}
    mix["encoding.split.booth_fallback_halves"] = fallback
    mix["datapath.frozen_cell_fraction"] = frozen / cells if cells else 0.0
    mix["datapath.toggles_per_eval"] = toggles / evals if evals else 0.0
    return mix


def traced_loop(hm, runner: Runner, seconds: float, spans_path: Path | None) -> dict:
    """Alternate untraced and traced passes over a fixed plan until ``seconds`` pass.

    Counters come from the first traced pass, so they repeat exactly; self
    times are medians over traced passes.
    """
    w = runner.workload
    plan = [(k, c) for k in range(1, w.trace_slices + 1) for c in range(len(w.configs))]
    plain_s = traced_s = 0.0
    plain_evals = traced_evals = 0
    self_runs: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
    metrics: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while True:
        s, e, _ = _pass(runner, plan, None)
        plain_s += s
        plain_evals += e
        tracer = Tracer()
        s, e, outputs = _pass(runner, plan, tracer)
        traced_s += s
        traced_evals += e
        own = self_times(tracer.spans)
        for name in SPAN_NAMES:
            self_runs[name].append(own.get(name, 0.0))
        if not metrics:
            counts = call_counts(tracer.spans)
            metrics.update({f"{name}.calls": counts[name] for name in SPAN_NAMES})
            metrics[WORD_COUNT] = tracer.word_count
            metrics.update(work_mix(hm, runner, plan, outputs))
            if spans_path is not None:
                write_spans(tracer.spans, spans_path)
        if time.perf_counter() >= deadline:
            break
    metrics.update({f"{name}.self_s": statistics.median(v) for name, v in self_runs.items()})
    plain_pps = plain_evals / plain_s
    traced_pps = traced_evals / traced_s
    metrics["trace.untraced_pairs_per_s"] = plain_pps
    metrics["trace.traced_pairs_per_s"] = traced_pps
    metrics["trace.overhead"] = plain_pps / traced_pps if traced_pps else 0.0
    return metrics


# -- pre-flight -----------------------------------------------------------


def _load_reference_array():
    path = ROOT / "tests" / "reference_array.py"
    spec = importlib.util.spec_from_file_location("bench_reference_array", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ReferenceArray


def preflight(hm, workload, pins: dict) -> list[str]:
    """Problems found; an empty list means timing may start."""
    problems = []
    stream = WORKLOADS["stream-sparse3-w8"]
    pairs = gen_pairs(random.Random(ACCEPTANCE_SEED), stream.dist, stream.width, 1000)
    checks = [((arch, False), total) for arch, total in ACCEPTANCE_PLAIN.items()]
    checks.append((("hybrid", True), ACCEPTANCE_HYBRID_GATED))
    for config, want in checks:
        report = stream.call(hm, Slice(0, pairs, None), config, None)
        if report.total_toggles != want:
            problems.append(f"acceptance pin {config}: {report.total_toggles} != {want}")

    ReferenceArray = _load_reference_array()
    build_pp = {
        "conventional": hm.conventional_pp,
        "booth": lambda ma, mb: hm.booth_pp(ma, hm.booth_recode(mb)),
        "hybrid": hm.hybrid_pp,
    }
    prefix = pairs[:REFERENCE_PREFIX]
    for arch in ARCHS:
        ref = ReferenceArray(stream.width, hm.Architecture(arch))
        ref_total = 0
        for a, b in prefix:
            ma = hm.to_sign_magnitude(a, stream.width).magnitude
            mb = hm.to_sign_magnitude(b, stream.width).magnitude
            product, toggles = ref.evaluate(build_pp[arch](ma, mb))
            if product != abs(a * b):
                problems.append(f"reference product {arch} {a}*{b}: {product}")
            ref_total += toggles
        got = stream.call(hm, Slice(0, prefix, None), (arch, False), None).total_toggles
        if got != ref_total:
            problems.append(f"reference prefix {arch}: {got} != {ref_total}")

    runner = Runner(hm, workload, PIN_SEEDS[0], pins)
    if not runner.pinned:
        problems.append(f"no pins for {workload.name} seed {PIN_SEEDS[0]}")
    for k in range(2):
        for c in range(len(workload.configs)):
            runner.call(k, c)
    problems.extend(f"pinned seed {PIN_SEEDS[0]}: {f}" for f in runner.failures)
    return problems


# -- pins -------------------------------------------------------------------


def compute_pins(hm) -> dict:
    pins: dict = {}
    for name, w in WORKLOADS.items():
        pins[name] = {}
        for seed in PIN_SEEDS:
            runner = Runner(hm, w, seed, {})
            for k in range(w.pool_slices):
                for c in range(len(w.configs)):
                    runner.call(k, c)
            if runner.failed:
                raise RuntimeError(f"{name} seed {seed}: {runner.failures}")
            pins[name][str(seed)] = [
                " ".join(runner.expected[(k, c)] for c in range(len(w.configs)))
                for k in range(w.pool_slices)
            ]
    return pins


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.worker")
    parser.add_argument("mode", choices=("preflight", "setup", "run", "pins"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="count-w8")
    parser.add_argument("--seed", type=int, default=PIN_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else monotonic()

    os.chdir(ROOT)
    hm = import_program()
    workload = WORKLOADS[args.workload]
    try:
        if args.mode == "pins":
            PINS_PATH.write_text(json.dumps(compute_pins(hm), indent=1, sort_keys=True) + "\n")
            return 0
        pins = load_pins()
        if args.mode == "preflight":
            problems = preflight(hm, workload, pins)
            for p in problems:
                print(f"pre-flight: {p}", file=sys.stderr)
            return 1 if problems else 0

        runner = setup(hm, workload, args.seed, pins)
        result = {"setup_s": monotonic() - spawned_at}
        if args.mode == "run":
            if args.trace:
                results_dir = WORK_DIR / "results"
                results_dir.mkdir(parents=True, exist_ok=True)
                spans = results_dir / f"spans-{workload.name}-seed{args.seed}.csv"
                result["per_layer"] = traced_loop(hm, runner, args.seconds, spans)
                result["timed_calls"] = runner.attempted - 1
            else:
                result.update(timed_loop(runner, args.seconds))
            result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            failures=runner.failures,
            pinned=runner.pinned,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(INPUTS_DIR, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
