"""hybridmul benchmark: run one workload, print every metric, end with one JSON line.

    python3 bench/run.py --workload count-w8 --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

Each invocation runs, one process at a time:

1. a pre-flight worker that must reproduce the acceptance pins, a
   reference-array prefix and the workload's pinned digests (exit 1 and no
   result if it cannot);
2. fresh set-up-only workers, so ``setup_s`` is a median over processes;
3. the measuring worker: ``--trace 0`` times the closed loop untraced and
   reports the end-to-end metrics, ``--trace 1`` alternates untraced and
   traced passes and reports the per-layer metrics.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  A fuller record, with the Python version, git rev, nproc and
load average before and after, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench.catalog import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from bench.worker import PROBE_REF_S  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

RESULTS = ROOT / ".bench_work" / "results"
SETUP_SAMPLES = 9  # fresh processes per run, the measuring worker included
RUN_BUDGET_S = 170.0


def git_rev() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker(mode: str, args, deadline: float) -> dict | None:
    """Run one worker to completion; its last stdout line, or None on failure."""
    cmd = [
        sys.executable, "-m", "bench.worker", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"error: {mode} worker timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: {mode} worker exited with status {proc.returncode}", file=sys.stderr)
        return None
    if mode == "preflight":
        return {}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(main: dict, samples: list[dict], scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics; ``scaled`` puts times at the probe's reference speed.

    A call is scaled by the probes just before and after it.  Set-up is
    scaled by the median probe of the measuring run, which follows the
    set-up samples within seconds: a single probe right after a short
    set-up tracks its speed poorly.
    """
    call_s = main["call_s"]
    probe_s = main["probe_s"]
    setup_s = statistics.median(s["setup_s"] for s in samples)
    if scaled:
        call_s = [t * 2 * PROBE_REF_S / (probe_s[i] + probe_s[i + 1]) for i, t in enumerate(call_s)]
        setup_s *= PROBE_REF_S / statistics.median(probe_s)
    return {
        "pairs_per_s": main["evals_ok"] / sum(call_s),
        "call_ms_p50": statistics.median(call_s) * 1e3,
        "call_ms_p90": statistics.quantiles(call_s, n=10)[-1] * 1e3,
        "peak_rss_mb": main["peak_rss_kb"] / 1024,
        "setup_s": setup_s,
    }


def run_workload(args, deadline: float) -> dict | None:
    """Pre-flight, set-up samples and the measuring worker for one workload."""
    load_before = os.getloadavg()
    if worker("preflight", args, deadline) is None:
        print("error: pre-flight failed; refusing to time", file=sys.stderr)
        return None
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        sample = worker("setup", args, deadline)
        if sample is None:
            return None
        samples.append(sample)
    main = worker("run", args, deadline)
    if main is None:
        return None
    samples.append(main)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    raw = {}
    if args.trace:
        metrics = main["per_layer"]
        names = [name for name, *_ in PER_LAYER]
    else:
        metrics = end_to_end(main, samples)
        raw = end_to_end(main, samples, scaled=False)
        names = [name for name, *_ in END_TO_END]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "seed_pinned": main["pinned"],
        "timed_calls": main["timed_calls"],
        "setup_samples_s": [s["setup_s"] for s in samples],
        "probe_median_s": statistics.median(main["probe_s"]) if "probe_s" in main else None,
        "unscaled": raw,
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "failures": [f for s in samples for f in s["failures"]][:10],
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(record: dict) -> None:
    print(
        f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}"
        f" python={record['python']} git={record['git_rev']} nproc={record['nproc']}"
        f" load={record['loadavg_before'][0]:.2f}->{record['loadavg_after'][0]:.2f}"
        f" pinned={record['seed_pinned']}"
    )
    for name, m in record["metrics"].items():
        unscaled = record["unscaled"].get(name, m["value"])
        extra = f"   (unscaled {unscaled:.6g})" if unscaled != m["value"] else ""
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}{extra}")
    samples = f"{record['timed_calls']} timed calls, {len(record['setup_samples_s'])} set-up processes"
    print(f"{'fail_rate':<44} {record['fail_rate']:>16.6g} ratio ({record['failed']}/{record['attempted']} calls; {samples})")
    for failure in record["failures"]:
        print(f"failure: {failure}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "hybridmul" / "__init__.py").is_file():
        print(f"error: no hybridmul sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(prog="python3 bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        record = run_workload(one, time.monotonic() + RUN_BUDGET_S)
        if record is None:
            return 1
        print_record(record)
        records.append(record)

    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else record["workload"] + "."
        metrics.update({prefix + name: m for name, m in record["metrics"].items()})
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
