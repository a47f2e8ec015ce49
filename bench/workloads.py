"""The benchmark's workloads: seeded operand slices and the public calls made on them.

Every workload is a closed loop of independent calls.  One call runs one
public entry point of hybridmul over one fixed-size slice of operand pairs.
The pairs come from ``random.Random(seed)`` here; the program only ever sees
the pairs, as a list or as a pairs file, never the seed or the workload name.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

ARCHS = ("conventional", "booth", "hybrid")
CATEGORY_KINDS = ("Zero", "A", "B", "C", "D", "E", "F", "Split")
PINS_PATH = Path(__file__).with_name("pins.json")


class CallFailed(RuntimeError):
    """A call finished but its result is not acceptable (nonzero exit, bad output)."""


def gen_pairs(rng: random.Random, dist: str, width: int, count: int) -> list[tuple[int, int]]:
    """Draw pairs the way hybridmul's ``random:N`` source draws them.

    The draw is restated here, not imported, so the program receives only
    pairs.  ``sparse3`` matches the program's draw exactly, which is what
    lets the pre-flight reproduce the acceptance pins from seed 42.
    """
    top = 1 << width
    pairs = []
    for _ in range(count):
        if dist == "uniform":
            a = rng.randrange(-(top - 1), top)
            b = rng.randrange(-(top - 1), top)
        elif dist == "sparse3":
            a = rng.randrange(0, top)
            npop = rng.randint(0, min(3, width))
            b = sum(1 << p for p in rng.sample(range(width), npop))
        else:
            raise ValueError(f"unknown distribution {dist!r}")
        pairs.append((a, b))
    return pairs


def write_pairs(path: Path, pairs) -> None:
    path.write_text("".join(f"{a} {b}\n" for a, b in pairs))


@dataclass
class Slice:
    index: int
    pairs: list[tuple[int, int]] | None  # None for file-fed slices: see ``read_pairs``
    path: Path | None

    def read_pairs(self) -> list[tuple[int, int]]:
        if self.pairs is not None:
            return self.pairs
        return [(int(a), int(b)) for a, b in (line.split() for line in self.path.read_text().splitlines())]


class Pool:
    """Slices drawn in order from one seeded generator, made on first use.

    Slices of file-fed workloads are written to ``workdir`` on first use, so
    a call never includes writing its own input, and only the file is kept:
    the worker's peak RSS should not grow with the number of slices a run
    gets through.
    """

    def __init__(self, workload: "Workload", seed: int, workdir: Path | None):
        self.workload = workload
        self.workdir = workdir
        self._rng = random.Random(seed)
        self._slices: list[Slice] = []

    def get(self, index: int) -> Slice:
        w = self.workload
        while len(self._slices) <= index:
            k = len(self._slices)
            pairs = gen_pairs(self._rng, w.dist, w.width, w.slice_pairs)
            path = None
            if w.kind != "stream":
                path = self.workdir / f"slice-{k}.txt"
                write_pairs(path, pairs)
                pairs = None
            self._slices.append(Slice(k, pairs, path))
        return self._slices[index]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "count", "stream" or "compare"
    width: int
    dist: str
    slice_pairs: int
    pool_slices: int
    configs: tuple  # one call per config in every round
    trace_slices: int  # slices in one traced pass

    @property
    def evals_per_call(self) -> int:
        """Arch-pair evaluations in one call: pair x architecture x gating setting."""
        return self.slice_pairs * (len(ARCHS) if self.kind != "stream" else 1)

    # -- the timed part -------------------------------------------------

    def call(self, hm, sl: Slice, config, out_path: Path | None):
        """One call into the program; returns what :meth:`output` inspects."""
        if self.kind == "count":
            harness = hm.harness
            campaign = harness.Campaign(width=self.width, source=harness.FileSource(str(sl.path)))
            return harness.render_json(harness.run_campaign(campaign))
        if self.kind == "stream":
            arch, gated = config
            return hm.simulate_stream(sl.pairs, hm.Architecture(arch), self.width, gated)
        argv = [
            "compare", "--width", str(self.width), "--inputs", f"file:{sl.path}",
            "--toggles", "--ssst", "--format", "json", "--out", str(out_path),
        ]
        return hm.cli.main(argv)

    # -- untimed checks -------------------------------------------------

    def output(self, raw, out_path: Path | None) -> str:
        """The call's deterministic output as text; raises CallFailed."""
        if self.kind == "count":
            return raw
        if self.kind == "stream":
            return repr((raw.total_toggles, list(raw.per_row_toggles),
                         raw.frozen_cell_evaluations, raw.operations_simulated))
        if raw != 0:
            raise CallFailed(f"cli exited with status {raw}")
        try:
            return out_path.read_text()
        except OSError as exc:
            raise CallFailed(f"cli wrote no report: {exc}") from None

    def toggle_stats(self, hm, raw, text: str, config) -> list[tuple[int, int, int, int]]:
        """(evaluations, cells per evaluation, frozen cell evaluations, toggles) per simulated arch."""
        if self.kind == "count":
            return []
        if self.kind == "stream":
            arch = config[0]
            g = hm.ArrayGeometry.create(self.width, hm.Architecture(arch))
            return [(raw.operations_simulated, g.rows * g.cols, raw.frozen_cell_evaluations, raw.total_toggles)]
        stats = []
        for entry in json.loads(text)["archs"]:
            g = hm.ArrayGeometry.create(self.width, hm.Architecture(entry["name"]))
            stats.append((entry["pairs"], g.rows * g.cols, entry["frozen_cell_evaluations"], entry["toggles"]))
        return stats


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


STREAM_CONFIGS = tuple((arch, gated) for arch in ARCHS for gated in (False, True))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="count-w8",
            why="run_campaign counts + render_json on width-8 uniform pairs: bitnum and encoding only, "
            "at most 256 distinct multipliers, so a per-multiplier plan cache hits",
            kind="count",
            width=8,
            dist="uniform",
            slice_pairs=256,
            pool_slices=16,
            configs=(None,),
            trace_slices=2,
        ),
        Workload(
            name="stream-sparse3-w8",
            why="simulate_stream per arch x gating on width-8 sparse3 pairs: datapath-bound, "
            "gated hybrid freezes almost every row",
            kind="stream",
            width=8,
            dist="sparse3",
            slice_pairs=256,
            pool_slices=8,
            configs=STREAM_CONFIGS,
            trace_slices=1,
        ),
        Workload(
            name="compare-w32",
            why="the real CLI compare --toggles --ssst on width-32 uniform pairs: 64-column arrays "
            "and multipliers that never repeat, so a plan cache only costs",
            kind="compare",
            width=32,
            dist="uniform",
            slice_pairs=32,
            pool_slices=512,
            configs=(None,),
            trace_slices=4,
        ),
    )
}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())
