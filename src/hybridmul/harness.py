"""Campaign runner: input generation, architecture comparison, report emitters.

A campaign multiplies a deterministic stream of operand pairs on each selected
architecture, verifying every product against the native-multiply oracle, and
aggregates operation counts, optional cell-level toggle totals, and cost-model
power/delay figures into one report that can be emitted as ASCII, CSV, JSON,
or an SVG chart.  The operation counts come from one pass over the pairs for
all selected architectures (:func:`~hybridmul.encoding.count_pairs`), which
decodes each pair once; ``trace`` makes one such call for its one pair.

Random streams use the Mersenne Twister as exposed by ``random.Random(seed)``,
so a (count, seed, distribution) triple always reproduces the same pairs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Mapping

from . import __version__
from .bitnum import Word, check_operand_width, to_sign_magnitude
from .datapath import ToggleReport, simulate_stream
from .encoding import (
    Architecture,
    Category,
    CategoryKind,
    OpCounts,
    ShiftLeft,
    Step,
    booth_recode,
    classify,
    count_pairs,
    hybrid_plan,
    split,
)
from .metrics import CostGrid, CostModel, reduction_percent, vdd_label

ALL_ARCHITECTURES = (Architecture.CONVENTIONAL, Architecture.BOOTH, Architecture.HYBRID)

# (candidate, baseline) pairs every report compares, in print order.
REDUCTION_PAIRS = (
    (Architecture.HYBRID, Architecture.CONVENTIONAL),
    (Architecture.HYBRID, Architecture.BOOTH),
    (Architecture.BOOTH, Architecture.CONVENTIONAL),
)


class InputFormatError(ValueError):
    """An input file or input spec could not be parsed."""


# Exhaustive input is materialized as a list of pairs; every pair of width 8
# fits, wider sweeps would hold millions of tuples.
MAX_EXHAUSTIVE_PAIRS = 1 << 16
# Random input is materialized the same way; the bound stops a count such as
# random:4294967296 from filling memory.
MAX_RANDOM_PAIRS = 1 << 20


# -- input sources ----------------------------------------------------------


@dataclass(frozen=True)
class ExhaustiveSource:
    def describe(self) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class RandomSource:
    count: int
    distribution: str = "uniform"

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise InputFormatError(f"random input count must be positive, got {self.count}")
        if self.count > MAX_RANDOM_PAIRS:
            raise InputFormatError(
                f"random input count {self.count} is over the {MAX_RANDOM_PAIRS}-pair limit"
            )

    def describe(self) -> str:
        return f"random:{self.count}"


@dataclass(frozen=True)
class FileSource:
    path: str

    def describe(self) -> str:
        return f"file:{self.path}"


InputSource = ExhaustiveSource | RandomSource | FileSource

_SPARSE_RE = re.compile(r"^sparse([1-9]\d*)$")


def parse_input_spec(spec: str) -> InputSource:
    """Parse an ``exhaustive`` / ``random:N`` / ``file:PATH`` input spec."""
    if spec == "exhaustive":
        return ExhaustiveSource()
    if spec.startswith("random:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise InputFormatError(f"bad random input spec {spec!r}") from None
        return RandomSource(n)
    if spec.startswith("file:"):
        return FileSource(spec.split(":", 1)[1])
    raise InputFormatError(f"unknown input spec {spec!r}; use exhaustive, random:N, or file:PATH")


def parse_pairs_file(path: str | Path) -> list[tuple[int, int]]:
    """Read signed decimal pairs, one per line; ``#`` starts a comment."""
    pairs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InputFormatError(f"{path}:{lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputFormatError(f"{path}:{lineno}: non-integer field in {raw!r}") from None
        pairs.append((a, b))
    if not pairs:
        raise InputFormatError(f"{path}: no operand pairs found")
    return pairs


def _random_pairs(source: RandomSource, width: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    top = 1 << width
    dist = source.distribution
    sparse = _SPARSE_RE.match(dist)
    pairs = []
    for _ in range(source.count):
        if dist == "uniform":
            a = rng.randrange(-(top - 1), top)
            b = rng.randrange(-(top - 1), top)
        elif dist == "uniform8":
            if width < 8:
                raise InputFormatError("uniform8 needs width >= 8")
            a = rng.randrange(0, 256)
            b = rng.randrange(0, 256)
        elif sparse:
            k = min(int(sparse.group(1)), width)
            a = rng.randrange(0, top)
            npop = rng.randint(0, k)
            b = sum(1 << p for p in rng.sample(range(width), npop))
        else:
            raise InputFormatError(
                f"unknown distribution {dist!r}; use uniform, uniform8, or sparseK"
            )
        pairs.append((a, b))
    return pairs


def gen_inputs(source: InputSource, width: int, seed: int = 0) -> list[tuple[int, int]]:
    """Deterministic operand-pair sequence for a campaign."""
    check_operand_width(width)
    if isinstance(source, ExhaustiveSource):
        top = 1 << width
        if top * top > MAX_EXHAUSTIVE_PAIRS:
            raise InputFormatError(
                f"exhaustive input at width {width} is {top * top} pairs, over the "
                f"{MAX_EXHAUSTIVE_PAIRS}-pair limit (width 8); use random:N or file:PATH"
            )
        return [(a, b) for a in range(top) for b in range(top)]
    if isinstance(source, RandomSource):
        return _random_pairs(source, width, seed)
    pairs = parse_pairs_file(source.path)
    limit = 1 << width
    for a, b in pairs:
        if abs(a) >= limit or abs(b) >= limit:
            raise InputFormatError(f"pair ({a}, {b}) does not fit in {width} bits")
    return pairs


# -- campaign ----------------------------------------------------------------


@dataclass(frozen=True)
class Campaign:
    width: int
    architectures: tuple[Architecture, ...] = ALL_ARCHITECTURES
    source: InputSource = ExhaustiveSource()
    seed: int = 0
    ssst: bool = False
    simulate_toggles: bool = False
    vdds: tuple[float, ...] = (1.2,)
    prefer_sparse: bool = False

    def __post_init__(self) -> None:
        # each architecture and voltage once, in first-seen order
        object.__setattr__(self, "architectures", tuple(dict.fromkeys(self.architectures)))
        object.__setattr__(self, "vdds", tuple(dict.fromkeys(self.vdds)))
        if not self.architectures:
            raise ValueError("a campaign needs at least one architecture")
        if not self.vdds:
            raise ValueError("a campaign needs at least one supply voltage")
        if self.ssst and not self.simulate_toggles:
            raise ValueError("ssst=True needs simulate_toggles=True: gating acts only on the toggle simulation")


@dataclass
class ArchSummary:
    arch: Architecture
    pairs: int
    pp_total: int
    add_total: int
    shift_total: int
    toggles: int | None = None
    frozen_cell_evaluations: int | None = None
    per_vdd: dict[float, tuple[float, float]] = field(default_factory=dict)


def reductions(values: dict[Architecture, float | None]) -> dict[str, float]:
    """Percent reduction of each candidate against its baseline, keyed ``cand_vs_base``.

    A pair is left out unless both values are present and the baseline is positive.
    """
    out = {}
    for cand, base in REDUCTION_PAIRS:
        baseline, candidate = values.get(base), values.get(cand)
        if baseline is not None and candidate is not None and baseline > 0:
            out[f"{cand.value}_vs_{base.value}"] = reduction_percent(baseline, candidate)
    return out


@dataclass
class CampaignReport:
    campaign: Campaign
    summaries: list[ArchSummary]

    def reductions(self) -> dict[str, dict[str, float]]:
        """Pairwise reduction percentages on add counts and toggles."""
        return {
            metric: reductions({s.arch: getattr(s, metric) for s in self.summaries})
            for metric in ("add_total", "toggles")
        }


def swaps_for_sparsity(multiplicand: int, multiplier: int) -> bool:
    """Whether ``prefer_sparse`` swaps these operands: the multiplicand has fewer set bits."""
    return abs(multiplicand).bit_count() < abs(multiplier).bit_count()


def toggle_reports(campaign: Campaign, pairs, trace=None) -> dict[Architecture, ToggleReport]:
    """Run the cell-level toggle simulation of ``pairs`` on each campaign architecture.

    ``trace``, if given, is called as ``trace(arch, index, record)`` with
    every evaluation's :class:`ToggleReport`.
    """
    return {
        arch: simulate_stream(
            pairs, arch, campaign.width, campaign.ssst, trace=partial(trace, arch) if trace else None
        )
        for arch in campaign.architectures
    }


def run_campaign(
    campaign: Campaign,
    model: CostModel | None = None,
    interpolate: bool = False,
) -> CampaignReport:
    """Run a campaign; raises ProductMismatchError on any oracle mismatch.

    Every voltage is priced before any input is generated, so an off-grid
    one fails before any work.
    """
    model = model or CostModel.default()
    unit_costs = {vdd: model.unit_cost(vdd, interpolate) for vdd in campaign.vdds}
    pairs = gen_inputs(campaign.source, campaign.width, campaign.seed)
    if campaign.prefer_sparse:
        # one operand order for the counts and the toggles alike
        pairs = [(b, a) if swaps_for_sparsity(a, b) else (a, b) for a, b in pairs]
    # the count pass first: a mismatch raises before any toggle work
    arch_counts = count_pairs(pairs, campaign.architectures, campaign.width)
    reports = toggle_reports(campaign, pairs) if campaign.simulate_toggles else {}
    summaries = []
    for arch, counts in zip(campaign.architectures, arch_counts):
        mean_adds = counts.add_count / len(pairs)
        per_vdd = {vdd: (power * mean_adds, delay * mean_adds) for vdd, (power, delay) in unit_costs.items()}
        toggled = reports.get(arch)
        summaries.append(
            ArchSummary(
                arch, len(pairs), counts.pp_count, counts.add_count, counts.shift_count,
                toggles=toggled.total_toggles if toggled else None,
                frozen_cell_evaluations=toggled.frozen_cell_evaluations if toggled else None,
                per_vdd=per_vdd,
            )
        )
    return CampaignReport(campaign=campaign, summaries=summaries)


# -- single-pair trace --------------------------------------------------------


@dataclass
class TraceResult:
    """Structured breakdown of one multiplication across all architectures."""

    a: int
    b: int
    sign: int
    multiplicand: Word
    multiplier: Word
    category: Category
    plan: tuple[Step, ...] | None
    split_halves: tuple[Word, Word] | None
    booth_digits: tuple[int, ...]
    product: int
    hybrid_counts: OpCounts
    booth_counts: OpCounts
    conventional_counts: OpCounts

    def render(self) -> str:
        lines = [
            f"multiplicand : {self.multiplicand.decimal()} = {self.multiplicand.binary()}"
            + (f"  (input {self.a})" if self.a < 0 else ""),
            f"multiplier   : {self.multiplier.decimal()} = {self.multiplier.binary()}"
            + (f"  (input {self.b})" if self.b < 0 else ""),
            f"ones         : {self.multiplier.one_positions()} (popcount {self.multiplier.popcount()})",
            f"category     : {self.category}",
        ]
        if self.plan is not None:
            steps = [f"SHL {s.amount}" if isinstance(s, ShiftLeft) else "ADD M" for s in self.plan]
            if steps:
                lines.append(f"plan         : {steps[0]}")
                lines.extend(f"               {s}" for s in steps[1:])
            else:
                lines.append("plan         : (no steps)")
        elif self.split_halves is not None:
            hi, lo = self.split_halves
            lines.append(f"split        : hi {hi.binary()}, lo {lo.binary()}")
        else:
            lines.append("plan         : (dense odd-width multiplier, recoded whole)")
        c = self.hybrid_counts
        lines.append(f"hybrid       : pp={c.pp_count} adds={c.add_count} shifts={c.shift_count}")
        bc = self.booth_counts
        digits = " ".join(f"{d:+d}" if d else "0" for d in reversed(self.booth_digits))
        lines.append(f"booth        : digits {digits} ({bc.pp_count} PP, adds {bc.add_count})")
        cc = self.conventional_counts
        lines.append(f"conventional : {cc.pp_count} PP, adds {cc.add_count}")
        lines.append(f"product      : {self.product}")
        return "\n".join(lines)


def trace(a: int, b: int, width: int = 8) -> TraceResult:
    """Explain how a single pair multiplies under each architecture.

    The one count pass runs first and raises any width or operand error
    (width first), so the decodes for the views below cannot fail.
    """
    hybrid, booth, conventional = count_pairs(
        ((a, b),), (Architecture.HYBRID, Architecture.BOOTH, Architecture.CONVENTIONAL), width
    )
    sa = to_sign_magnitude(a, width)
    sb = to_sign_magnitude(b, width)
    category = classify(sb.magnitude)
    plan = None
    halves = None
    if category.kind is CategoryKind.SPLIT:
        if width % 2 == 0:
            halves = split(sb.magnitude)
    else:
        plan = hybrid_plan(sb.magnitude)

    return TraceResult(
        a=a,
        b=b,
        sign=sa.sign * sb.sign,
        multiplicand=sa.magnitude,
        multiplier=sb.magnitude,
        category=category,
        plan=plan,
        split_halves=halves,
        booth_digits=booth_recode(sb.magnitude),
        product=a * b,
        hybrid_counts=hybrid,
        booth_counts=booth,
        conventional_counts=conventional,
    )


# -- emitters ------------------------------------------------------------------

CSV_HEADER = "arch,pairs,pp_total,add_total,toggles,power_uW,delay_ns,vdd"


def render_csv(report: CampaignReport) -> str:
    lines = [CSV_HEADER]
    for s in report.summaries:
        toggles = "" if s.toggles is None else str(s.toggles)
        for vdd in report.campaign.vdds:
            power, delay = s.per_vdd[vdd]
            lines.append(
                f"{s.arch.value},{s.pairs},{s.pp_total},{s.add_total},"
                f"{toggles},{power:.4f},{delay:.4f},{vdd_label(vdd)}"
            )
    return "\n".join(lines) + "\n"


def _report_payload(report: CampaignReport) -> dict:
    c = report.campaign
    archs = []
    for s in report.summaries:
        entry = {
            "name": s.arch.value,
            "pairs": s.pairs,
            "pp_total": s.pp_total,
            "add_total": s.add_total,
            "shift_total": s.shift_total,
            "toggles": s.toggles,
            "frozen_cell_evaluations": s.frozen_cell_evaluations,
            "per_vdd": [
                {
                    "vdd": vdd,
                    "power_uW": round(s.per_vdd[vdd][0], 6),
                    "delay_ns": round(s.per_vdd[vdd][1], 6),
                }
                for vdd in c.vdds
            ],
        }
        archs.append(entry)
    reductions = {
        metric: {k: round(v, 6) for k, v in vals.items()}
        for metric, vals in report.reductions().items()
    }
    return {
        "meta": {
            "version": __version__,
            "width": c.width,
            "inputs": c.source.describe(),
            "seed": c.seed if isinstance(c.source, RandomSource) else None,
            "distribution": c.source.distribution if isinstance(c.source, RandomSource) else None,
            "ssst": c.ssst,
            "toggles_simulated": c.simulate_toggles,
        },
        "archs": archs,
        "reductions": reductions,
    }


def render_json(report: CampaignReport) -> str:
    return json.dumps(_report_payload(report), indent=2, sort_keys=True) + "\n"


def render_ascii(report: CampaignReport) -> str:
    c = report.campaign
    lines = [
        f"campaign: width={c.width} inputs={c.source.describe()} "
        f"ssst={'on' if c.ssst else 'off'}",
        "",
        f"{'arch':<14}{'pairs':>8}{'pp_total':>10}{'add_total':>11}{'toggles':>10}",
    ]
    for s in report.summaries:
        toggles = "-" if s.toggles is None else str(s.toggles)
        lines.append(
            f"{s.arch.value:<14}{s.pairs:>8}{s.pp_total:>10}{s.add_total:>11}{toggles:>10}"
        )
    lines.append("")
    for vdd in c.vdds:
        cells = "  ".join(
            f"{s.arch.value} {s.per_vdd[vdd][0]:.4f} uW / {s.per_vdd[vdd][1]:.4f} ns"
            for s in report.summaries
        )
        lines.append(f"@ {vdd_label(vdd)} V: {cells}")
    reductions = report.reductions()
    for metric, vals in reductions.items():
        for key, pct in vals.items():
            lines.append(f"reduction {metric} {key}: {pct:.2f}%")
    return "\n".join(lines) + "\n"


def render_svg(report: CampaignReport) -> str:
    costs = {s.arch.value: s.per_vdd for s in report.summaries}
    return svg_power_chart(costs, title=f"estimated power vs Vdd (width {report.campaign.width})")


def svg_power_chart(costs: Mapping[str, Mapping[float, tuple[float, float]]], title: str) -> str:
    """Static line chart of power (uW) against supply voltage, one line per ``costs`` entry."""
    width, height, pad = 640, 400, 56
    series = {name: [(vdd, power) for vdd, (power, _) in cells.items()] for name, cells in costs.items()}
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("no data points to chart")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) or 1.0
    x_span = (x_hi - x_lo) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x_lo) / x_span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = {"conventional": "#c0392b", "booth": "#2980b9", "hybrid": "#27ae60"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="monospace">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" font-size="12" '
        f'font-family="monospace">Vdd (V)</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="monospace" transform="rotate(-90 16 {height / 2:.1f})">power (uW)</text>',
    ]
    for x in sorted({p[0] for p in points}):
        parts.append(
            f'<text x="{sx(x):.1f}" y="{height - pad + 16}" text-anchor="middle" '
            f'font-size="10" font-family="monospace">{vdd_label(x)}</text>'
        )
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = colors.get(name, "#7f8c8d")
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        if len(pts) > 1:
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        for x, y in pts:
            parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{width - pad - 150}" y="{pad + 16 * i}" font-size="12" '
            f'font-family="monospace" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- cost-grid emitters --------------------------------------------------------


def render_cost_grid_ascii(grid: CostGrid) -> str:
    head = "vdd (V)".ljust(22) + "".join(f"{vdd_label(v):>9}" for v in grid.voltages)
    lines = [head]
    for arch, adds in grid.add_counts.items():
        cells = grid.costs[arch]
        lines.append(f"{arch} ({adds} add{'s' if adds != 1 else ''})")
        lines.append("  power (uW)".ljust(22) + "".join(f"{cells[v][0]:>9.3f}" for v in grid.voltages))
        lines.append("  delay (ns)".ljust(22) + "".join(f"{cells[v][1]:>9.3f}" for v in grid.voltages))
    lines.append("")
    lines.append("note: " + grid.reduction_note())
    return "\n".join(lines) + "\n"


def render_cost_grid_csv(grid: CostGrid) -> str:
    lines = ["arch,adds,vdd,power_uW,delay_ns"]
    for arch, adds in grid.add_counts.items():
        for v in grid.voltages:
            power, delay = grid.costs[arch][v]
            lines.append(f"{arch},{adds},{vdd_label(v)},{power:.4f},{delay:.4f}")
    return "\n".join(lines) + "\n"


def render_cost_grid_json(grid: CostGrid) -> str:
    payload = {
        "voltages": list(grid.voltages),
        "archs": {
            arch: {
                "adds": adds,
                "power_uW": {vdd_label(v): round(grid.costs[arch][v][0], 6) for v in grid.voltages},
                "delay_ns": {vdd_label(v): round(grid.costs[arch][v][1], 6) for v in grid.voltages},
            }
            for arch, adds in grid.add_counts.items()
        },
        "note": grid.reduction_note(),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_cost_grid_svg(grid: CostGrid) -> str:
    return svg_power_chart(grid.costs, title="estimated power vs Vdd (unit-cost model)")
