"""Operation-count analytics and the calibrated power/delay cost model.

The model is linear in the number of sequential additions a multiply needs.
A cost is one ``(power_uW, delay_ns)`` pair per supply voltage: one addition
at ``vdd`` costs ``CostModel.unit_cost(vdd)``, calibrated from reference
measurements of a single-addition multiplier, and ``n`` additions cost ``n``
times each entry.  The three architectures land at 7 (conventional, 8 PP),
3 (Booth, 4 PP) and 1 (hybrid, 1 PP) additions for 8-bit operands, so the
model grid is the familiar 7:3:1 ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

# Reference unit costs of one addition stage (single-PP multiplier), indexed
# by supply voltage: (power in microwatts, delay in nanoseconds).
_UNIT_COSTS = {
    0.8: (4.569, 1.600),
    1.0: (12.08, 0.734),
    1.2: (17.50, 0.595),
    1.4: (23.25, 0.459),
    1.6: (35.27, 0.395),
    1.8: (59.10, 0.349),
    2.0: (75.00, 0.328),
    2.2: (89.370, 0.3130),
    2.4: (94.60, 0.276),
}

# Sequential additions per architecture for the 8-bit reference comparison.
REFERENCE_ADD_COUNTS: Mapping[str, int] = MappingProxyType(
    {"conventional": 7, "booth": 3, "hybrid": 1}
)

# Published reference claims for the same comparison.  The switching pair is
# checked as an ordering/reduction property; the power pair does not follow
# from the 7:3:1 grid (3:1 implies 66.7 percent, not 26) and is surfaced as a
# discrepancy note rather than silently reconciled.
REFERENCE_SWITCHING_REDUCTION_PCT = {"conventional": 86.0, "booth": 46.0}
REFERENCE_POWER_REDUCTION_PCT = {"conventional": 87.0, "booth": 26.0}


class OffGridVoltageError(ValueError):
    """Requested supply voltage is not a calibration point."""


@dataclass(frozen=True)
class CostModel:
    """Per-addition ``(power_uW, delay_ns)`` on a fixed supply-voltage grid."""

    units: Mapping[float, tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.units:
            raise ValueError("cost model must define at least one voltage")
        for vdd, cost in self.units.items():
            if not (isinstance(vdd, (int, float)) and math.isfinite(vdd) and vdd > 0):
                raise ValueError(f"supply voltage must be a positive finite number, got {vdd!r}")
            if not (isinstance(cost, tuple) and len(cost) == 2):
                raise ValueError(f"unit cost at {vdd} V must be a (power_uW, delay_ns) pair, got {cost!r}")
            for value in cost:
                if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                    raise ValueError(f"unit cost at {vdd} V must be positive and finite, got {value!r}")

    @classmethod
    @cache
    def default(cls) -> "CostModel":
        """The calibrated model, built and checked once: frozen over a read-only map, so every caller shares it."""
        return cls(MappingProxyType(dict(_UNIT_COSTS)))

    @classmethod
    def load(cls, path: str | Path) -> "CostModel":
        """Load unit costs from a config file.

        Each non-comment line holds ``vdd power_uW delay_ns`` separated by
        whitespace; ``#`` starts a comment.  A file with no such line is refused.
        """
        units: dict[float, tuple[float, float]] = {}
        line_of: dict[float, int] = {}
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'vdd power_uW delay_ns', got {raw!r}")
            try:
                vdd, p, d = (float(f) for f in fields)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field in {raw!r}") from None
            for name, value in zip(("vdd", "power_uW", "delay_ns"), (vdd, p, d)):
                if not (math.isfinite(value) and value > 0):
                    raise ValueError(f"{path}:{lineno}: {name} must be positive and finite, got {value!r}")
            if vdd in line_of:
                raise ValueError(f"{path}:{lineno}: {vdd} V repeats line {line_of[vdd]}")
            line_of[vdd] = lineno
            units[vdd] = (p, d)
        if not units:
            raise ValueError(f"{path}: no supply voltages found")
        return cls(MappingProxyType(units))

    @property
    def voltages(self) -> tuple[float, ...]:
        return tuple(sorted(self.units))

    def unit_cost(self, vdd: float, interpolate: bool = False) -> tuple[float, float]:
        """(power_uW, delay_ns) of one addition at ``vdd``.

        Off the grid, raises :class:`OffGridVoltageError` unless ``interpolate``,
        which blends the two neighbouring grid points linearly.
        """
        if vdd in self.units:
            return self.units[vdd]
        if not interpolate:
            raise OffGridVoltageError(
                f"{vdd} V is not on the calibration grid {self.voltages}; "
                "pass --interpolate (interpolate=True) to estimate between points"
            )
        grid = self.voltages
        if not grid[0] <= vdd <= grid[-1]:
            raise OffGridVoltageError(f"{vdd} V is outside the calibrated range {grid[0]}-{grid[-1]} V")
        hi = next(i for i, v in enumerate(grid) if v >= vdd)
        below, above = grid[hi - 1], grid[hi]
        t = (vdd - below) / (above - below)
        (p0, d0), (p1, d1) = self.units[below], self.units[above]
        return p0 * (1 - t) + p1 * t, d0 * (1 - t) + d1 * t


def vdd_label(vdd: float) -> str:
    """A supply voltage as printed: one decimal when that is exact, else in full."""
    short = f"{vdd:.1f}"
    return short if float(short) == vdd else repr(vdd)


def reduction_percent(baseline: float, candidate: float) -> float:
    """Percentage reduction of candidate relative to baseline."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return 100.0 * (1.0 - candidate / baseline)


@dataclass(frozen=True)
class CostGrid:
    """Power and delay cells for the three reference architectures.

    ``costs[arch][vdd]`` is ``(power_uW, delay_ns)``, one cell per
    architecture and calibrated voltage, the shape of a campaign's ``per_vdd``.
    """

    voltages: tuple[float, ...]
    add_counts: Mapping[str, int]
    costs: Mapping[str, Mapping[float, tuple[float, float]]]

    def reduction_note(self) -> str:
        conv = self.add_counts["conventional"]
        booth = self.add_counts["booth"]
        hybrid = self.add_counts["hybrid"]
        vs_conv = reduction_percent(conv, hybrid)
        vs_booth = reduction_percent(booth, hybrid)
        return (
            f"model-derived power/delay reduction of hybrid: "
            f"{vs_conv:.1f}% vs conventional, {vs_booth:.1f}% vs booth; "
            f"reference claims {REFERENCE_POWER_REDUCTION_PCT['conventional']:.0f}% and "
            f"{REFERENCE_POWER_REDUCTION_PCT['booth']:.0f}% for power, which does not "
            f"follow from the {conv}:{booth}:{hybrid} structure"
        )


def priced(units: Mapping[float, tuple[float, float]], adds: float) -> dict[float, tuple[float, float]]:
    """The cost of ``adds`` additions at each voltage of ``units``: ``adds`` times the unit cost."""
    return {vdd: (power * adds, delay * adds) for vdd, (power, delay) in units.items()}


def table2_report(model: CostModel | None = None) -> CostGrid:
    """Build the 3-architecture x 9-voltage power and delay grid."""
    model = model or CostModel.default()
    units = {v: model.unit_cost(v) for v in model.voltages}
    costs = {arch: priced(units, adds) for arch, adds in REFERENCE_ADD_COUNTS.items()}
    return CostGrid(voltages=model.voltages, add_counts=REFERENCE_ADD_COUNTS, costs=costs)
