"""Operation-count analytics and the calibrated power/delay cost model.

The model is linear in the number of sequential additions a multiply needs:
one addition costs ``unit_power(vdd)`` microwatts and ``unit_delay(vdd)``
nanoseconds, with unit values calibrated per supply voltage from reference
measurements of a single-addition multiplier.  The three architectures land
at 7 (conventional, 8 PP), 3 (Booth, 4 PP) and 1 (hybrid, 1 PP) additions for
8-bit operands, so the model grid is the familiar 7:3:1 ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

TABLE_VOLTAGES: tuple[float, ...] = (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4)

# Reference unit costs of one addition stage (single-PP multiplier), indexed
# by supply voltage.  Power in microwatts, delay in nanoseconds.
_UNIT_POWER_UW = {
    0.8: 4.569,
    1.0: 12.08,
    1.2: 17.50,
    1.4: 23.25,
    1.6: 35.27,
    1.8: 59.10,
    2.0: 75.00,
    2.2: 89.370,
    2.4: 94.60,
}
_UNIT_DELAY_NS = {
    0.8: 1.600,
    1.0: 0.734,
    1.2: 0.595,
    1.4: 0.459,
    1.6: 0.395,
    1.8: 0.349,
    2.0: 0.328,
    2.2: 0.3130,
    2.4: 0.276,
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
    """Per-addition unit power/delay on a fixed supply-voltage grid."""

    unit_power: Mapping[float, float]
    unit_delay: Mapping[float, float]

    def __post_init__(self) -> None:
        if set(self.unit_power) != set(self.unit_delay):
            raise ValueError("power and delay tables must cover the same voltages")
        if not self.unit_power:
            raise ValueError("cost model must define at least one voltage")
        for vdd in self.unit_power:
            if not (math.isfinite(vdd) and vdd > 0):
                raise ValueError(f"supply voltage must be positive and finite, got {vdd}")
        for table in (self.unit_power, self.unit_delay):
            for vdd, value in table.items():
                if not (math.isfinite(value) and value > 0):
                    raise ValueError(f"unit cost at {vdd} V must be positive and finite, got {value}")

    @classmethod
    def default(cls) -> "CostModel":
        return cls(
            unit_power=MappingProxyType(dict(_UNIT_POWER_UW)),
            unit_delay=MappingProxyType(dict(_UNIT_DELAY_NS)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "CostModel":
        """Load unit costs from a config file.

        Each non-comment line holds ``vdd power_uW delay_ns`` separated by
        whitespace; ``#`` starts a comment.
        """
        power: dict[float, float] = {}
        delay: dict[float, float] = {}
        line_of: dict[float, int] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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
            if vdd in line_of:
                raise ValueError(f"{path}:{lineno}: {vdd} V repeats line {line_of[vdd]}")
            line_of[vdd] = lineno
            power[vdd] = p
            delay[vdd] = d
        return cls(unit_power=MappingProxyType(power), unit_delay=MappingProxyType(delay))

    @property
    def voltages(self) -> tuple[float, ...]:
        return tuple(sorted(self.unit_power))

    def unit_cost(self, vdd: float, interpolate: bool = False) -> tuple[float, float]:
        """(power_uW, delay_ns) of one addition at ``vdd``.

        Off the grid, raises :class:`OffGridVoltageError` unless ``interpolate``,
        which blends the two neighbouring grid points linearly.
        """
        if vdd in self.unit_power:
            return self.unit_power[vdd], self.unit_delay[vdd]
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
        return (
            self.unit_power[below] * (1 - t) + self.unit_power[above] * t,
            self.unit_delay[below] * (1 - t) + self.unit_delay[above] * t,
        )


def power_estimate(
    add_count: int, vdd: float, model: CostModel | None = None, interpolate: bool = False
) -> float:
    """Estimated power in microwatts: add_count times the unit cost at vdd."""
    if add_count < 0:
        raise ValueError("add_count must be non-negative")
    return add_count * (model or CostModel.default()).unit_cost(vdd, interpolate)[0]


def delay_estimate(
    add_count: int, vdd: float, model: CostModel | None = None, interpolate: bool = False
) -> float:
    """Estimated delay in nanoseconds: add_count times the unit delay at vdd."""
    if add_count < 0:
        raise ValueError("add_count must be non-negative")
    return add_count * (model or CostModel.default()).unit_cost(vdd, interpolate)[1]


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

    ``power[arch][vdd]`` in microwatts, ``delay[arch][vdd]`` in nanoseconds,
    one cell per architecture and calibrated voltage.
    """

    voltages: tuple[float, ...]
    add_counts: Mapping[str, int]
    power: Mapping[str, Mapping[float, float]]
    delay: Mapping[str, Mapping[float, float]]

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


def table2_report(model: CostModel | None = None) -> CostGrid:
    """Build the 3-architecture x 9-voltage power and delay grid."""
    model = model or CostModel.default()
    voltages = model.voltages
    power: dict[str, dict[float, float]] = {}
    delay: dict[str, dict[float, float]] = {}
    for arch, adds in REFERENCE_ADD_COUNTS.items():
        power[arch] = {v: power_estimate(adds, v, model) for v in voltages}
        delay[arch] = {v: delay_estimate(adds, v, model) for v in voltages}
    return CostGrid(
        voltages=voltages,
        add_counts=REFERENCE_ADD_COUNTS,
        power=power,
        delay=delay,
    )
