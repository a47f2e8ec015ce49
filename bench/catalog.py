"""Every metric the benchmark reports: name, unit, which direction is better, bound.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.
"""

from __future__ import annotations

from .tracer import SPAN_NAMES, WORD_COUNT
from .workloads import CATEGORY_KINDS

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("pairs_per_s", "1/s", "higher", 0.25),
    ("call_ms_p50", "ms", "lower", 0.25),
    ("call_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# (name, unit, better)
PER_LAYER = (
    tuple((f"{name}.calls", "count", "lower") for name in SPAN_NAMES)
    + tuple((f"{name}.self_s", "s", "lower") for name in SPAN_NAMES)
    + ((WORD_COUNT, "count", "lower"),)
    + tuple((f"encoding.category.{kind}", "count", "lower" if kind == "Split" else "higher")
            for kind in CATEGORY_KINDS)
    + (
        ("encoding.split.booth_fallback_halves", "count", "lower"),
        ("datapath.frozen_cell_fraction", "ratio", "higher"),
        ("datapath.toggles_per_eval", "count", "lower"),
        ("trace.untraced_pairs_per_s", "1/s", "higher"),
        ("trace.traced_pairs_per_s", "1/s", "higher"),
        ("trace.overhead", "ratio", "lower"),
    )
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
