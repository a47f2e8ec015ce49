"""Bit-accurate simulator and analysis toolkit for three multiplier
architectures: conventional shift-and-add, radix-4 Booth, and a sparse
hybrid encoding with spurious-switching suppression (SSST) freeze gating.
"""

__version__ = "0.1.0"

from .bitnum import SignMag, Word, to_sign_magnitude
from .encoding import (
    Architecture,
    Category,
    CategoryKind,
    MultiplyResult,
    OpCounts,
    PPMatrix,
    PPRow,
    ProductMismatchError,
    booth_pp,
    booth_recode,
    classify,
    conventional_pp,
    hybrid_plan,
    hybrid_pp,
    multiply,
    split,
)
from .datapath import (
    ArrayGeometry,
    ArrayState,
    ToggleReport,
    detect_freeze,
    simulate_stream,
)
from .metrics import (
    CostModel,
    reduction_percent,
    table2_report,
)
from .harness import Campaign, gen_inputs, run_campaign, trace

__all__ = [
    "Architecture",
    "ArrayGeometry",
    "ArrayState",
    "Campaign",
    "Category",
    "CategoryKind",
    "CostModel",
    "MultiplyResult",
    "OpCounts",
    "PPMatrix",
    "PPRow",
    "ProductMismatchError",
    "SignMag",
    "ToggleReport",
    "Word",
    "booth_pp",
    "booth_recode",
    "classify",
    "conventional_pp",
    "detect_freeze",
    "gen_inputs",
    "hybrid_plan",
    "hybrid_pp",
    "multiply",
    "reduction_percent",
    "run_campaign",
    "simulate_stream",
    "split",
    "table2_report",
    "to_sign_magnitude",
    "trace",
]
