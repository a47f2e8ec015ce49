"""The package's public surface: exactly these names, each one importable."""

import re
from pathlib import Path

import hybridmul

EXPORTS = [
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

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_are_pinned():
    assert sorted(hybridmul.__all__) == EXPORTS


def test_every_export_resolves():
    for name in hybridmul.__all__:
        assert hasattr(hybridmul, name), name


def _library_section():
    return README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]


def test_readme_library_section_lists_the_exports():
    listed = _library_section().split("Exported from `hybridmul`:", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", listed)) == EXPORTS


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", _library_section(), re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
