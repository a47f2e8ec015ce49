"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 3 and the baseline-ordering leg of criterion 7 are strict
expected failures, kept red on purpose:

* criterion 3: the printed reference grid's conventional-power cell at
  1.4 V (167.8 uW) sits 3.0% off the 7:1 unit structure (7 x 23.25 =
  162.75), so "all 54 cells within 1%" is unattainable; every other cell
  agrees within 1% (see the companion test).
* criterion 7 ordering leg: on sparse multiplier streams a faithful
  gate-level model makes plain Booth toggle MORE than plain conventional
  (negative digits put dense two's-complement patterns into the array
  while conventional's zero rows stay quiet), so "Booth < conventional"
  does not hold; the hybrid-related legs all pass with wide margin.
"""

import functools
import time

import pytest

from reference_encoding import booth_value

from hybridmul.bitnum import Word, to_sign_magnitude
from hybridmul.encoding import Architecture, CategoryKind, booth_recode, multiply
from hybridmul.datapath import ArrayState, build_pp, detect_freeze, simulate_stream
from hybridmul.harness import (
    Campaign,
    RandomSource,
    gen_inputs,
    render_csv,
    render_json,
    run_campaign,
    trace,
)
from hybridmul.metrics import (
    REFERENCE_SWITCHING_REDUCTION_PCT,
    reduction_percent,
    table2_report,
)
from hybridmul.cli import main

# Printed reference grid (power in uW, delay in ns) at
# 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4 volts.
PRINTED_POWER = {
    "conventional": (31.98, 84.56, 122.5, 167.8, 246.9, 413.7, 525.0, 625.59, 662.2),
    "booth": (13.71, 36.24, 52.50, 69.75, 105.8, 177.3, 225.0, 268.11, 283.8),
    "hybrid": (4.569, 12.08, 17.50, 23.25, 35.27, 59.10, 75.00, 89.370, 94.60),
}
PRINTED_DELAY = {
    "conventional": (11.20, 5.138, 4.165, 3.213, 2.765, 2.443, 2.296, 2.1910, 1.932),
    "booth": (4.800, 2.200, 1.790, 1.380, 1.190, 1.050, 0.980, 0.9400, 0.830),
    "hybrid": (1.600, 0.734, 0.595, 0.459, 0.395, 0.349, 0.328, 0.3130, 0.276),
}

# Regression totals for the seed-42 sparse3 stream, pinned from the
# straight-line reference evaluator (tests/reference_array.py).
SEED42_PLAIN_TOTALS = {"conventional": 94226, "booth": 111685, "hybrid": 99008}
SEED42_HYBRID_SSST_TOTAL = 5856


def criterion(number, description):
    """Print one PASS/FAIL line per acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {description}")
                raise
            print(f"[criterion {number}] PASS  {description}")
            return result

        return wrapper

    return decorate


@criterion(1, "worked pixel example: trace 65 x 34")
def test_criterion_1_worked_example():
    start = time.perf_counter()
    result = trace(65, 34)
    assert result.category.kind == CategoryKind.D
    assert (result.category.i, result.category.j) == (2, 4)
    assert result.product == 2210
    assert (result.hybrid_counts.pp_count, result.hybrid_counts.add_count) == (1, 1)
    assert result.booth_digits == (-2, 1, -2, 1)
    assert "digits +1 -2 +1 -2 " in result.render()
    assert result.booth_counts.pp_count == 4
    assert result.conventional_counts.pp_count == 8
    assert time.perf_counter() - start < 1.0


@criterion(2, "16-bit partial-product counts: 16/15, 8/7, 1/2")
def test_criterion_2_16bit_counts():
    # multiplier 19 = 0b10011: three set bits, lowest at position 1, so the
    # hybrid path lands in the two-addition category
    a, b, width = 40001, 19, 16
    conventional = multiply(a, b, Architecture.CONVENTIONAL, width=width)
    booth = multiply(a, b, Architecture.BOOTH, width=width)
    hybrid = multiply(a, b, Architecture.HYBRID, width=width)
    assert conventional.product == booth.product == hybrid.product == a * b
    assert (conventional.counts.pp_count, conventional.counts.add_count) == (16, 15)
    assert (booth.counts.pp_count, booth.counts.add_count) == (8, 7)
    assert (hybrid.counts.pp_count, hybrid.counts.add_count) == (1, 2)


@pytest.mark.xfail(
    strict=True,
    reason="printed conventional power at 1.4 V (167.8 uW) is 3.0% off the "
    "7:1 structure (7 x 23.25 = 162.75); all other 53 cells agree within 1%",
)
@criterion(3, "cost grid matches every printed cell within 1%")
def test_criterion_3_cost_grid_strict():
    grid = table2_report()
    for arch in PRINTED_POWER:
        for i, vdd in enumerate(grid.voltages):
            power, delay = grid.costs[arch][vdd]
            assert power == pytest.approx(PRINTED_POWER[arch][i], rel=0.01)
            assert delay == pytest.approx(PRINTED_DELAY[arch][i], rel=0.01)


@criterion(3, "cost grid matches printed cells (53/54 within 1%, outlier within 3.1%)")
def test_criterion_3_cost_grid_attainable():
    start = time.perf_counter()
    grid = table2_report()
    outliers = []
    for arch in PRINTED_POWER:
        for i, vdd in enumerate(grid.voltages):
            for model_value, printed in zip(grid.costs[arch][vdd], (PRINTED_POWER, PRINTED_DELAY)):
                err = abs(model_value / printed[arch][i] - 1.0)
                if err > 0.01:
                    outliers.append((arch, vdd, model_value, printed[arch][i], err))
    # exactly one printed cell breaks the unit structure
    assert len(outliers) == 1
    arch, vdd, model_value, printed_value, err = outliers[0]
    assert (arch, vdd) == ("conventional", 1.4)
    assert (model_value, printed_value) == (pytest.approx(162.75), 167.8)
    assert err < 0.031
    assert time.perf_counter() - start < 1.0


@criterion(4, "exhaustive width-8 correctness plus 10k signed pairs")
def test_criterion_4_exhaustive_correctness():
    start = time.perf_counter()
    for arch in Architecture:
        for a in range(256):
            for b in range(256):
                assert multiply(a, b, arch, width=8).product == a * b
    signed_pairs = gen_inputs(RandomSource(10_000, "uniform"), 8, seed=42)
    for a, b in signed_pairs:
        for arch in Architecture:
            assert multiply(a, b, arch, width=8).product == a * b
    assert time.perf_counter() - start < 30.0


@criterion(5, "radix-4 digit properties over all width-8 operands")
def test_criterion_5_booth_properties():
    for value in range(256):
        digits = booth_recode(Word(value, 8))
        assert booth_value(digits) == value
        assert all(-2 <= d <= 2 for d in digits)
        # zero-extension engages exactly when the top bit is set: a coded
        # width of 10 bits, else 8
        assert len(digits) == (5 if value >= 128 else 4)


@criterion(6, "freeze gating: transparent products, silent rows, monotone totals")
def test_criterion_6_ssst_invariants():
    width6_pairs = [(a, b) for a in range(64) for b in range(64)]
    width8_pairs = gen_inputs(RandomSource(1_500, "uniform"), 8, seed=13)

    # (a) products stay exact with gating on and off; simulate_stream checks
    # every product against the native-multiply oracle as it runs
    # (c) gating never increases the toggle total on any tested stream
    for arch in Architecture:
        for pairs, width in ((width6_pairs, 6), (width8_pairs, 8)):
            gated = simulate_stream(pairs, arch, width, ssst_enabled=True)
            plain = simulate_stream(pairs, arch, width, ssst_enabled=False)
            assert gated.total_toggles <= plain.total_toggles
            assert gated.frozen_cell_evaluations > 0

    # (b) frozen rows contribute exactly zero toggles
    sparse_pairs = gen_inputs(RandomSource(300, "sparse3"), 8, seed=21)
    for arch in Architecture:
        state = ArrayState(8, arch)
        for a, b in sparse_pairs:
            ma = to_sign_magnitude(a, 8).magnitude
            mb = to_sign_magnitude(b, 8).magnitude
            pp = build_pp(ma, mb, arch)
            _, delta = state.evaluate(pp, True)
            for row, frozen in enumerate(detect_freeze(pp, state.geometry)):
                if frozen:
                    assert delta.csa_toggles[row] == 0


@criterion(7, "sparse-stream switching: gated hybrid beats both baselines by >= 60%")
def test_criterion_7_switching_reduction():
    start = time.perf_counter()
    pairs = gen_inputs(RandomSource(1_000, "sparse3"), 8, seed=42)
    # the proposed design is the freeze-gated one; baselines run ungated
    hybrid = simulate_stream(pairs, Architecture.HYBRID, 8, ssst_enabled=True)
    booth = simulate_stream(pairs, Architecture.BOOTH, 8, ssst_enabled=False)
    conventional = simulate_stream(pairs, Architecture.CONVENTIONAL, 8, ssst_enabled=False)

    # regression pins against the reference-evaluator baseline
    assert hybrid.total_toggles == SEED42_HYBRID_SSST_TOTAL
    assert booth.total_toggles == SEED42_PLAIN_TOTALS["booth"]
    assert conventional.total_toggles == SEED42_PLAIN_TOTALS["conventional"]

    assert hybrid.total_toggles < booth.total_toggles
    assert hybrid.total_toggles < conventional.total_toggles
    vs_conventional = reduction_percent(conventional.total_toggles, hybrid.total_toggles)
    vs_booth = reduction_percent(booth.total_toggles, hybrid.total_toggles)
    assert vs_conventional >= 60.0
    print(
        f"    measured toggle reduction: {vs_conventional:.1f}% vs conventional "
        f"(reference claim {REFERENCE_SWITCHING_REDUCTION_PCT['conventional']:.0f}%), "
        f"{vs_booth:.1f}% vs booth "
        f"(reference claim {REFERENCE_SWITCHING_REDUCTION_PCT['booth']:.0f}%)"
    )
    assert time.perf_counter() - start < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="plain Booth toggles more than plain conventional on sparse "
    "multiplier streams in this cell model: negative digits inject dense "
    "two's-complement patterns while conventional's zero rows stay quiet "
    "(seed-42 totals: booth 111685 vs conventional 94226). It fails only at "
    "width 8 sparse3: the ordering holds at width 8 uniform and at widths 16 "
    "and 32 for both sparse3 and uniform (the test below)",
)
@criterion(7, "sparse-stream baseline ordering: plain Booth < plain conventional")
def test_criterion_7_baseline_ordering():
    pairs = gen_inputs(RandomSource(1_000, "sparse3"), 8, seed=42)
    booth = simulate_stream(pairs, Architecture.BOOTH, 8, ssst_enabled=False)
    conventional = simulate_stream(pairs, Architecture.CONVENTIONAL, 8, ssst_enabled=False)
    assert booth.total_toggles < conventional.total_toggles


@pytest.mark.parametrize(
    "width, dist", [(8, "uniform"), (16, "sparse3"), (16, "uniform"), (32, "sparse3"), (32, "uniform")]
)
@criterion(7, "baseline ordering off width 8 sparse3: plain Booth < plain conventional")
def test_criterion_7_baseline_ordering_holds_elsewhere(width, dist):
    pairs = gen_inputs(RandomSource(1_000, dist), width, seed=42)
    booth = simulate_stream(pairs, Architecture.BOOTH, width, ssst_enabled=False)
    conventional = simulate_stream(pairs, Architecture.CONVENTIONAL, width, ssst_enabled=False)
    assert booth.total_toggles < conventional.total_toggles


@criterion(8, "campaigns are byte-identical across repeat runs")
def test_criterion_8_determinism(tmp_path):
    campaign = Campaign(
        width=8,
        source=RandomSource(200, "sparse3"),
        seed=7,
        simulate_toggles=True,
        ssst=True,
        vdds=(0.8, 1.2, 2.4),
    )
    first = run_campaign(campaign)
    second = run_campaign(campaign)
    assert render_csv(first) == render_csv(second)
    assert render_json(first) == render_json(second)

    argv = [
        "compare", "--width", "8", "--inputs", "random:50", "--seed", "7",
        "--dist", "sparse3", "--toggles", "--ssst",
    ]
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--format", "csv", "--out", str(csv_a)]) == 0
    assert main(argv + ["--format", "csv", "--out", str(csv_b)]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    json_a, json_b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--format", "json", "--out", str(json_a)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_b)]) == 0
    assert json_a.read_bytes() == json_b.read_bytes()
