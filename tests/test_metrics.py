import dataclasses
import math
import re

import pytest
from hypothesis import given, strategies as st

from hybridmul.metrics import (
    REFERENCE_ADD_COUNTS,
    CostModel,
    OffGridVoltageError,
    reduction_percent,
    table2_report,
    vdd_label,
)

DEFAULT = CostModel.default()


class TestPowerEstimate:
    """Power of n additions is n times the unit power."""

    def test_conventional_at_1v2(self):
        assert 7 * DEFAULT.unit_cost(1.2)[0] == pytest.approx(122.5)

    def test_booth_at_1v6(self):
        assert 3 * DEFAULT.unit_cost(1.6)[0] == pytest.approx(105.81)

    def test_single_add_at_2v4(self):
        assert DEFAULT.unit_cost(2.4)[0] == pytest.approx(94.60)

    def test_zero_adds_cost_nothing(self):
        assert 0 * DEFAULT.unit_cost(1.2)[0] == 0.0

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
    def test_linearity(self, a, b):
        for vdd in (0.8, 1.6, 2.4):
            power = DEFAULT.unit_cost(vdd)[0]
            assert (a + b) * power == pytest.approx(a * power + b * power)


class TestDelayEstimate:
    def test_single_add_at_0v8(self):
        assert DEFAULT.unit_cost(0.8)[1] == pytest.approx(1.600)

    def test_booth_at_2v2(self):
        assert 3 * DEFAULT.unit_cost(2.2)[1] == pytest.approx(0.939)

    def test_conventional_at_1v0(self):
        assert 7 * DEFAULT.unit_cost(1.0)[1] == pytest.approx(5.138)


class TestVoltageGrid:
    def test_off_grid_rejected_by_default(self):
        with pytest.raises(OffGridVoltageError):
            DEFAULT.unit_cost(1.1)

    def test_interpolation_opt_in(self):
        midpoint = DEFAULT.unit_cost(1.1, interpolate=True)[0]
        assert midpoint == pytest.approx((12.08 + 17.50) / 2)

    def test_interpolation_stays_in_range(self):
        with pytest.raises(OffGridVoltageError):
            DEFAULT.unit_cost(2.6, interpolate=True)
        with pytest.raises(OffGridVoltageError):
            DEFAULT.unit_cost(0.5, interpolate=True)

    def test_grid_voltages(self):
        assert DEFAULT.voltages == (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4)

    def test_unit_cost_prices_both_tables(self):
        assert DEFAULT.unit_cost(1.2) == (17.50, 0.595)
        assert DEFAULT.unit_cost(1.2, interpolate=True) == (17.50, 0.595)
        with pytest.raises(OffGridVoltageError, match="--interpolate"):
            DEFAULT.unit_cost(1.1)

    def test_interpolated_floats_are_pinned(self):
        # the blend's exact IEEE results, so a rewrite of it cannot drift a printed digit
        assert DEFAULT.unit_cost(0.9, interpolate=True) == (8.3245, 1.167)
        assert DEFAULT.unit_cost(1.1, interpolate=True) == (14.790000000000003, 0.6644999999999999)


class TestReductionPercent:
    def test_reference_family(self):
        assert reduction_percent(122.5, 17.5) == pytest.approx(85.714285, abs=1e-4)

    def test_equal_inputs(self):
        assert reduction_percent(42.0, 42.0) == 0.0

    def test_candidate_zero(self):
        assert reduction_percent(42.0, 0.0) == 100.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            reduction_percent(0.0, 1.0)


class TestVddLabel:
    def test_grid_voltages_keep_one_decimal(self):
        assert [vdd_label(v) for v in DEFAULT.voltages] == [f"{v:.1f}" for v in DEFAULT.voltages]
        assert vdd_label(1.0) == "1.0"

    def test_finer_voltages_print_in_full(self):
        assert vdd_label(1.25) == "1.25"
        assert vdd_label(0.825) == "0.825"

    @given(st.floats(min_value=0.01, max_value=10.0))
    def test_label_round_trips(self, vdd):
        assert float(vdd_label(vdd)) == vdd


class TestCostModel:
    def test_load_round_trip(self, tmp_path):
        config = tmp_path / "model.cfg"
        config.write_text(
            "# vdd  power_uW  delay_ns\n"
            "0.8 4.569 1.600\n"
            "1.2 17.50 0.595  # mid grid\n"
        )
        model = CostModel.load(config)
        assert model.voltages == (0.8, 1.2)
        assert model.unit_cost(1.2) == (17.50, 0.595)
        assert 7 * model.unit_cost(1.2)[0] == pytest.approx(122.5)

    def test_load_rejects_malformed_line(self, tmp_path):
        config = tmp_path / "model.cfg"
        config.write_text("0.8 4.569\n")
        with pytest.raises(ValueError, match="model.cfg:1"):
            CostModel.load(config)

    def test_load_rejects_non_numeric(self, tmp_path):
        config = tmp_path / "model.cfg"
        config.write_text("0.8 abc 1.0\n")
        with pytest.raises(ValueError, match="model.cfg:1"):
            CostModel.load(config)

    @pytest.mark.parametrize("text", ["", "# vdd power_uW delay_ns\n\n   # none yet\n"], ids=["empty", "comments"])
    def test_load_rejects_a_file_without_voltages(self, tmp_path, text):
        """The error names the file, as a pairs file with no pairs does."""
        config = tmp_path / "model.cfg"
        config.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(config))}: no supply voltages found$"):
            CostModel.load(config)

    def test_tables_must_be_positive(self):
        with pytest.raises(ValueError):
            CostModel({1.2: (0.0, 1.0)})
        with pytest.raises(ValueError, match="^cost model must define at least one voltage$"):
            CostModel({})

    @pytest.mark.parametrize("cost", [5.0, (1.0,), (1.0, 2.0, 3.0), [1.0, 2.0], ("1.0", 2.0), None])
    def test_each_entry_must_be_a_pair(self, cost):
        with pytest.raises(ValueError, match="at 1.2 V"):
            CostModel({1.2: cost})

    @pytest.mark.parametrize("vdd", ["1.2", None, (1.2,)])
    def test_each_voltage_must_be_a_number(self, vdd):
        with pytest.raises(ValueError, match=re.escape(repr(vdd))):
            CostModel({vdd: (1.0, 1.0)})

    def test_default_is_one_shared_read_only_model(self):
        """Every caller gets the same default model, and none can change it for the others."""
        assert CostModel.default() is CostModel.default() is DEFAULT
        with pytest.raises(TypeError):
            DEFAULT.units[1.2] = (1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT.units = {1.2: (1.0, 1.0)}
        assert DEFAULT.unit_cost(1.2) == (17.50, 0.595)


class TestCostGrid:
    def test_ratio_law_exact_under_model(self):
        grid = table2_report()
        for vdd in grid.voltages:
            hybrid_p, hybrid_d = grid.costs["hybrid"][vdd]
            assert grid.costs["conventional"][vdd][0] == pytest.approx(7 * hybrid_p)
            assert grid.costs["booth"][vdd][0] == pytest.approx(3 * hybrid_p)
            assert grid.costs["conventional"][vdd][1] == pytest.approx(7 * hybrid_d)
            assert grid.costs["booth"][vdd][1] == pytest.approx(3 * hybrid_d)

    def test_grid_shape(self):
        grid = table2_report()
        assert len(grid.voltages) == 9
        assert list(grid.costs) == list(REFERENCE_ADD_COUNTS)
        for arch in grid.costs:
            assert list(grid.costs[arch]) == list(grid.voltages)

    def test_unit_model_reduces_to_add_counts(self):
        flat = CostModel({v: (1.0, 1.0) for v in DEFAULT.voltages})
        grid = table2_report(flat)
        for arch, adds in REFERENCE_ADD_COUNTS.items():
            for vdd in grid.voltages:
                assert grid.costs[arch][vdd] == (adds, adds)

    def test_reduction_note_flags_power_claim_gap(self):
        note = table2_report().reduction_note()
        assert "85.7" in note
        assert "66.7" in note
        assert "26" in note


def test_reference_constants_sane():
    assert REFERENCE_ADD_COUNTS == {"conventional": 7, "booth": 3, "hybrid": 1}
    assert math.isclose(sum(DEFAULT.voltages), 14.4)
