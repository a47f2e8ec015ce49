from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from reference_array import ReferenceArray

from hybridmul.bitnum import Word, to_sign_magnitude
import hybridmul.encoding as encoding
from hybridmul.encoding import (
    Architecture,
    PPMatrix,
    PPRow,
    STREAM_CHUNK,
    _pack,
    booth_pp,
    booth_recode,
    conventional_pp,
    count_pairs,
    hybrid_pp,
    multiply,
)
import hybridmul.datapath as dp
from hybridmul.datapath import (
    ArrayGeometry,
    ArrayState,
    GeometryError,
    Lanes,
    ProductMismatchError,
    _layout,
    _adder_row,
    _fold_rows,
    _lane_counts,
    _popcount_masks,
    _unpack16,
    build_pp,
    detect_freeze,
    simulate_stream,
)
from hybridmul.harness import RandomSource, gen_inputs

# Frozen from the reference evaluator on the seed-42 sparse3 stream
# (1000 width-8 pairs, multiplier popcount <= 3), no freezing.
SEED42_PLAIN_TOTALS = {
    Architecture.CONVENTIONAL: 94226,
    Architecture.BOOTH: 111685,
    Architecture.HYBRID: 99008,
}

# Single evaluation of 65 x 34 from the all-zero reset state, no freezing,
# computed by the reference evaluator.  Note the sparse multiplicand makes
# the plain conventional array the quietest of the three here; the ordering
# claims in the acceptance suite are about gated streams, not single pairs.
SINGLE_6534_PLAIN = {
    Architecture.CONVENTIONAL: 52,
    Architecture.BOOTH: 141,
    Architecture.HYBRID: 68,
}


def seed42_pairs():
    return gen_inputs(RandomSource(1000, "sparse3"), 8, seed=42)


def magnitudes(a, b, width=8):
    return to_sign_magnitude(a, width).magnitude, to_sign_magnitude(b, width).magnitude


# The encoder's PP matrix of each architecture, the form the reference array reads.
REFERENCE_PP = {
    Architecture.CONVENTIONAL: conventional_pp,
    Architecture.BOOTH: lambda ma, mb: booth_pp(ma, booth_recode(mb)),
    Architecture.HYBRID: hybrid_pp,
}


class TestGeometry:
    def test_row_counts(self):
        assert ArrayGeometry.create(8, Architecture.CONVENTIONAL).rows == 8
        assert ArrayGeometry.create(8, Architecture.HYBRID).rows == 8
        assert ArrayGeometry.create(8, Architecture.BOOTH).rows == 6

    def test_node_count_fixed(self):
        reference = ReferenceArray(8, Architecture.CONVENTIONAL)
        assert 8 * 16 + 7 * 5 * 16 + 5 * 16 == len(reference.nodes)
        reference.evaluate(conventional_pp(Word(65, 8), Word(34, 8)))
        assert 8 * 16 + 7 * 5 * 16 + 5 * 16 == len(reference.nodes)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            ArrayGeometry.create(3, Architecture.BOOTH)


class TestEvaluate:
    def test_worked_example_matches_reference(self):
        for arch in Architecture:
            ma, mb = magnitudes(65, 34)
            state = ArrayState(8, arch)
            product, delta = state.evaluate(build_pp(ma, mb, arch))
            reference = ReferenceArray(8, arch)
            ref_product, ref_toggles = reference.evaluate(REFERENCE_PP[arch](ma, mb))
            assert product == ref_product == 2210
            assert delta.total_toggles == ref_toggles == SINGLE_6534_PLAIN[arch]

    def test_repeat_evaluation_is_silent(self):
        state = ArrayState(8, Architecture.CONVENTIONAL)
        pp = build_pp(*magnitudes(65, 34), Architecture.CONVENTIONAL)
        state.evaluate(pp)
        _, delta = state.evaluate(pp)
        assert delta.total_toggles == 0

    def test_frozen_rows_silent_after_nonzero_state(self):
        state = ArrayState(8, Architecture.CONVENTIONAL)
        state.evaluate(build_pp(*magnitudes(255, 255), Architecture.CONVENTIONAL))
        zero_pp = build_pp(*magnitudes(0, 0), Architecture.CONVENTIONAL)
        assert all(detect_freeze(zero_pp, state.geometry))
        product, delta = state.evaluate(zero_pp, True)
        assert product == 0
        assert all(t == 0 for t in delta.csa_toggles)

    def test_products_match_reference_on_random_stream(self):
        pairs = gen_inputs(RandomSource(150, "uniform"), 8, seed=9)
        for arch in Architecture:
            state = ArrayState(8, arch)
            reference = ReferenceArray(8, arch)
            for a, b in pairs:
                ma, mb = magnitudes(a, b)
                product, delta = state.evaluate(build_pp(ma, mb, arch))
                ref_product, ref_toggles = reference.evaluate(REFERENCE_PP[arch](ma, mb))
                assert product == ref_product == abs(a * b)
                assert delta.total_toggles == ref_toggles

    def test_geometry_mismatch_row_count(self):
        state = ArrayState(8, Architecture.BOOTH)
        pp = build_pp(*magnitudes(65, 34), Architecture.CONVENTIONAL)  # 8 rows
        with pytest.raises(GeometryError):
            state.evaluate(pp)
        # the same rows refused as a matrix, before they are folded: Booth's last row is its correction
        with pytest.raises(GeometryError, match="^8 PP rows offered to a 5-row array$"):
            _fold_rows(conventional_pp(*magnitudes(65, 34)), state.geometry)

    def test_geometry_mismatch_negated_row_outside_booth(self):
        state = ArrayState(8, Architecture.CONVENTIONAL)
        rows = tuple(
            PPRow(Word(65, 9), weight=k, negate=(k == 0)) for k in range(8)
        )
        with pytest.raises(GeometryError):
            _fold_rows(PPMatrix(rows), state.geometry)

    def test_geometry_mismatch_oversized_row(self):
        state = ArrayState(8, Architecture.CONVENTIONAL)
        rows = (PPRow(Word(65, 8), weight=12),) + tuple(
            PPRow(Word(0, 8), weight=k) for k in range(1, 8)
        )
        with pytest.raises(GeometryError):
            _fold_rows(PPMatrix(rows), state.geometry)

    def test_geometry_mismatch_run_width(self):
        # Booth arrays of widths 8 and 9 both have 6 rows; the 17-bit lanes
        # of a width-9 run must not be read as width 8's 16-column array.
        state = ArrayState(8, Architecture.BOOTH)
        pp = build_pp(Lanes((300, 5), 9), Lanes((400, 7), 9), Architecture.BOOTH)
        with pytest.raises(GeometryError):
            state.evaluate(pp)
        with pytest.raises(GeometryError):
            detect_freeze(pp, state.geometry)


class TestOperandWidths:
    """A lane value or operand pair that does not fit the run's width raises, never folds into a wrong product."""

    @pytest.mark.parametrize("values", [(1 << 9, 7), (3, -1), (256,)])
    def test_lane_value_must_fit_its_width(self, values):
        with pytest.raises(ValueError, match="does not fit in 8 bits"):
            Lanes(values, 8)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_oversized_multiplier_lane_is_refused(self, arch):
        # before the check, conventional gave [0, 35] and Booth [64000, 34]
        with pytest.raises(ValueError):
            ArrayState(8, arch).evaluate(build_pp(Lanes((3, 5), 8), Lanes((1 << 9, 7), 8), arch))

    @pytest.mark.parametrize("arch", list(Architecture))
    @pytest.mark.parametrize("operand", [lambda v, w: Lanes((v,), w), Word], ids=["lanes", "word"])
    def test_operands_of_different_widths_are_refused(self, operand, arch):
        # before the check, conventional lanes gave 0 where 3 * 1024 is right
        with pytest.raises(ValueError, match="operand widths differ: 8 and 12"):
            build_pp(operand(3, 8), operand(1 << 10, 12), arch)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_operands_of_different_lane_counts_are_refused(self, arch):
        # before the check, lane 1 was evaluated as 2 x 0
        with pytest.raises(ValueError, match="operand lane counts must be equal and nonzero: 2 and 1"):
            build_pp(Lanes((1, 2), 8), Lanes((3,), 8), arch)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_empty_run_is_refused(self, arch):
        # before the check, evaluate failed with "negative shift count"
        with pytest.raises(ValueError, match="operand lane counts must be equal and nonzero: 0 and 0"):
            build_pp(Lanes((), 8), Lanes((), 8), arch)


class TestDetectFreeze:
    @staticmethod
    def gated(arch, a, b):
        """(row masks, delta) of one gated width-8 evaluation from the reset state."""
        state = ArrayState(8, arch)
        pp = build_pp(*magnitudes(a, b), arch)
        return detect_freeze(pp, state.geometry), state.evaluate(pp, True)[1]

    def test_hybrid_single_live_row(self):
        row_frozen, _ = self.gated(Architecture.HYBRID, 65, 34)
        assert sum(1 for z in row_frozen if z) == 7
        assert row_frozen[0] == 0

    def test_all_zero_pp_freezes_everything(self):
        geometry = ArrayGeometry.create(8, Architecture.CONVENTIONAL)
        row_frozen, delta = self.gated(Architecture.CONVENTIONAL, 0, 0)
        assert all(row_frozen)
        assert delta.lanes.col_frozen.bit_count() == geometry.cols

    def test_dense_pp_freezes_nothing(self):
        row_frozen, _ = self.gated(Architecture.CONVENTIONAL, 255, 255)
        assert not any(row_frozen)

    def test_column_flags_cover_quiet_columns(self):
        _, delta = self.gated(Architecture.HYBRID, 65, 34)
        # single live row: the final adder sees exactly the product bits
        assert delta.lanes.col_frozen == ~2210 & (2**16 - 1)

    @pytest.mark.parametrize("arch", [Architecture.CONVENTIONAL, Architecture.HYBRID])
    def test_zero_rows_mixed_with_live_rows(self, arch):
        """Each row's mask is the columns of exactly the lanes in which it is zero, literal-zero rows included."""
        # multiplier bits 4 and 6 are clear in every lane, so those conventional rows are literal zeros;
        # the hybrid's rows after row 0 always are
        pp = build_pp(Lanes((65, 0, 3, 255, 7), 8), Lanes((34, 5, 0, 131, 9), 8), arch)
        lay = pp.layout
        assert 0 in pp.rows[1:] and any(pp.rows)
        cells = (1 << lay.cols) - 1
        masks = tuple(
            sum(cells << i * lay.lane for i in range(lay.count) if not lane(row, i, lay)) for row in pp.rows
        )
        assert detect_freeze(pp, ArrayGeometry.create(8, arch)) == masks


class TestSimulateStream:
    def test_identical_pairs_silent_after_first(self):
        for arch in Architecture:
            report = simulate_stream([(65, 34)] * 5, arch, 8, ssst_enabled=False)
            first = simulate_stream([(65, 34)], arch, 8, ssst_enabled=False)
            assert report.total_toggles == first.total_toggles
            assert report.operations_simulated == 5

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            simulate_stream([], Architecture.HYBRID, 8, ssst_enabled=False)

    def test_stream_total_cannot_be_split(self):
        report = simulate_stream([(65, 34)] * 3, Architecture.HYBRID, 8, ssst_enabled=False)
        with pytest.raises(ValueError, match="ArrayState.evaluate"):
            report.split()

    def test_run_record_with_another_added_cannot_be_split(self):
        state = ArrayState(8, Architecture.CONVENTIONAL)
        _, run = state.evaluate(build_pp(Lanes((65, 3), 8), Lanes((34, 5), 8), Architecture.CONVENTIONAL))
        _, more = state.evaluate(build_pp(*magnitudes(7, 9), Architecture.CONVENTIONAL))
        run.accumulate(more)
        assert run.operations_simulated == 3
        with pytest.raises(ValueError, match="ArrayState.evaluate"):
            run.split()

    def test_records_of_arrays_with_different_row_counts_cannot_be_added(self):
        conventional = simulate_stream([(65, 34)], Architecture.CONVENTIONAL, 8, ssst_enabled=False)
        booth = simulate_stream([(65, 34)], Architecture.BOOTH, 8, ssst_enabled=False)
        with pytest.raises(ValueError, match="different row counts"):
            conventional.accumulate(booth)

    def test_seed42_regression_totals(self):
        pairs = seed42_pairs()
        for arch, expected in SEED42_PLAIN_TOTALS.items():
            report = simulate_stream(pairs, arch, 8, ssst_enabled=False)
            assert report.total_toggles == expected
            assert report.operations_simulated == 1000

    def test_ssst_transparency_sampled_width8(self):
        pairs = gen_inputs(RandomSource(200, "uniform"), 8, seed=11)
        for arch in Architecture:
            # products are oracle-checked inside; equal results both ways
            on = simulate_stream(pairs, arch, 8, ssst_enabled=True)
            off = simulate_stream(pairs, arch, 8, ssst_enabled=False)
            assert on.operations_simulated == off.operations_simulated

    def test_monotone_gating(self):
        streams = [
            gen_inputs(RandomSource(100, "sparse3"), 8, seed=3),
            gen_inputs(RandomSource(100, "uniform"), 8, seed=4),
            gen_inputs(RandomSource(100, "uniform8"), 8, seed=5),
        ]
        for pairs in streams:
            for arch in Architecture:
                on = simulate_stream(pairs, arch, 8, ssst_enabled=True)
                off = simulate_stream(pairs, arch, 8, ssst_enabled=False)
                assert on.total_toggles <= off.total_toggles

    def test_frozen_rows_contribute_zero_toggles(self):
        pairs = gen_inputs(RandomSource(60, "sparse2"), 8, seed=6)
        for arch in Architecture:
            state = ArrayState(8, arch)
            for a, b in pairs:
                pp = build_pp(*magnitudes(a, b), arch)
                _, delta = state.evaluate(pp, True)
                for row, frozen in enumerate(detect_freeze(pp, state.geometry)):
                    if frozen:
                        assert delta.csa_toggles[row] == 0

    def test_toggle_symmetry_between_two_inputs(self):
        x, y = (65, 34), (127, 5)
        for arch in Architecture:
            forward = ArrayState(8, arch)
            forward.evaluate(build_pp(*magnitudes(*x), arch))
            _, delta_xy = forward.evaluate(build_pp(*magnitudes(*y), arch))
            backward = ArrayState(8, arch)
            backward.evaluate(build_pp(*magnitudes(*y), arch))
            _, delta_yx = backward.evaluate(build_pp(*magnitudes(*x), arch))
            assert delta_xy.total_toggles == delta_yx.total_toggles

    @given(
        st.sampled_from(list(Architecture)),
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
        st.tuples(st.integers(0, 255), st.integers(0, 255)),
    )
    @settings(max_examples=60, deadline=None)
    def test_toggle_symmetry_property(self, arch, x, y):
        forward = ArrayState(8, arch)
        forward.evaluate(build_pp(*magnitudes(*x), arch))
        _, delta_xy = forward.evaluate(build_pp(*magnitudes(*y), arch))
        backward = ArrayState(8, arch)
        backward.evaluate(build_pp(*magnitudes(*y), arch))
        _, delta_yx = backward.evaluate(build_pp(*magnitudes(*x), arch))
        assert delta_xy.total_toggles == delta_yx.total_toggles

    def test_oracle_mismatch_aborts(self, monkeypatch):
        rule = encoding._pp_rows

        def broken_rows(a, b, width, arch, lay):
            # flip the multiplier's low bit from lane 2 on
            return rule(a, b ^ sum(1 << i * lay.lane for i in range(2, lay.count)), width, arch, lay)

        monkeypatch.setattr(encoding, "_pp_rows", broken_rows)
        pairs = [(65, 34), (3, 5), (7, 9), (11, 13)]
        with pytest.raises(ProductMismatchError) as excinfo:
            dp.simulate_stream(pairs, Architecture.CONVENTIONAL, 8, ssst_enabled=False)
        assert excinfo.value.pair == (7, 9)
        assert (excinfo.value.got, excinfo.value.expected) == (56, 63)

    @pytest.mark.parametrize("pair, got, expected", [((-7, 9), -56, -63), ((-7, -9), 56, 63), ((7, -9), -56, -63)])
    def test_oracle_mismatch_reports_signed_values(self, pair, got, expected, monkeypatch):
        rule = encoding._pp_rows

        def broken_rows(a, b, width, arch, lay):
            # flip the multiplier's low bit in lane 1
            return rule(a, b ^ 1 << lay.lane, width, arch, lay)

        monkeypatch.setattr(encoding, "_pp_rows", broken_rows)
        with pytest.raises(ProductMismatchError) as excinfo:
            dp.simulate_stream([(3, 5), pair], Architecture.CONVENTIONAL, 8, ssst_enabled=False)
        assert (excinfo.value.pair, excinfo.value.got, excinfo.value.expected) == (pair, got, expected)
        assert str(excinfo.value) == f"product mismatch for {pair[0]} * {pair[1]}: got {got}, expected {expected}"

    def test_per_eval_trace_hook(self):
        seen = []
        dp.simulate_configs(
            [(65, 34), (2, 3)],
            8,
            [(Architecture.CONVENTIONAL, False)],
            trace=lambda config, index, delta: seen.append((index, delta.total_toggles)),
        )
        assert [index for index, _ in seen] == [0, 1]


# -- the lane kernel against the straight-line reference ---------------------------


@st.composite
def streams(draw, max_pairs=6):
    """(width, arch, gated, signed pairs) over every width 4-32."""
    width = draw(st.integers(4, 32))
    top = (1 << width) - 1
    operand = st.integers(-top, top)
    pairs = draw(st.lists(st.tuples(operand, operand), min_size=1, max_size=max_pairs))
    return width, draw(st.sampled_from(list(Architecture))), draw(st.booleans()), pairs


def reference_run(pairs, arch, width, gated):
    """(total, per-row toggles, frozen cells) and per-pair rows from the reference."""
    reference = ReferenceArray(width, arch, ssst=gated)
    per_pair = []
    for a, b in pairs:
        product, toggles = reference.evaluate(REFERENCE_PP[arch](*magnitudes(a, b, width)))
        assert product == abs(a * b)
        per_pair.append((toggles, reference.row_toggles, reference.frozen_cells))
    per_row = [sum(rows) for rows in zip(*(rows for _, rows, _ in per_pair))]
    totals = (sum(t for t, _, _ in per_pair), per_row, sum(f for _, _, f in per_pair))
    return totals, per_pair


@st.composite
def gating_switches(draw):
    """(width, arch, runs of (gated, magnitude pairs)) for one array: 1-7 lanes a run, gating alternating.

    Sparse magnitudes come often, so gated runs freeze rows in some lanes and not in others.
    """
    width = draw(st.integers(4, 32))
    top = (1 << width) - 1
    sparse = st.lists(st.integers(0, width - 1), max_size=2).map(lambda bits: sum(1 << b for b in set(bits)))
    magnitude = st.one_of(sparse, st.sampled_from([0, top]), st.integers(0, top))
    first = draw(st.booleans())
    runs = draw(st.lists(st.lists(st.tuples(magnitude, magnitude), min_size=1, max_size=7), min_size=2, max_size=5))
    return width, draw(st.sampled_from(list(Architecture))), [(first ^ (i % 2 == 1), run) for i, run in enumerate(runs)]


class TestLaneKernel:
    @given(streams())
    @settings(max_examples=80, deadline=None)
    def test_stream_matches_reference_pair_by_pair(self, stream):
        width, arch, gated, pairs = stream
        seen = []
        (report,) = dp.simulate_configs(pairs, width, [(arch, gated)], trace=lambda c, i, d: seen.append(d))[0].values()
        totals, per_pair = reference_run(pairs, arch, width, gated)
        assert (report.total_toggles, report.per_row_toggles, report.frozen_cell_evaluations) == totals
        assert [(d.total_toggles, d.per_row_toggles, d.frozen_cell_evaluations) for d in seen] == per_pair

    @given(streams(max_pairs=8))
    @settings(max_examples=80, deadline=None)
    def test_lane_rows_equal_folded_rows(self, stream):
        width, arch, _, pairs = stream
        geometry = ArrayGeometry.create(width, arch)
        ma = tuple(abs(a) for a, _ in pairs)
        mb = tuple(abs(b) for _, b in pairs)
        lanes = build_pp(Lanes(ma, width), Lanes(mb, width), arch)
        lane = geometry.cols + 1
        for i, (a, b) in enumerate(zip(ma, mb)):
            folded = build_pp(Word(a, width), Word(b, width), arch).rows
            assert [(row >> i * lane) & ((1 << lane) - 1) for row in lanes.rows] == list(folded)

    @given(streams(max_pairs=10), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_small_chunks_match_reference(self, stream, chunk):
        width, arch, gated, pairs = stream
        with mock.patch.object(encoding, "STREAM_CHUNK", chunk):
            report = dp.simulate_stream(pairs, arch, width, gated)
        totals, _ = reference_run(pairs, arch, width, gated)
        assert (report.total_toggles, report.per_row_toggles, report.frozen_cell_evaluations) == totals

    @pytest.mark.parametrize("arch", list(Architecture))
    @pytest.mark.parametrize("gated", [False, True])
    def test_stream_longer_than_a_chunk_matches_reference(self, arch, gated):
        pairs = gen_inputs(RandomSource(STREAM_CHUNK + 7, "uniform"), 5, seed=17)
        report = simulate_stream(pairs, arch, 5, gated)
        totals, _ = reference_run(pairs, arch, 5, gated)
        assert (report.total_toggles, report.per_row_toggles, report.frozen_cell_evaluations) == totals
        assert report.operations_simulated == len(pairs)

    @given(streams())
    @settings(max_examples=60, deadline=None)
    def test_trace_deltas_equal_successive_evaluations(self, stream):
        width, arch, gated, pairs = stream
        seen = []
        dp.simulate_configs(pairs, width, [(arch, gated)], trace=lambda c, i, d: seen.append((i, d)))
        state = ArrayState(width, arch)
        expected = []
        for index, (a, b) in enumerate(pairs):
            pp = build_pp(*magnitudes(a, b, width), arch)
            expected.append((index, state.evaluate(pp, gated)[1]))
        assert seen == expected

    @given(gating_switches())
    @settings(max_examples=80, deadline=None)
    def test_switching_gating_on_one_array_matches_reference(self, case):
        """One array whose runs switch gating on and off hands its node values from one route to the other."""
        width, arch, runs = case
        state = ArrayState(width, arch)
        reference = ReferenceArray(width, arch)
        for gated, run in runs:
            ma, mb = [a for a, _ in run], [b for _, b in run]
            products, record = state.evaluate(build_pp(Lanes(ma, width), Lanes(mb, width), arch), gated)
            lay = record.lanes.layout
            reference.ssst = gated
            for i, (one, a, b) in enumerate(zip(record.split(), ma, mb)):
                product, toggles = reference.evaluate(REFERENCE_PP[arch](Word(a, width), Word(b, width)))
                assert lane(products, i, lay) == product == a * b
                assert (one.total_toggles, one.per_row_toggles, one.frozen_cell_evaluations) == (
                    toggles, reference.row_toggles, reference.frozen_cells
                )

    def test_out_of_range_operand_rejected(self):
        """The first bad pair raises exactly ``multiply``'s error, in the first chunk or a later one."""
        good = gen_inputs(RandomSource(STREAM_CHUNK + 9, "uniform"), 8, seed=3)
        for arch in Architecture:
            for at, bad in ((1, (256, 1)), (STREAM_CHUNK + 2, (300, 1)), (STREAM_CHUNK + 2, (-4096, 999))):
                pairs = list(good)
                pairs[at] = bad
                # a second bad pair later in the same chunk must not be the one reported
                pairs[at + 3] = (1, -1000)
                with pytest.raises(OverflowError) as want:
                    multiply(*bad, arch, 8)
                with pytest.raises(OverflowError) as got:
                    simulate_stream(pairs, arch, 8, ssst_enabled=True)
                assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def held_run(new, old, live, lay):
    """(toggled bits, value after the run) of one node, lane by lane.

    In each lane the bits outside ``live`` keep the previous lane's value;
    lane 0 follows ``old``.
    """
    lane, cells = lay.lane, (1 << lay.cols) - 1
    prev, toggled = old, 0
    for i in range(lay.count):
        keep = (live >> i * lane) & cells
        value = ((new >> i * lane) & keep) | (prev & cells & ~keep)
        toggled |= (value ^ prev) << i * lane
        prev = value
    return toggled, prev


@st.composite
def fill_cases(draw):
    """(layout, live mask, new values, old value) with lane- or column-granular masks."""
    cols = 2 * draw(st.integers(4, 32))
    count = draw(st.integers(1, 80))
    lay = _layout(cols, count)
    cells = (1 << cols) - 1
    lane_value = st.integers(0, cells)
    shape = draw(st.sampled_from(["lanes", "columns", "lane 0", "alternating"]))
    if shape == "lanes":  # a CSA row: each lane is live or frozen whole
        flags = draw(st.lists(st.booleans(), min_size=count, max_size=count))
        masks = [cells if f else 0 for f in flags]
    elif shape == "columns":  # the final adder: any column of any lane may hold
        masks = draw(st.lists(lane_value, min_size=count, max_size=count))
    elif shape == "lane 0":
        masks = [cells] + [0] * (count - 1)
    else:
        masks = [cells if i % 2 == 0 else 0 for i in range(count)]
    new = draw(st.lists(lane_value, min_size=count, max_size=count))

    def pack(values):
        return sum(v << i * lay.lane for i, v in enumerate(values))

    return lay, pack(masks), pack(new), draw(lane_value)


def settled(new, old, live, lay):
    """(toggled bits, value after the run) of one node under ``live``, through an adder row fed ``new``, 0, 0.

    The row's state holds ``old`` as its a input, with 0 as its b and carry-in.
    """
    state = [old, 0, 0]
    _, _, toggled = _adder_row(new, 0, 0, state, live, lay)
    return toggled[0], state[0]


def five_nodes(state):
    """An adder row's a, b, carry-in, sum and carry-out, from the three words of its state."""
    x, y, z = state
    return x, y, z, x ^ y ^ z, (x & y) | (z & (x ^ y))


class TestFillForward:
    """An adder row's fill-forward holds frozen bits exactly as a per-lane hold loop does."""

    @given(fill_cases())
    @settings(max_examples=150, deadline=None)
    def test_schedule_matches_per_lane_hold(self, case):
        lay, live, new, old = case
        assert settled(new, old, live, lay) == held_run(new, old, live, lay)

    @pytest.mark.parametrize("count", [1, 2, 3, 64, 256])
    def test_all_live_is_the_empty_schedule(self, count):
        """Every lane live: each node's toggles are its values against the lane below, nothing filled."""
        lay = _layout(16, count)
        new = lay.cmask // 3
        assert settled(new, 5, lay.cmask, lay) == held_run(new, 5, lay.cmask, lay)
        assert settled(new, 5, lay.cmask, lay) == ((new ^ ((new << lay.lane) | 5)) & lay.full, new >> lay.last)

    @pytest.mark.parametrize("count", [1, 2, 7, 256])
    def test_nothing_live_holds_the_incoming_value(self, count):
        lay = _layout(16, count)
        assert settled(lay.cmask, 0xBEEF, 0, lay) == (0, 0xBEEF)


@st.composite
def lane_runs(draw):
    """(layout, lane-packed ints) with every bit drawn, guard bits included."""
    lay = _layout(2 * draw(st.integers(4, 32)), draw(st.integers(1, 80)))
    return lay, draw(st.lists(st.integers(0, lay.full), max_size=6))


class TestLaneCounts:
    """The per-evaluation split counts each lane's column bits as a per-lane loop does."""

    @given(lane_runs())
    @settings(max_examples=150, deadline=None)
    def test_counts_match_per_lane_popcount(self, run):
        lay, xs = run
        cells = (1 << lay.cols) - 1
        expected = [sum(((x >> i * lay.lane) & cells).bit_count() for x in xs) for i in range(lay.count)]
        assert _lane_counts(xs, lay, _popcount_masks(lay)) == expected

    @given(st.integers(4, 32), st.data())
    @settings(max_examples=100, deadline=None)
    def test_unpack_inverts_pack(self, width, data):
        lay = _layout(2 * width, data.draw(st.integers(1, 80)))
        lane_value = st.integers(0, (1 << lay.lane) - 1)
        values = data.draw(st.lists(lane_value, min_size=lay.count, max_size=lay.count))
        x = sum(v << i * lay.lane for i, v in enumerate(values))  # a 65-bit lane may hold more than _pack takes
        # read back 16 bits of every lane at a time
        unpacked = [0] * lay.count
        for low in range(0, lay.lane, 16):
            bits = lay.ones * ((1 << min(16, lay.lane - low)) - 1)
            for i, v in enumerate(_unpack16((x >> low) & bits, lay.lane, lay.count)):
                unpacked[i] |= v << low
        assert unpacked == values


def lane(x, i, lay):
    """Column bits of lane ``i`` of ``x``."""
    return (x >> i * lay.lane) & ((1 << lay.cols) - 1)


def full_adders(a, b, cin, cols):
    """One lane's full adders, column by column: (sum, carry-out), column j's carry-out at bit j."""
    s = cout = 0
    for j in range(cols):
        x, y, z = (a >> j) & 1, (b >> j) & 1, (cin >> j) & 1
        s |= (x ^ y ^ z) << j
        cout |= ((x + y + z) >> 1) << j
    return s, cout


def ripple_carries(a, b, cols):
    """The carry into each column of a ripple adder of one lane, column by column."""
    carries = carry = 0
    for j in range(cols):
        carries |= carry << j
        carry = (((a >> j) & 1) + ((b >> j) & 1) + carry) >> 1
    return carries


@st.composite
def adder_rows(draw):
    """(layout, a, b, carry-in, live mask, old a/b/cin) of one adder row.

    The carry-in is a carry bus drawn freely, or the final adder's ripple
    carries worked out by one add.
    """
    lay = _layout(2 * draw(st.integers(4, 32)), draw(st.integers(1, 8)))
    cell = st.integers(0, (1 << lay.cols) - 1)

    def run():
        return _pack(draw(st.lists(cell, min_size=lay.count, max_size=lay.count)), lay.lane)

    a, b = run(), run()
    cin = (a ^ b ^ (a + b)) & lay.cmask if draw(st.booleans()) else run()
    return lay, a, b, cin, run(), draw(st.lists(cell, min_size=3, max_size=3))


@st.composite
def adder_chains(draw):
    """(layout, 2..4 runs of (a, b, carry-in, live mask)) for one adder row driven from reset.

    Widths 4..32 and 1..256 lanes, both ends drawn often; lane values come
    from one drawn random, so a run of 256 lanes stays cheap to draw.  A
    live mask holds whole lanes (a carry-save row), any columns (the final
    adder), every cell or none.
    """
    width = draw(st.one_of(st.sampled_from([4, 32]), st.integers(4, 32)))
    lay = _layout(2 * width, draw(st.one_of(st.sampled_from([1, 256]), st.integers(1, 256))))
    rnd = draw(st.randoms(use_true_random=False))
    cells = (1 << lay.cols) - 1

    def run(lane_value=lambda: rnd.getrandbits(lay.cols)):
        return _pack([lane_value() for _ in range(lay.count)], lay.lane)

    runs = []
    for _ in range(draw(st.integers(2, 4))):
        a, b = run(), run()
        cin = (a ^ b ^ (a + b)) & lay.cmask if draw(st.booleans()) else run()
        shape = draw(st.sampled_from(["lanes", "columns", "all", "none"]))
        if shape == "lanes":
            p = draw(st.sampled_from([0.05, 0.5, 0.95]))
            live = run(lambda: cells if rnd.random() < p else 0)
        elif shape == "columns":
            live = run()
        else:
            live = lay.cmask if shape == "all" else 0
        runs.append((a, b, cin, live))
    return lay, runs


class TestAdderRow:
    """The one full-adder row behind every carry-save row and the final adder."""

    @given(adder_rows())
    @settings(max_examples=150, deadline=None)
    def test_each_lane_is_per_column_full_adders(self, case):
        lay, a, b, cin, _, old = case
        s, cout, _ = _adder_row(a, b, cin, list(old), lay.cmask, lay)
        assert not (s | cout) & ~lay.cmask
        for i in range(lay.count):
            assert (lane(s, i, lay), lane(cout, i, lay)) == full_adders(
                lane(a, i, lay), lane(b, i, lay), lane(cin, i, lay), lay.cols
            )

    @given(st.integers(4, 32), st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_add_gives_the_ripple_carries(self, width, data):
        lay = _layout(2 * width, data.draw(st.integers(1, 8)))
        cells = (1 << lay.cols) - 1
        values = st.lists(st.integers(0, cells), min_size=lay.count, max_size=lay.count)
        xs, ys = data.draw(values), data.draw(values)
        a, b = _pack(xs, lay.lane), _pack(ys, lay.lane)
        s, cout, _ = _adder_row(a, b, (a ^ b ^ (a + b)) & lay.cmask, [0] * 3, lay.cmask, lay)
        for i, (x, y) in enumerate(zip(xs, ys)):
            carries = ripple_carries(x, y, lay.cols)
            assert (lane(s, i, lay), lane(cout, i, lay)) == full_adders(x, y, carries, lay.cols)
            assert lane(s, i, lay) == (x + y) & cells
            assert lane(cout, i, lay) >> (lay.cols - 1) == (x + y) >> lay.cols

    @given(adder_chains())
    @settings(max_examples=40, deadline=None)
    def test_gated_runs_from_reset_hold_every_node(self, case):
        lay, runs = case
        state = [0] * 3
        for a, b, cin, live in runs:
            old = five_nodes(state)
            s, cout, toggled = _adder_row(a, b, cin, state, live, lay)
            for node, t, before, after in zip((a, b, cin, s, cout), toggled, old, five_nodes(state)):
                assert (t, after) == held_run(node, before, live, lay)

    @given(adder_rows())
    @settings(max_examples=150, deadline=None)
    def test_cells_outside_live_hold(self, case):
        lay, a, b, cin, live, old = case
        state = list(old)
        s, cout, toggled = _adder_row(a, b, cin, state, live, lay)
        never_live = (1 << lay.cols) - 1
        for i in range(lay.count):
            never_live &= ~lane(live, i, lay)
        for node, t, before, after in zip((a, b, cin, s, cout), toggled, five_nodes(old), five_nodes(state)):
            assert not t & ~live
            assert after & never_live == before & never_live
            assert (t, after) == held_run(node, before, live, lay)


# -- one chunk pass for the count and every configuration --------------------------

CONFIGS = [(arch, gated) for arch in Architecture for gated in (False, True)]


@st.composite
def config_runs(draw):
    """(width, signed pairs, configurations, count), repeats and every order drawn; ``count`` is a bool."""
    width = draw(st.integers(4, 32))
    top = (1 << width) - 1
    operand = st.one_of(st.sampled_from([0, top, -top]), st.integers(-top, top))
    pairs = draw(st.lists(st.tuples(operand, operand), min_size=1, max_size=10))
    configs = draw(st.lists(st.sampled_from(CONFIGS), min_size=1, max_size=8))
    return width, pairs, configs, draw(st.booleans())


def _chunks_of(mp, chunk):
    """Set the chunk size of the one chunk reader, which the array pass and the count pass share."""
    mp.setattr(encoding, "STREAM_CHUNK", chunk)


def _outcome(call):
    """What ``call`` returns, or the type, pair and text of the error it raises."""
    try:
        return call()
    except (ProductMismatchError, ValueError, OverflowError) as exc:
        return type(exc), getattr(exc, "pair", None), str(exc)


def _archs_of(configs):
    """The configurations' architectures, in first-seen order: what an array pass counts."""
    return list(dict.fromkeys(arch for arch, _ in configs))


def _one_call_per_step(pairs, width, configs, count):
    """One stream per distinct configuration, in order, then, when counted, the count pass over their
    architectures."""
    configs = dict.fromkeys(configs)
    reports = {(arch, gated): simulate_stream(pairs, arch, width, gated) for arch, gated in configs}
    return reports, count_pairs(pairs, _archs_of(configs), width) if count else ()


# the bit a test fault flips in one architecture's products, so its error names the architecture
FAULT_BIT = {Architecture.CONVENTIONAL: 0, Architecture.BOOTH: 1, Architecture.HYBRID: 2}


def _flip_lanes(x, lanes, lay, arch):
    """``x`` with ``arch``'s fault bit flipped in each of ``lanes``."""
    return x ^ sum(1 << i * lay.lane + FAULT_BIT[arch] for i in lanes)


class TestOneChunkPass:
    """``simulate_configs``: one pass over the chunks drives every configuration and counts their architectures."""

    @given(config_runs(), st.sampled_from([1, 3, 7]))
    @settings(max_examples=60, deadline=None)
    def test_each_report_is_its_own_stream_and_counts_are_the_count_pass(self, run, chunk):
        width, pairs, configs, count = run
        with pytest.MonkeyPatch.context() as mp:
            _chunks_of(mp, chunk)
            reports, counts = dp.simulate_configs(pairs, width, configs, count)
            assert list(reports) == list(dict.fromkeys(configs))
            for (arch, gated), report in reports.items():
                assert report == simulate_stream(pairs, arch, width, gated)
                assert report.operations_simulated == len(pairs)
            assert counts == (count_pairs(pairs, _archs_of(configs), width) if count else ())

    @pytest.mark.parametrize("count", [False, True])
    def test_takes_a_one_shot_iterator(self, count):
        pairs = gen_inputs(RandomSource(STREAM_CHUNK + 5, "sparse3"), 8, seed=4)
        listed = dp.simulate_configs(pairs, 8, CONFIGS, count)
        assert dp.simulate_configs(iter(pairs), 8, CONFIGS, count) == listed
        assert listed[1] == (count_pairs(pairs, tuple(Architecture), 8) if count else ())

    def test_rows_are_built_once_per_chunk_and_architecture(self, monkeypatch):
        """An array pass builds its architectures' rows through ``build_pp``; a count pass calls no ``build_pp``."""
        rule, build, rows, built = encoding._pp_rows, dp.build_pp, [], []

        def rows_spy(a, b, width, arch, lay):
            rows.append((arch, lay.count))
            return rule(a, b, width, arch, lay)

        def build_spy(multiplicand, multiplier, arch):
            built.append((arch, len(multiplicand.values)))
            return build(multiplicand, multiplier, arch)

        monkeypatch.setattr(encoding, "_pp_rows", rows_spy)
        monkeypatch.setattr(dp, "build_pp", build_spy)
        _chunks_of(monkeypatch, 3)
        pairs = [(a, (7 * a) % 256) for a in range(1, 9)]  # chunks of 3, 3 and 2 pairs
        H, B, C = Architecture.HYBRID, Architecture.BOOTH, Architecture.CONVENTIONAL
        # the hybrid runs gated and plain, Booth plain, and the pass counts both
        dp.simulate_configs(pairs, 8, [(H, True), (H, False), (B, False)], True)
        assert rows == [(arch, n) for n in (3, 3, 2) for arch in (H, B)]
        assert built == rows
        rows.clear()
        built.clear()
        count_pairs(pairs, tuple(Architecture), 8)
        assert rows == [(arch, n) for n in (3, 3, 2) for arch in (C, B, H)]  # one rule call per chunk and arch
        assert built == []

    @pytest.mark.parametrize("count", [False, True])
    @pytest.mark.parametrize("configs", [(), CONFIGS, [(Architecture.HYBRID, True)]])
    def test_empty_stream_rejected(self, configs, count):
        with pytest.raises(ValueError, match="^input stream must not be empty$"):
            dp.simulate_configs([], 8, configs, count)

    def test_trace_names_the_configuration(self):
        pairs = [(65, 34), (3, 5), (7, 9)]
        configs = [(Architecture.BOOTH, True), (Architecture.HYBRID, False)]
        seen = []
        dp.simulate_configs(pairs, 8, configs, trace=lambda config, i, one: seen.append((config, i, one)))
        for arch, gated in configs:
            alone = []
            dp.simulate_configs(pairs, 8, [(arch, gated)], trace=lambda c, i, one: alone.append((i, one)))
            assert [(i, one) for config, i, one in seen if config == (arch, gated)] == alone
        # a wrong product raises before its run is traced: the hybrid's wrong chunk reaches no trace
        seen.clear()
        with pytest.MonkeyPatch.context() as mp:
            self._wrong_array(mp, Architecture.HYBRID, 0)
            with pytest.raises(ProductMismatchError):
                dp.simulate_configs(pairs, 8, configs, trace=lambda config, i, one: seen.append((config, i, one)))
        assert [(config, i) for config, i, _ in seen] == [(configs[0], i) for i in range(len(pairs))]

    @given(
        config_runs(),
        st.sampled_from([1, 3, 7]),
        st.sampled_from(["_pp_rows", "evaluate"]),
        st.one_of(st.none(), st.sampled_from(list(Architecture))),
        st.integers(0, 9),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_fault_in_one_place_raises_what_one_call_per_step_raises(self, run, chunk, site, target, at):
        """A wrong product in one architecture, or all of them, at one multiplicand value or one lane.

        An array pass checks every product by its array, so it never calls the count's product rule.
        """
        width, pairs, configs, count = run
        hit = at % len(pairs)
        value = abs(pairs[hit][0])
        rule, core, evaluate = encoding._pp_rows, encoding.unsigned_product, ArrayState.evaluate
        core_calls = []

        def aimed(arch):
            return target is None or arch is target

        def wrong_rows(a, b, w, arch, lay):
            rows = rule(a, b, w, arch, lay)
            if not aimed(arch):
                return rows
            lanes = [i for i in range(lay.count) if lane(a, i, lay) == value]
            return (_flip_lanes(rows[0], lanes, lay, arch),) + rows[1:]

        def core_spy(multiplicand, multiplier, arch):
            core_calls.append(arch)
            return core(multiplicand, multiplier, arch)

        def wrong_evaluate(self, pp, gated=False):
            # lane ``hit % chunk`` of every chunk long enough, so chunk 0 holds the first wrong pair
            products, record = evaluate(self, pp, gated)
            if aimed(self.geometry.arch) and hit % chunk < pp.layout.count:
                products = _flip_lanes(products, [hit % chunk], pp.layout, self.geometry.arch)
            return products, record

        with pytest.MonkeyPatch.context() as mp:
            _chunks_of(mp, chunk)
            if site == "_pp_rows":
                mp.setattr(encoding, "_pp_rows", wrong_rows)
            else:
                mp.setattr(ArrayState, "evaluate", wrong_evaluate)
            want = _outcome(lambda: _one_call_per_step(pairs, width, configs, count))
            mp.setattr(encoding, "unsigned_product", core_spy)
            got = _outcome(lambda: dp.simulate_configs(pairs, width, configs, count))
        assert got == want
        assert core_calls == []

    @staticmethod
    def _wrong_array(mp, arch, lane):
        """Flip ``arch``'s fault bit in lane ``lane`` of every run its arrays evaluate."""
        evaluate = ArrayState.evaluate

        def wrong_evaluate(self, pp, gated=False):
            products, record = evaluate(self, pp, gated)
            if self.geometry.arch is arch and lane < pp.layout.count:
                products = _flip_lanes(products, [lane], pp.layout, arch)
            return products, record

        mp.setattr(ArrayState, "evaluate", wrong_evaluate)

    @staticmethod
    def _wrong_rows_at(mp, value):
        """Flip each architecture's fault bit in every lane whose multiplicand is ``value``."""
        rule = encoding._pp_rows

        def wrong_rows(a, b, w, arch, lay):
            rows = rule(a, b, w, arch, lay)
            lanes = [i for i in range(lay.count) if lane(a, i, lay) == value]
            return (_flip_lanes(rows[0], lanes, lay, arch),) + rows[1:]

        mp.setattr(encoding, "_pp_rows", wrong_rows)

    RANGE_PAIRS = [(65, 34), (3, 5), (7, 9), (11, 13), (300, 1)]  # chunks of 3: the bad operand is in chunk 1

    def test_with_no_array_each_chunk_is_range_checked_as_it_is_read(self):
        counts = [(Architecture.HYBRID,), (Architecture.CONVENTIONAL,), tuple(Architecture)]
        with pytest.raises(OverflowError) as want:
            multiply(300, 1, Architecture.CONVENTIONAL, 8)
        range_error = (OverflowError, None, str(want.value))
        for chunk in (1, 3, 7):
            with pytest.MonkeyPatch.context() as mp:
                _chunks_of(mp, chunk)
                for count in counts:
                    assert _outcome(lambda: count_pairs(self.RANGE_PAIRS, count, 8)) == range_error
                # chunk 0's wrong product comes before a later chunk's bad operand; a chunk of 7 holds
                # both, and its range check comes first
                self._wrong_rows_at(mp, 65)
                for count, got in zip(counts, (2214, 2211, 2211)):
                    fault = (ProductMismatchError, (65, 34), f"product mismatch for 65 * 34: got {got}, expected 2210")
                    assert _outcome(lambda: count_pairs(self.RANGE_PAIRS, count, 8)) == (
                        fault if chunk < len(self.RANGE_PAIRS) else range_error
                    )

    def test_with_arrays_each_chunk_is_range_checked_by_its_lanes(self):
        configs = [(Architecture.CONVENTIONAL, False)]
        with pytest.raises(OverflowError) as want:
            multiply(300, 1, Architecture.CONVENTIONAL, 8)
        with pytest.MonkeyPatch.context() as mp:
            _chunks_of(mp, 3)
            for count in (False, True):
                assert _outcome(lambda: dp.simulate_configs(self.RANGE_PAIRS, 8, configs, count)) == (
                    OverflowError, None, str(want.value)
                )
            # chunk 0's wrong product comes before chunk 1's bad operand, with a count or without
            self._wrong_array(mp, Architecture.CONVENTIONAL, 0)
            for count in (False, True):
                assert _outcome(lambda: dp.simulate_configs(self.RANGE_PAIRS, 8, configs, count)) == (
                    ProductMismatchError, (65, 34), "product mismatch for 65 * 34: got 2211, expected 2210"
                )

    def test_a_count_of_no_architectures_range_checks_every_chunk(self):
        with pytest.raises(OverflowError) as want:
            multiply(300, 1, Architecture.CONVENTIONAL, 8)
        for chunk in (1, 3, 7):
            with pytest.MonkeyPatch.context() as mp:
                _chunks_of(mp, chunk)
                assert count_pairs(self.RANGE_PAIRS[:-1], (), 8) == ()
                # the bad operand is the last pair, in a later chunk than the first whenever chunk < 5
                assert _outcome(lambda: count_pairs(self.RANGE_PAIRS, (), 8)) == (OverflowError, None, str(want.value))

    @pytest.mark.parametrize("count_fault", ["_pp_rows", "unsigned_product"])
    def test_two_faults_in_different_chunks_raise_the_earlier_chunks(self, count_fault):
        # Booth's array is wrong at pair 1 (chunk 0); the count of pair 4 (chunk 1) is wrong too, through
        # every row rule or through the count's own product rule, which an array pass never calls
        pairs = [(65, 34), (3, 5), (7, 9), (11, 13), (-6, 7), (2, 2)]
        core = encoding.unsigned_product

        def wrong_core(multiplicand, multiplier, arch):
            product, counts = core(multiplicand, multiplier, arch)
            lane = multiplicand.layout.lane
            return product + sum(3 << i * lane for i, x in enumerate(multiplicand.values) if x == 6), counts

        with pytest.MonkeyPatch.context() as mp:
            _chunks_of(mp, 3)
            self._wrong_array(mp, Architecture.BOOTH, 1)
            if count_fault == "_pp_rows":
                self._wrong_rows_at(mp, 6)
            else:
                mp.setattr(encoding, "unsigned_product", wrong_core)
            configs = [(arch, True) for arch in Architecture]
            got = _outcome(lambda: dp.simulate_configs(pairs, 8, configs, True))
            # one call per step would name the count's pair 4 first
            assert _outcome(lambda: count_pairs(pairs, tuple(Architecture), 8))[1] == (-6, 7)
        assert got == (ProductMismatchError, (3, 5), "product mismatch for 3 * 5: got 13, expected 15")

    def test_an_architecture_whose_array_runs_is_checked_by_its_array_alone(self):
        # every row rule is wrong at multiplicand 3: the count checks no product, so the first
        # array, conventional's, names the pair with its own fault bit
        with pytest.MonkeyPatch.context() as mp:
            self._wrong_rows_at(mp, 3)
            configs = [(Architecture.CONVENTIONAL, False), (Architecture.BOOTH, False)]
            got = _outcome(lambda: dp.simulate_configs([(65, 34), (3, 5)], 8, configs, True))
        assert got == (ProductMismatchError, (3, 5), "product mismatch for 3 * 5: got 14, expected 15")

    def test_a_counted_architecture_whose_array_runs_gets_no_lane_sum(self, monkeypatch):
        lane_sum, summed = encoding._lane_sum, []
        monkeypatch.setattr(encoding, "_lane_sum", lambda rows, lay: summed.append(len(rows)) or lane_sum(rows, lay))
        pairs = gen_inputs(RandomSource(STREAM_CHUNK + 5, "uniform"), 8, seed=4)  # two chunks
        dp.simulate_configs(pairs, 8, CONFIGS, True)
        # only the hybrid's row rule sums rows: its Booth routes' 5 digits and correction row
        assert set(summed) <= {6}
        summed.clear()
        count_pairs(pairs, (Architecture.CONVENTIONAL, Architecture.BOOTH), 8)
        # with no array, the count sums each chunk's 8 conventional and 6 Booth rows
        assert summed == [8, 6] * 2
