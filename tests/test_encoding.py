import itertools
import random
from dataclasses import FrozenInstanceError, astuple

import pytest
from hypothesis import given, settings, strategies as st

from reference_encoding import (
    booth_rows as reference_booth_rows,
    booth_value,
    execute_plan,
    hybrid_routes as reference_routes,
    plan_counts,
    signed_sum,
    unsigned_product as reference_product,
)

import hybridmul.encoding as encoding
from hybridmul import simulate_stream, trace
from hybridmul.datapath import simulate_configs
from hybridmul.bitnum import Word, check_operand_width, to_sign_magnitude
from hybridmul.encoding import (
    AddM,
    Architecture,
    ArrayGeometry,
    CategoryKind,
    Lanes,
    OpCounts,
    ProductMismatchError,
    ShiftLeft,
    booth_pp,
    booth_recode,
    classify,
    conventional_pp,
    count_pairs,
    hybrid_plan,
    hybrid_pp,
    multiply,
    split,
    unsigned_product,
)

SAMPLE_MULTIPLICANDS = [0, 1, 65, 170, 255]


def _lane(x, i, lay):
    """The column bits of lane ``i`` of ``x``."""
    return (x >> i * lay.lane) & ((1 << lay.cols) - 1)


class TestClassify:
    def test_pixel_multiplier_is_d(self):
        cat = classify(Word(34, 8))
        assert (cat.kind, cat.i, cat.j) == (CategoryKind.D, 2, 4)

    def test_one_is_a(self):
        assert classify(Word(1, 8)).kind == CategoryKind.A

    def test_three_ones_lowest_first_is_e(self):
        cat = classify(Word(0b10101, 8))
        assert (cat.kind, cat.i, cat.j, cat.k) == (CategoryKind.E, 1, 3, 5)

    def test_dense_is_split(self):
        assert classify(Word(0b11110001, 8)).kind == CategoryKind.SPLIT

    def test_zero(self):
        assert classify(Word(0, 8)).kind == CategoryKind.ZERO

    def test_single_high_bit_is_b(self):
        cat = classify(Word(0b1000, 8))
        assert (cat.kind, cat.i) == (CategoryKind.B, 4)

    def test_pair_with_lsb_is_c(self):
        cat = classify(Word(0b100001, 8))
        assert (cat.kind, cat.i) == (CategoryKind.C, 6)

    def test_three_ones_off_lsb_is_f(self):
        cat = classify(Word(0b101010, 8))
        assert (cat.kind, cat.i, cat.j, cat.k) == (CategoryKind.F, 2, 4, 6)

    def test_partition_is_total_and_unique(self):
        # popcount and lowest-position alone decide the category
        expect = {
            (1, True): CategoryKind.A,
            (1, False): CategoryKind.B,
            (2, True): CategoryKind.C,
            (2, False): CategoryKind.D,
            (3, True): CategoryKind.E,
            (3, False): CategoryKind.F,
        }
        for value in range(1, 256):
            w = Word(value, 8)
            n = w.popcount()
            if n > 3:
                assert classify(w).kind == CategoryKind.SPLIT
            else:
                key = (n, w.one_positions()[0] == 1)
                assert classify(w).kind == expect[key]


class TestHybridPlan:
    def test_category_d_plan(self):
        plan = hybrid_plan(Word(34, 8))
        assert plan == (ShiftLeft(4), AddM(), ShiftLeft(1))
        counts = plan_counts(Word(34, 8))
        assert counts.add_count == 1
        assert counts.pp_count == 1
        assert counts.shift_count == 2

    def test_category_a_plan_is_empty(self):
        assert hybrid_plan(Word(1, 8)) == ()
        counts = plan_counts(Word(1, 8))
        assert counts.add_count == 0
        assert counts.pp_count == 1

    def test_category_f_final_shift_is_position_minus_one(self):
        # 0b101010: the published table says shift by i here, but i-1 is the
        # arithmetically consistent amount; the oracle check below locks it.
        plan = hybrid_plan(Word(0b101010, 8))
        assert plan == (ShiftLeft(2), AddM(), ShiftLeft(2), AddM(), ShiftLeft(1))
        assert execute_plan(Word(65, 8), Word(0b101010, 8)).bits == 65 * 0b101010

    def test_category_e_drops_zero_shift(self):
        plan = hybrid_plan(Word(21, 8))  # ones at 1, 3, 5
        assert plan == (ShiftLeft(2), AddM(), ShiftLeft(2), AddM())
        assert plan_counts(Word(21, 8)).add_count == 2

    def test_zero_plan(self):
        counts = plan_counts(Word(0, 8))
        assert (counts.pp_count, counts.add_count, hybrid_plan(Word(0, 8))) == (0, 0, ())

    def test_split_rejected(self):
        with pytest.raises(ValueError):
            hybrid_plan(Word(0b11110001, 8))

    def test_add_counts_by_category(self):
        expected = {
            CategoryKind.A: 0,
            CategoryKind.B: 0,
            CategoryKind.C: 1,
            CategoryKind.D: 1,
            CategoryKind.E: 2,
            CategoryKind.F: 2,
        }
        for value in range(1, 256):
            w = Word(value, 8)
            if w.popcount() <= 3:
                assert plan_counts(w).add_count == expected[classify(w).kind]


class TestExecutePlan:
    def test_worked_example(self):
        assert execute_plan(Word(65, 8), Word(34, 8)).bits == 2210

    def test_identity(self):
        assert execute_plan(Word(65, 8), Word(1, 8)).bits == 65

    def test_category_e(self):
        assert execute_plan(Word(65, 8), Word(21, 8)).bits == 1365

    def test_exhaustive_plan_value_identity_width8(self):
        for value in range(256):
            w = Word(value, 8)
            if w.popcount() > 3:
                continue
            for m in SAMPLE_MULTIPLICANDS:
                assert execute_plan(Word(m, 8), w).bits == m * value

    @given(st.integers(min_value=4, max_value=16), st.data())
    def test_plan_value_identity_any_width(self, width, data):
        positions = data.draw(
            st.lists(st.integers(min_value=1, max_value=width), max_size=3, unique=True)
        )
        value = sum(1 << (p - 1) for p in positions)
        m = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        assert execute_plan(Word(m, width), Word(value, width)).bits == m * value


class TestSplit:
    def test_bit_slices(self):
        hi, lo = split(Word(0b11110001, 8))
        assert (hi.bits, hi.width) == (0b1111, 4)
        assert (lo.bits, lo.width) == (0b0001, 4)

    def test_zero(self):
        hi, lo = split(Word(0, 8))
        assert (hi.bits, lo.bits) == (0, 0)

    def test_pixel_value(self):
        hi, lo = split(Word(0b00100010, 8))
        assert (hi.bits, lo.bits) == (0b0010, 0b0010)

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            split(Word(3, 7))


class TestBoothRecode:
    def test_pixel_multiplier_digits(self):
        digits = booth_recode(Word(34, 8))
        assert digits == (-2, 1, -2, 1)  # LSB-first
        assert digits[::-1] == (1, -2, 1, -2)  # as trace prints them
        assert len(digits) == 4

    def test_zero(self):
        assert booth_recode(Word(0, 8)) == (0, 0, 0, 0)

    def test_top_heavy_nibble_needs_extension(self):
        digits = booth_recode(Word(0b1111, 4))
        assert digits == (-1, 0, 1)
        assert len(digits) == 3  # a coded width of 6 bits
        assert booth_value(digits) == 15

    def test_no_extension_when_top_bit_clear(self):
        assert len(booth_recode(Word(34, 8))) == 4  # a coded width of 8 bits

    def test_extension_when_top_bit_set(self):
        digits = booth_recode(Word(255, 8))
        assert len(digits) == 5  # a coded width of 10 bits
        assert booth_value(digits) == 255

    def test_digit_sum_all_8bit_operands(self):
        for value in range(256):
            digits = booth_recode(Word(value, 8))
            assert booth_value(digits) == value
            assert all(-2 <= d <= 2 for d in digits)
            assert len(digits) == (5 if value >= 128 else 4)

    @given(st.integers(min_value=4, max_value=32), st.data())
    def test_digit_sum_any_width(self, width, data):
        value = data.draw(st.integers(min_value=0, max_value=2**width - 1))
        digits = booth_recode(Word(value, width))
        assert booth_value(digits) == value
        assert all(-2 <= d <= 2 for d in digits)


class TestPPMatrices:
    def test_booth_rows_for_worked_example(self):
        matrix = booth_pp(Word(65, 8), booth_recode(Word(34, 8)))
        assert len(matrix) == 4
        assert signed_sum(matrix) == 2210
        assert [row.weight for row in matrix.rows] == [0, 2, 4, 6]

    def test_booth_zero_digits_give_zero_rows(self):
        matrix = booth_pp(Word(65, 8), booth_recode(Word(0, 8)))
        assert len(matrix) == 4
        assert all(row.bits.bits == 0 for row in matrix.rows)
        assert signed_sum(matrix) == 0

    def test_booth_unit_multiplicand_reproduces_value(self):
        matrix = booth_pp(Word(1, 8), booth_recode(Word(34, 8)))
        assert signed_sum(matrix) == 34

    def test_booth_zero_multiplicand_never_negates(self):
        matrix = booth_pp(Word(0, 8), booth_recode(Word(34, 8)))
        assert all(not row.negate for row in matrix.rows)

    def test_conventional_rows_for_worked_example(self):
        matrix = conventional_pp(Word(65, 8), Word(34, 8))
        assert len(matrix) == 8
        assert sum(1 for row in matrix.rows if row.bits.bits) == 2
        assert signed_sum(matrix) == 2210

    def test_conventional_16bit_row_count(self):
        matrix = conventional_pp(Word(40001, 16), Word(19, 16))
        assert len(matrix) == 16

    def test_conventional_zero_multiplier(self):
        matrix = conventional_pp(Word(65, 8), Word(0, 8))
        assert all(row.bits.bits == 0 for row in matrix.rows)

    def test_hybrid_single_live_row(self):
        matrix = hybrid_pp(Word(65, 8), Word(34, 8))
        assert len(matrix) == 8
        assert sum(1 for row in matrix.rows if row.bits.bits) == 1
        assert matrix.rows[0].bits.bits == 2210
        assert signed_sum(matrix) == 2210

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=300)
    def test_row_sums_match_product(self, a, b):
        ma, mb = Word(a, 8), Word(b, 8)
        assert signed_sum(conventional_pp(ma, mb)) == a * b
        assert signed_sum(booth_pp(ma, booth_recode(mb))) == a * b


def _inject_wrong_products(monkeypatch, wrong):
    """Add ``offset`` to each ``arch`` product whose multiplicand is ``at`` (every one when ``at`` is None).

    ``wrong`` maps an architecture to ``(at, offset)``.  The offset rides an
    extra row out of the lane row rule, the one place every product of the
    count pass is made, through :func:`unsigned_product`.
    """
    rule = encoding._pp_rows

    def wrong_rows(a, b, width, arch, lay):
        at, offset = wrong.get(arch, (None, 0))
        extra = [offset * (at is None or _lane(a, i, lay) == at) for i in range(lay.count)]
        return rule(a, b, width, arch, lay) + (encoding._pack(extra, lay.lane),)

    monkeypatch.setattr(encoding, "_pp_rows", wrong_rows)


class TestMultiply:
    def test_worked_example_counts(self):
        hybrid = multiply(65, 34, Architecture.HYBRID, width=8)
        booth = multiply(65, 34, Architecture.BOOTH, width=8)
        conventional = multiply(65, 34, Architecture.CONVENTIONAL, width=8)
        assert hybrid.product == booth.product == conventional.product == 2210
        assert (hybrid.counts.pp_count, hybrid.counts.add_count) == (1, 1)
        assert (booth.counts.pp_count, booth.counts.add_count) == (4, 3)
        assert (conventional.counts.pp_count, conventional.counts.add_count) == (8, 7)

    def test_sign_glue(self):
        plain = multiply(65, 34, Architecture.HYBRID, width=8)
        for a, b, product in [(-65, 34, -2210), (65, -34, -2210), (-65, -34, 2210)]:
            result = multiply(a, b, Architecture.HYBRID, width=8)
            assert result.product == product
            assert result.counts == plain.counts

    def test_split_path_counts(self):
        # 0b11110001: dense upper half goes to booth, lower half is category A
        result = multiply(65, 0b11110001, Architecture.HYBRID, width=8)
        assert result.product == 65 * 0b11110001
        # hi=0b1111 recodes to 3 digits (2 adds), lo adds 0, plus recombination
        assert result.counts.pp_count == 3 + 1
        assert result.counts.add_count == 2 + 0 + 1

    def test_split_sparse_halves_use_plans(self):
        # 0b00110011 has popcount 4; each half 0b0011 is category C
        result = multiply(65, 0b00110011, Architecture.HYBRID, width=8)
        assert result.product == 65 * 0b00110011
        assert result.counts.pp_count == 2
        assert result.counts.add_count == 1 + 1 + 1

    def test_odd_width_dense_multiplier_falls_back_to_booth(self):
        result = multiply(17, 0b11111, Architecture.HYBRID, width=5)
        assert result.product == 17 * 0b11111
        booth = multiply(17, 0b11111, Architecture.BOOTH, width=5)
        assert result.counts == booth.counts

    def test_count_identities_width8(self):
        for b in range(0, 256, 7):
            conventional = multiply(65, b, Architecture.CONVENTIONAL, width=8)
            assert conventional.counts.add_count == 7
            assert conventional.counts.pp_count == 8
            booth = multiply(65, b, Architecture.BOOTH, width=8)
            assert booth.counts.add_count == booth.counts.pp_count - 1
            hybrid = multiply(65, b, Architecture.HYBRID, width=8)
            if Word(b, 8).popcount() <= 3:
                assert hybrid.counts.pp_count <= 1
                assert hybrid.counts.add_count <= 2

    def test_width_required_for_ints(self):
        with pytest.raises(TypeError):
            multiply(65, 34, Architecture.HYBRID)

    def test_operand_width_enforced(self):
        with pytest.raises(ValueError):
            multiply(1, 1, Architecture.HYBRID, width=3)
        with pytest.raises(ValueError):
            multiply(1, 1, Architecture.HYBRID, width=33)

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_wrong_core_product_raises(self, arch, monkeypatch):
        _inject_wrong_products(monkeypatch, {arch: (None, 1)})
        with pytest.raises(ProductMismatchError) as excinfo:
            multiply(65, 34, arch, 8)
        assert (excinfo.value.pair, excinfo.value.got, excinfo.value.expected) == ((65, 34), 2211, 2210)

    def test_zero_multiplier(self):
        result = multiply(65, 0, Architecture.HYBRID, width=8)
        assert result.product == 0
        assert result.counts == OpCounts(0, 0, 0)

    @given(
        st.integers(min_value=-255, max_value=255),
        st.integers(min_value=-255, max_value=255),
        st.sampled_from(list(Architecture)),
    )
    @settings(max_examples=400)
    def test_random_products_exact(self, a, b, arch):
        assert multiply(a, b, arch, width=8).product == a * b

    @given(
        st.integers(min_value=4, max_value=12),
        st.sampled_from(list(Architecture)),
        st.data(),
    )
    def test_products_exact_any_width(self, width, arch, data):
        top = 2**width - 1
        a = data.draw(st.integers(min_value=-top, max_value=top))
        b = data.draw(st.integers(min_value=-top, max_value=top))
        assert multiply(a, b, arch, width=width).product == a * b


class TestUnsignedCore:
    def test_plan_steps_match_step_types(self):
        plan = hybrid_plan(Word(34, 8))
        assert isinstance(plan[0], ShiftLeft)
        assert isinstance(plan[1], AddM)

    def test_core_counts_zero_multiplier(self):
        product, counts = unsigned_product(Lanes([65], 8), Lanes([0], 8), Architecture.HYBRID)
        assert (product, counts.pp_count, counts.add_count) == (0, 0, 0)


@st.composite
def core_cases(draw):
    """(width, multiplicand, multiplier) with the multiplier shaped to reach every core path.

    Shapes: a chosen popcount (0, 1, 2, 3 or 4+), optionally with the top
    bit forced on; or each half given its own popcount, so split halves are
    sparse (chain) or dense (Booth) in every combination.
    """
    width = draw(st.integers(min_value=4, max_value=32))
    bit = st.integers(min_value=0, max_value=width - 1)
    if draw(st.booleans()):
        count = draw(st.integers(min_value=0, max_value=min(width, 6)))
        positions = set(draw(st.lists(bit, min_size=count, max_size=count, unique=True)))
        if draw(st.booleans()):
            positions.add(width - 1)
    else:
        half = width // 2
        lo = st.integers(min_value=0, max_value=half - 1)
        hi = st.integers(min_value=half, max_value=width - 1)
        positions = set(draw(st.lists(lo, max_size=min(half, 6), unique=True)))
        positions |= set(draw(st.lists(hi, max_size=min(width - half, 6), unique=True)))
    multiplier = sum(1 << p for p in positions)
    multiplicand = draw(st.integers(min_value=0, max_value=2**width - 1))
    return width, multiplicand, multiplier


class TestIntCoreAgainstReference:
    """The hybrid's one-lane route, the plain-int core of a one-pair call, equals the reference.

    The reference is the Word-level composition in ``reference_encoding``.  Dense halves and odd
    widths take its Booth terms, so both of its engines are held.
    """

    @given(core_cases())
    @settings(max_examples=600)
    def test_product_and_counts_equal_reference(self, case):
        width, m, b = case
        got = unsigned_product(Lanes([m], width), Lanes([b], width), Architecture.HYBRID)
        want = reference_product(Word(m, width), Word(b, width), Architecture.HYBRID)
        assert got[0] == want[0] == m * b
        assert got[1] == want[1]

    @pytest.mark.parametrize("width", [4, 5, 6, 7])
    def test_every_multiplier_of_small_widths(self, width):
        top = 2**width - 1
        for b in range(top + 1):
            for m in (0, 1, 0b1011 & top, top):
                got = unsigned_product(Lanes([m], width), Lanes([b], width), Architecture.HYBRID)
                assert got == reference_product(Word(m, width), Word(b, width), Architecture.HYBRID)


def _raised(call):
    with pytest.raises((OverflowError, ValueError)) as excinfo:
        call()
    return type(excinfo.value), str(excinfo.value)


class TestMultiplyInputErrors:
    """Plain-int operands raise exactly what the sign-magnitude checks raise."""

    @staticmethod
    def _checks(a, b, width):
        check_operand_width(width)
        to_sign_magnitude(a, width)
        to_sign_magnitude(b, width)

    @pytest.mark.parametrize(
        "a, b, width",
        [(300, 1, 8), (1, -300, 8), (-256, 256, 8), (1, 1, 3), (1, 1, 33), (300, 1, 3), (0, 0, 0), (1, 1, -1)],
    )
    def test_same_error_as_sign_magnitude_checks(self, a, b, width):
        expected = _raised(lambda: self._checks(a, b, width))
        for arch in Architecture:
            assert _raised(lambda: multiply(a, b, arch, width=width)) == expected
        assert _raised(lambda: count_pairs([(a, b)], (), width)) == expected

    def test_named_messages(self):
        assert _raised(lambda: multiply(300, 1, Architecture.HYBRID, width=8)) == (
            OverflowError,
            "|300| does not fit in 8 bits",
        )
        for width in (3, 33):
            assert _raised(lambda: multiply(1, 1, Architecture.HYBRID, width=width)) == (
                ValueError,
                f"operand width must be in [4, 32], got {width}",
            )


class TestWidthPrecedence:
    """Every entry point rejects a bad width before it decodes an operand."""

    @pytest.mark.parametrize("width", [-1, 0, 3, 33])
    @pytest.mark.parametrize("pair", [(1 << 40, 1), (1, -(1 << 40))], ids=["bad_a", "bad_b"])
    def test_width_error_first(self, width, pair):
        calls = [lambda arch=arch: multiply(*pair, arch, width) for arch in Architecture]
        calls += [lambda arch=arch: count_pairs([pair], (arch,), width) for arch in Architecture]
        calls.append(lambda: count_pairs([(1, 1), pair], tuple(Architecture), width))
        calls += [
            lambda arch=arch, gated=gated: simulate_stream([(1, 1), pair], arch, width, gated)
            for arch in Architecture
            for gated in (False, True)
        ]
        calls.append(lambda: trace(*pair, width))
        # and before it refuses an architecture that is not an Architecture member
        calls += [lambda: multiply(*pair, "booth", width), lambda: count_pairs([pair], ("booth",), width)]
        calls.append(lambda: simulate_stream([(1, 1), pair], "booth", width, False))
        expected = (ValueError, f"operand width must be in [4, 32], got {width}")
        for call in calls:
            assert _raised(call) == expected


class TestArchitecturePrecedence:
    """A value that is not an ``Architecture`` member is refused after the width and before any operand."""

    PAIRS = [(65, 34), (3, 5), (120, 77)]

    def test_a_name_is_not_an_architecture(self):
        calls = [
            lambda: ArrayGeometry.create(8, "booth"),
            lambda: multiply(65, 34, "booth", 8),
            lambda: multiply(300, 1, "booth", 8),
            lambda: count_pairs(self.PAIRS, (Architecture.CONVENTIONAL, "booth"), 8),
            lambda: count_pairs([(300, 1)], ("booth",), 8),
            lambda: simulate_stream(self.PAIRS, "booth", 8, False),
            lambda: simulate_stream([(300, 1)], "booth", 8, True),
            lambda: simulate_configs(self.PAIRS, 8, [(Architecture.CONVENTIONAL, False), ("booth", False)], True),
        ]
        for call in calls:
            assert _raised(call) == (ValueError, "architecture must be an Architecture member, got 'booth'")


@st.composite
def signed_runs(draw):
    """(width, pairs) of signed operands, with 0 and +/-(2**width - 1) drawn often."""
    width = draw(st.integers(min_value=4, max_value=32))
    top = 2**width - 1
    operand = st.one_of(st.sampled_from([0, top, -top]), st.integers(min_value=-top, max_value=top))
    return width, draw(st.lists(st.tuples(operand, operand), max_size=12))


def _refuse_core(*args):
    raise AssertionError("the core must not run before the range check")


def _refuse_cores(mp):
    """Make the hybrid core and the conventional/Booth lane row rule fail the test if they run."""
    mp.setattr(encoding, "unsigned_product", _refuse_core)
    mp.setattr(encoding, "_pp_rows", _refuse_core)


class TestCountPairs:
    """One count pass for every architecture: per architecture, the field-wise sum of ``multiply``'s counts."""

    @staticmethod
    def _summed(pairs, arch, width):
        counts = [multiply(a, b, arch, width).counts for a, b in pairs]
        return OpCounts(
            sum(c.pp_count for c in counts),
            sum(c.add_count for c in counts),
            sum(c.shift_count for c in counts),
        )

    @given(signed_runs(), st.sampled_from(list(Architecture)))
    @settings(max_examples=150)
    def test_equals_summed_multiply_counts(self, run, arch):
        width, pairs = run
        assert count_pairs(pairs, (arch,), width) == (self._summed(pairs, arch, width),)

    @given(signed_runs(), st.lists(st.sampled_from(list(Architecture)), min_size=1, max_size=3, unique=True))
    @settings(max_examples=150)
    def test_one_record_per_architecture_in_order(self, run, archs):
        width, pairs = run
        assert count_pairs(pairs, archs, width) == tuple(self._summed(pairs, arch, width) for arch in archs)

    @given(signed_runs(), st.sampled_from([1, 3, 256]))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_counts_equal_the_cores_summed_pair_by_pair(self, run, chunk):
        """Conventional and Booth counts are closed forms in the pair count and the multipliers' top bits.

        The oracle is the Word-level reference, which reads its counts off the PP matrices and shares no
        count rule with ``src/``.
        """
        width, pairs = run
        archs = (Architecture.CONVENTIONAL, Architecture.BOOTH)
        summed = []
        for arch in archs:
            counts = [reference_product(Word(abs(a), width), Word(abs(b), width), arch)[1] for a, b in pairs]
            summed.append(OpCounts(*(sum(c[i] for c in map(astuple, counts)) for i in range(3))))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "STREAM_CHUNK", chunk)
            assert count_pairs(pairs, archs, width) == tuple(summed)

    @given(signed_runs(), st.data())
    @settings(max_examples=100)
    def test_bad_operand_anywhere_raises_multiplys_error_first(self, run, data):
        width, pairs = run
        top = 2**width
        bad = data.draw(st.integers(min_value=top, max_value=4 * top))
        bad = bad if data.draw(st.booleans()) else -bad
        at = data.draw(st.integers(min_value=0, max_value=len(pairs)))
        good_a, good_b = pairs[at] if at < len(pairs) else (1, 1)
        pair = (bad, good_b) if data.draw(st.booleans()) else (good_a, bad)
        # a second bad pair later in the run must not be the one reported
        run_pairs = pairs[:at] + [pair] + pairs[at:] + [(-bad, bad)]
        arch = data.draw(st.sampled_from(list(Architecture)))
        expected = _raised(lambda: multiply(*pair, arch, width))
        with pytest.MonkeyPatch.context() as mp:
            _refuse_cores(mp)
            assert _raised(lambda: count_pairs(run_pairs, (arch,), width)) == expected

    @pytest.mark.parametrize("size", range(4))
    def test_empty_run_counts_zero(self, size):
        for archs in itertools.permutations(Architecture, size):
            assert count_pairs([], archs, 8) == (OpCounts(0, 0, 0),) * size

    @pytest.mark.parametrize("width", [0, 3, 33, -1])
    def test_bad_width_raises_multiplys_error(self, width, monkeypatch):
        first_pair = _raised(lambda: multiply(1, 1, Architecture.HYBRID, width=width))
        _refuse_cores(monkeypatch)
        # an empty run has no pair to decode, and still raises the width error
        width_error = _raised(lambda: check_operand_width(width))
        for pairs, expected in (([(1, 1), (300, 2)], first_pair), ([], width_error)):
            for arch in Architecture:
                assert _raised(lambda: count_pairs(pairs, (arch,), width)) == expected
            assert _raised(lambda: count_pairs(pairs, tuple(Architecture), width)) == expected
            # no architecture still runs the whole run's check
            assert _raised(lambda: count_pairs(pairs, (), width)) == expected

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_wrong_core_product_names_the_first_pair(self, arch, monkeypatch):
        _inject_wrong_products(monkeypatch, {arch: (3, 1)})
        with pytest.raises(ProductMismatchError) as excinfo:
            count_pairs([(65, 34), (-3, 5), (3, 7)], (arch,), 8)
        assert (excinfo.value.pair, excinfo.value.got, excinfo.value.expected) == ((-3, 5), -16, -15)

    @pytest.mark.parametrize(
        "archs, pair, got, expected",
        [
            # pair (-3, 5) comes first, so its first wrong architecture is named
            ((Architecture.CONVENTIONAL, Architecture.BOOTH, Architecture.HYBRID), (-3, 5), -16, -15),
            ((Architecture.HYBRID, Architecture.CONVENTIONAL, Architecture.BOOTH), (-3, 5), -17, -15),
            ((Architecture.CONVENTIONAL,), (7, 9), 66, 63),
        ],
    )
    def test_wrong_core_names_the_first_pair_then_the_first_architecture(
        self, archs, pair, got, expected, monkeypatch
    ):
        # booth is off by 1 and hybrid by 2 on multiplicand 3; conventional by 3 on multiplicand 7
        wrong = {Architecture.BOOTH: (3, 1), Architecture.HYBRID: (3, 2), Architecture.CONVENTIONAL: (7, 3)}
        _inject_wrong_products(monkeypatch, wrong)
        with pytest.raises(ProductMismatchError) as excinfo:
            count_pairs([(65, 34), (-3, 5), (7, 9)], archs, 8)
        assert (excinfo.value.pair, excinfo.value.got, excinfo.value.expected) == (pair, got, expected)

    @pytest.mark.parametrize("spill", ["guard", "past"])
    def test_a_wrong_bit_outside_the_columns_names_its_pair(self, spill, monkeypatch):
        # a rule may return any integer: a bit in lane 0's guard names pair 0, one past the last lane the last pair
        rule = encoding.unsigned_product

        def spilling(multiplicand, multiplier, arch):
            product, counts = rule(multiplicand, multiplier, arch)
            lay = multiplicand.layout
            return product | 1 << (lay.cols if spill == "guard" else lay.lane * lay.count), counts

        monkeypatch.setattr(encoding, "unsigned_product", spilling)
        with pytest.raises(ProductMismatchError) as excinfo:
            count_pairs([(3, 5), (-7, 9)], (Architecture.BOOTH,), 8)
        want = ((3, 5), 15 | 1 << 16) if spill == "guard" else ((-7, 9), -(63 | 1 << 17))
        assert (excinfo.value.pair, excinfo.value.got) == want

    @given(st.data(), st.sampled_from(list(Architecture)))
    @settings(max_examples=150)
    def test_multiply_is_the_one_pair_case(self, data, arch):
        width = data.draw(st.integers(min_value=4, max_value=32))
        top = 2**width - 1
        operand = st.one_of(st.sampled_from([0, top, -top]), st.integers(min_value=-top, max_value=top))
        a, b = data.draw(operand), data.draw(operand)
        result = multiply(a, b, arch, width)
        assert (result.product, result.counts) == (a * b, *count_pairs([(a, b)], (arch,), width))

    def test_shared_counts_stay_frozen(self, monkeypatch):
        # a one-chunk pass hands back the rule's own record, so the caller and the rule share it
        rule, made = encoding.unsigned_product, []

        def spy(multiplicand, multiplier, arch):
            product, counts = rule(multiplicand, multiplier, arch)
            made.append(counts)
            return product, counts

        monkeypatch.setattr(encoding, "unsigned_product", spy)
        (counts,) = count_pairs([(3, 5), (200, 5)], (Architecture.HYBRID,), 8)
        assert len(made) == 1 and counts is made[0]
        with pytest.raises(FrozenInstanceError):
            counts.add_count = 0
        one = multiply(3, 5, Architecture.HYBRID, 8).counts
        assert counts == OpCounts(2 * one.pp_count, 2 * one.add_count, 2 * one.shift_count)


@st.composite
def repeating_runs(draw):
    """(width, pairs): width 4..6 pairs drawn from a pool of a few operands, so every chunk repeats magnitudes."""
    width = draw(st.integers(4, 6))
    top = 2**width - 1
    operand = st.one_of(st.sampled_from([0, top, -top]), st.integers(min_value=-top, max_value=top))
    pool = st.sampled_from(draw(st.lists(operand, min_size=1, max_size=6)))
    return width, draw(st.lists(st.tuples(pool, pool), max_size=300))


class TestLaneCountPass:
    """The count pass in chunks: every architecture checked lane by lane, one rule call per chunk."""

    @given(
        st.one_of(signed_runs(), repeating_runs()),
        st.lists(st.sampled_from(list(Architecture)), min_size=1, max_size=3, unique=True),
        st.sampled_from([1, 3, 7, 256]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_summed_per_pair_cores_across_chunks(self, run, archs, chunk):
        width, pairs = run
        summed = []
        for arch in archs:
            total = [0, 0, 0]
            for a, b in pairs:
                product, counts = reference_product(Word(abs(a), width), Word(abs(b), width), arch)
                assert product == abs(a * b)
                total[0] += counts.pp_count
                total[1] += counts.add_count
                total[2] += counts.shift_count
            summed.append(OpCounts(*total))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "STREAM_CHUNK", chunk)
            assert count_pairs(pairs, archs, width) == tuple(summed)

    @pytest.mark.parametrize("arch", [Architecture.CONVENTIONAL, Architecture.BOOTH])
    @pytest.mark.parametrize(
        "first_chunk, pair, got, expected",
        [
            # chunk 1 clean: the wrong lane of chunk 2 is named
            ([(65, 34), (5, 5), (9, 9)], (3, 7), 22, 21),
            # chunk 1 holds a wrong lane of its own, so chunk 2's is never reached
            ([(65, 34), (5, 5), (-3, 9)], (-3, 9), -28, -27),
        ],
    )
    def test_wrong_lane_in_a_later_chunk(self, arch, first_chunk, pair, got, expected, monkeypatch):
        _inject_wrong_products(monkeypatch, {arch: (3, 1)})
        monkeypatch.setattr(encoding, "STREAM_CHUNK", 3)
        with pytest.raises(ProductMismatchError) as excinfo:
            count_pairs(first_chunk + [(11, 2), (3, 7), (3, 9)], tuple(Architecture), 8)
        assert (excinfo.value.pair, excinfo.value.got, excinfo.value.expected) == (pair, got, expected)

    @pytest.mark.parametrize(
        "archs",
        [(Architecture.CONVENTIONAL, Architecture.HYBRID), (Architecture.HYBRID, Architecture.CONVENTIONAL)],
    )
    def test_wrong_hybrid_pair_before_a_wrong_lane_is_named(self, archs, monkeypatch):
        # hybrid is off by 2 on multiplicand 5, conventional by 3 on multiplicand 7, in one chunk
        _inject_wrong_products(monkeypatch, {Architecture.HYBRID: (5, 2), Architecture.CONVENTIONAL: (7, 3)})
        with pytest.raises(ProductMismatchError) as excinfo:
            count_pairs([(65, 34), (5, -3), (7, 9)], archs, 8)
        assert (excinfo.value.pair, excinfo.value.got, excinfo.value.expected) == ((5, -3), -17, -15)

    @pytest.mark.parametrize("archs", [(Architecture.CONVENTIONAL,), tuple(Architecture)])
    def test_a_generator_is_read_chunk_by_chunk(self, archs, monkeypatch):
        pulled, at_first_rows = [], []
        rule = encoding._pp_rows

        def spy(a, b, width, arch, lay):
            at_first_rows.append(len(pulled))
            return rule(a, b, width, arch, lay)

        def pairs():
            for a in range(1, 11):
                pulled.append(a)
                yield a, (7 * a) % 256

        monkeypatch.setattr(encoding, "_pp_rows", spy)
        monkeypatch.setattr(encoding, "STREAM_CHUNK", 3)
        assert count_pairs(pairs(), archs, 8) == count_pairs([(a, (7 * a) % 256) for a in range(1, 11)], archs, 8)
        assert at_first_rows[0] <= 3

    def test_each_chunk_packs_its_products_once(self, monkeypatch):
        pack, packed = encoding._pack, []

        def spy(values, lane):
            packed.append(len(values))
            return pack(values, lane)

        monkeypatch.setattr(encoding, "_pack", spy)
        monkeypatch.setattr(encoding, "STREAM_CHUNK", 3)
        pairs = [(a - 9, (7 * a) % 256 - 128) for a in range(20)]
        for archs in ((Architecture.HYBRID,), tuple(Architecture)):
            packed.clear()
            count_pairs(pairs, archs, 8)
            assert packed == [3] * 6 + [2]  # |a * b|, whatever the count checks

    def test_row_rule_sees_at_most_one_chunk_of_lanes(self, monkeypatch):
        rule = encoding._pp_rows
        seen = []

        def spy(a, b, width, arch, lay):
            seen.append((arch, lay.count))
            return rule(a, b, width, arch, lay)

        monkeypatch.setattr(encoding, "_pp_rows", spy)
        pairs = [(a % 256, (7 * a) % 256) for a in range(3 * encoding.STREAM_CHUNK + 5)]
        count_pairs(pairs, tuple(Architecture), 8)
        assert max(count for _, count in seen) <= encoding.STREAM_CHUNK
        for arch in (Architecture.CONVENTIONAL, Architecture.BOOTH):
            assert sum(count for a, count in seen if a is arch) == len(pairs)


class TestLaneCountPassInSmallChunks(TestLaneCountPass):
    """Every check of :class:`TestLaneCountPass` again with the chunk loop cut to 1, 3 and 7 pairs.

    A test that sets its own chunk size still runs at that size.
    """

    @pytest.fixture(autouse=True, scope="class", params=[1, 3, 7])
    def small_chunks(self, request):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "STREAM_CHUNK", request.param)
            yield


class TestHybridSeamWords:
    """The count's product rule, the seam a replacement core is patched in at: one call per chunk and
    architecture of a count pass, on the chunk's two :class:`Lanes`, none in an array pass, and no Word
    built."""

    @pytest.mark.parametrize("chunk", [1, 3, 7, 256])
    @pytest.mark.parametrize("archs", [(Architecture.HYBRID,), tuple(Architecture)])
    def test_a_pass_with_the_hybrid_array_calls_no_core_and_builds_no_word(self, chunk, archs, monkeypatch):
        rng = random.Random(chunk)
        width = 6
        pairs = [(rng.randint(-63, 63), rng.choice([-63, -6, 0, 6, 45, 63])) for _ in range(40)]
        core, post_init = encoding.unsigned_product, Word.__post_init__
        calls, built = [], []

        def spy(multiplicand, multiplier, arch):
            calls.append(arch)
            return core(multiplicand, multiplier, arch)

        def counting_post_init(word):
            built.append(word.bits)
            post_init(word)

        monkeypatch.setattr(encoding, "unsigned_product", spy)
        monkeypatch.setattr(Word, "__post_init__", counting_post_init)
        monkeypatch.setattr(encoding, "STREAM_CHUNK", chunk)
        # every architecture runs its array, plain and gated, and is counted
        configs = [(arch, gated) for arch in archs for gated in (False, True)]
        _, counts = simulate_configs(pairs, width, configs, True)
        chunks = -(-len(pairs) // chunk)
        # an array checks its own products, so an array pass never reaches the rule
        assert calls == []
        assert built == []
        # the count pass alone, on the same run, calls the rule once per chunk and architecture
        calls.clear()
        assert count_pairs(pairs, archs, width) == counts
        assert calls == list(archs) * chunks
        assert built == []

    @pytest.mark.parametrize("chunk", [1, 3, 7, 256])
    @pytest.mark.parametrize("archs", [(Architecture.HYBRID,), tuple(Architecture)])
    def test_one_call_per_pair_on_one_word_per_magnitude(self, chunk, archs, monkeypatch):
        """Restated at the lane rule: one call per chunk and architecture, in ``archs`` order, on the
        chunk's magnitudes as two :class:`Lanes`, and no Word built in any pass."""
        rng = random.Random(chunk)
        core, post_init = encoding.unsigned_product, Word.__post_init__
        calls, built = [], []

        def spy(multiplicand, multiplier, arch):
            calls.append((list(multiplicand.values), list(multiplier.values), multiplicand.width, arch))
            return core(multiplicand, multiplier, arch)

        def counting_post_init(word):
            built.append(word.bits)
            post_init(word)

        monkeypatch.setattr(encoding, "unsigned_product", spy)
        monkeypatch.setattr(Word, "__post_init__", counting_post_init)
        monkeypatch.setattr(encoding, "STREAM_CHUNK", chunk)
        for width, top in ((5, 31), (10, 1023)):
            pairs = [(rng.randint(-4, 4), rng.choice([-top, -6, 0, 6, top])) for _ in range(40)]
            calls.clear()
            count_pairs(pairs, archs, width)
            runs = [pairs[start:start + chunk] for start in range(0, len(pairs), chunk)]
            assert calls == [
                ([abs(a) for a, _ in run], [abs(b) for _, b in run], width, arch) for run in runs for arch in archs
            ]
            assert built == []

    @given(repeating_runs(), st.sampled_from([1, 3, 7, 256]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_seam_fault_on_a_repeated_pair_names_its_first_occurrence(self, run, chunk, data):
        width, pairs = run
        pairs = pairs or [(1, 1)]
        at = data.draw(st.integers(0, len(pairs) - 1))
        x, y = abs(pairs[at][0]), abs(pairs[at][1])
        # the same magnitudes, signs flipped, at another pair of at's chunk, before or after it
        start = at - at % chunk
        others = [i for i in range(start, min(start + chunk, len(pairs))) if i != at]
        if others:
            pairs[data.draw(st.sampled_from(others))] = (-pairs[at][0], -pairs[at][1])
        first = next(i for i, (a, b) in enumerate(pairs) if (abs(a), abs(b)) == (x, y))
        a, b = pairs[first]
        got = -(x * y + 1) if (a < 0) != (b < 0) else x * y + 1
        core = encoding.unsigned_product

        def faulty(multiplicand, multiplier, arch):
            # one more in every lane that holds the magnitudes (x, y)
            product, counts = core(multiplicand, multiplier, arch)
            hits = [i for i, pair in enumerate(zip(multiplicand.values, multiplier.values)) if pair == (x, y)]
            return product + sum(1 << i * multiplicand.layout.lane for i in hits), counts

        archs = data.draw(st.sampled_from([(Architecture.HYBRID,), tuple(Architecture)]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "unsigned_product", faulty)
            mp.setattr(encoding, "STREAM_CHUNK", chunk)
            with pytest.raises(ProductMismatchError) as excinfo:
                count_pairs(pairs, archs, width)
        assert (excinfo.value.pair, excinfo.value.got, excinfo.value.expected) == ((a, b), got, a * b)


@st.composite
def lane_values(draw):
    """(lane, values): a width-4..32 array's lane and 1..256 products, below 2**(lane - 1), the edges drawn often."""
    lane = 2 * draw(st.one_of(st.sampled_from([4, 32]), st.integers(4, 32))) + 1
    count = draw(st.one_of(st.sampled_from([1, 2, 255, 256]), st.integers(1, 256)))
    value = st.one_of(st.sampled_from([0, (1 << lane - 1) - 1]), st.integers(0, (1 << lane - 1) - 1))
    return lane, draw(st.lists(value, min_size=count, max_size=count))


class TestLanePacker:
    """Lane values pack through the bytes of an array and one cached re-stride."""

    @given(lane_values())
    @settings(max_examples=60, deadline=None)
    def test_pack_matches_shifted_sum(self, case):
        lane, values = case
        assert encoding._pack(values, lane) == sum(v << i * lane for i, v in enumerate(values))

    @pytest.mark.parametrize("values", [[0, 1 << 64], [1 << 64, 1]])
    def test_a_value_past_the_widest_item_raises(self, values):
        # a width-32 lane is 65 bits, but every product it packs fits 64
        with pytest.raises(OverflowError):
            encoding._pack(values, 65)

    def test_one_value_packs_as_itself(self):
        assert encoding._pack([1 << 64], 65) == 1 << 64

    def test_schedule_cache_grows_with_shapes_not_counts(self):
        encoding._restride_steps.cache_clear()
        for width in (8, 32):
            lane = 2 * width + 1
            for count in range(1, 257):
                encoding._pack([(1 << 2 * width) - 1] * count, lane)
        # one schedule per width for each power-of-two count from 2 to 256
        assert encoding._restride_steps.cache_info().currsize == 2 * 8


class TestLayoutCache:
    """One frozen lane layout per (cols, count), shared by every run of that shape."""

    def test_one_layout_per_shape(self):
        lay = encoding._layout(16, 256)
        assert encoding._layout(16, 256) is lay
        assert (lay.cols, lay.count, lay.lane) == (16, 256, 17)
        assert encoding._layout(16, 255) is not lay
        assert encoding._layout.cache_info().maxsize == 32

    def test_a_shared_layout_cannot_be_written(self):
        lay = encoding._layout(16, 3)
        with pytest.raises(AttributeError):
            lay.cmask = 0
        assert lay.cmask == sum(0xFFFF << 17 * i for i in range(3))
        assert (lay.ones, lay.last) == (1 | 1 << 17 | 1 << 34, 34)

    def test_a_chunks_two_operand_runs_share_one_layout(self):
        assert encoding.Lanes([1, 2, 3], 8).layout is encoding.Lanes([4, 5, 6], 8).layout

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_a_one_pair_multiply_builds_no_new_layout(self, arch):
        multiply(65, 34, arch, 8)
        before = encoding._layout.cache_info()
        multiply(7, -9, arch, 8)
        after = encoding._layout.cache_info()
        assert after.misses == before.misses


class TestLanes:
    """A run of operands packs once, into the array's lanes, and that pack is its range check."""

    @pytest.mark.parametrize("width", [4, 5, 16, 17, 32])
    @pytest.mark.parametrize("count", [0, 1, 2, 256])
    def test_packed_is_the_array_lane_pack(self, width, count):
        rnd = random.Random(width * 1000 + count)
        top = (1 << width) - 1
        values = [rnd.choice([0, top, rnd.randint(0, top)]) for _ in range(count)]
        lanes = encoding.Lanes(values, width)
        assert lanes.bits == encoding._pack(values, 2 * width + 1)
        assert (lanes.layout.cols, lanes.layout.count) == (2 * width, count)

    @pytest.mark.parametrize("width", [4, 5, 16, 17, 32])
    @pytest.mark.parametrize("edge", ["negative", "width", "item", "lane"])
    def test_value_out_of_range_names_itself(self, width, edge):
        # the array item holding ``width`` bits refuses a negative value or one
        # past the item; the width mask finds a value between the two
        bad = {
            "negative": -1,
            "width": 1 << width,
            "item": 1 << encoding._item_bits(width),
            "lane": 1 << 2 * width + 1,
        }[edge]
        with pytest.raises(ValueError) as excinfo:
            encoding.Lanes([3, 1, bad, 1 << width], width)
        assert str(excinfo.value) == f"lane value {bad} does not fit in {width} bits"


@st.composite
def booth_lane_runs(draw):
    """(width, multiplicands, multipliers) as the Booth row rule's callers shape them.

    Widths 4..32, odd ones included, and 1..256 lanes, both ends drawn often.  Half the runs draw
    half-width multipliers, as a hybrid lane whose one dense half runs Booth, so every top digit reads
    zeros.  Multiplicands 0 and 2**w - 1 and multipliers 0, all ones and with the top bit set come
    often; lanes are drawn through one drawn random, so a run of 256 lanes stays cheap to draw.
    """
    width = draw(st.one_of(st.sampled_from([4, 5, 31, 32]), st.integers(4, 32)))
    bits = width // 2 if draw(st.booleans()) else width
    count = draw(st.one_of(st.sampled_from([1, 256]), st.integers(1, 256)))
    rnd = draw(st.randoms(use_true_random=False))
    top_a, top_b, high = (1 << width) - 1, (1 << bits) - 1, 1 << (bits - 1)
    multiplicands = [rnd.choice([0, top_a, rnd.randint(0, top_a)]) for _ in range(count)]
    multipliers = [rnd.choice([0, top_b, rnd.randint(high, top_b), rnd.randint(0, top_b)]) for _ in range(count)]
    return width, multiplicands, multipliers


class TestLaneBoothRows:
    @given(booth_lane_runs())
    @settings(max_examples=150, deadline=None)
    def test_digit_flag_words_match_the_per_digit_rule(self, run):
        """Every row and the correction row equal the rows built digit by digit, as many as the array has."""
        width, ma, mb = run
        lay = encoding._layout(2 * width, len(ma))
        a, b = encoding._pack(ma, lay.lane), encoding._pack(mb, lay.lane)
        rows = encoding._booth_rows(a, b, width, lay)
        assert len(rows) == ArrayGeometry.create(width, Architecture.BOOTH).rows
        assert rows == reference_booth_rows(a, b, width, lay)


@st.composite
def hybrid_runs(draw):
    """(width, multiplicands, multipliers): 1..256 lanes shaped to reach every route of the hybrid.

    Widths 4..32, odd ones included, with 4 and 32 drawn often.  Each lane's
    multiplier comes from a drawn set of up to 12: 0 or 2**w - 1, 0..6 set
    bits, each half given its own count (3 and 4 drawn often, so a half
    sits on either side of the chain's limit), or uniform, which is mostly
    dense.  Lanes pick from the set, and multiplicands (0 and 2**w - 1
    often), through one drawn random, so a run of 256 lanes stays cheap to
    draw.
    """
    width = draw(st.one_of(st.sampled_from([4, 32]), st.integers(4, 32)))
    top = (1 << width) - 1
    half = width // 2

    def bits_in(lo, hi, count):
        count = min(count, hi - lo)
        return sum(1 << p for p in draw(st.lists(st.integers(lo, hi - 1), min_size=count, max_size=count, unique=True)))

    def multiplier():
        shape = draw(st.sampled_from(["edge", "sparse", "halves", "dense"]))
        if shape == "edge":
            return draw(st.sampled_from([0, top]))
        if shape == "sparse":
            return bits_in(0, width, draw(st.integers(0, 6)))
        if shape == "halves":
            count = st.one_of(st.sampled_from([3, 4]), st.integers(0, 6))
            return bits_in(0, half, draw(count)) | bits_in(half, width, draw(count))
        return draw(st.integers(0, top))

    pool = [multiplier() for _ in range(draw(st.integers(1, 12)))]
    count = draw(st.one_of(st.sampled_from([1, 256]), st.integers(1, 256)))
    rnd = draw(st.randoms(use_true_random=False))
    multiplicands = [rnd.choice([0, top, rnd.randint(0, top)]) for _ in range(count)]
    return width, multiplicands, [rnd.choice(pool) for _ in range(count)]


class TestLaneHybrid:
    """The hybrid's lane rule: row 0 is the product, built by the per-pair dispatch's routes, in every lane."""

    @given(hybrid_runs())
    @settings(max_examples=80, deadline=None)
    def test_row_0_is_the_hybrid_product_in_every_lane(self, run):
        width, ma, mb = run
        lay = encoding._layout(2 * width, len(ma))
        a, b = encoding._pack(ma, lay.lane), encoding._pack(mb, lay.lane)
        rows = encoding._pp_rows(a, b, width, Architecture.HYBRID, lay)
        assert rows[1:] == (0,) * (width - 1)
        assert rows[0] == encoding._pack([x * y for x, y in zip(ma, mb)], lay.lane)

    @given(hybrid_runs())
    @settings(max_examples=80, deadline=None)
    def test_routes_are_the_ones_hybrid_int_takes(self, run):
        # the per-pair dispatch is reference_encoding's; every route gives a * b, so only the routes
        # themselves show a wrong limit
        width, _, mb = run
        lay = encoding._layout(2 * width, len(mb))
        routes = encoding._hybrid_routes(encoding._pack(mb, lay.lane), width, lay)
        got = [tuple(_lane(r, i, lay) for r in routes) for i in range(lay.count)]
        assert got == [reference_routes(b, width) for b in mb]

    @given(hybrid_runs())
    @settings(max_examples=80, deadline=None)
    def test_lane_counts_are_the_per_pair_cores_summed(self, run):
        width, ma, mb = run
        lay = encoding._layout(2 * width, len(mb))
        summed = [0, 0, 0]
        for x, y in zip(ma, mb):
            product, counts = reference_product(Word(x, width), Word(y, width), Architecture.HYBRID)
            assert product == x * y
            summed[0] += counts.pp_count
            summed[1] += counts.add_count
            summed[2] += counts.shift_count
        assert encoding._hybrid_counts(encoding._pack(mb, lay.lane), width, lay) == tuple(summed)

    @given(hybrid_runs(), st.sampled_from([1, 3, 7, 256]), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_a_pass_with_the_hybrid_array_counts_what_the_count_pass_counts(self, run, chunk, gated, rnd):
        width, ma, mb = run
        pairs = [(rnd.choice([x, -x]), rnd.choice([y, -y])) for x, y in zip(ma, mb)]
        archs = tuple(rnd.sample(list(Architecture), rnd.randint(1, 3)))
        if Architecture.HYBRID not in archs:
            archs += (Architecture.HYBRID,)
        want = count_pairs(pairs, archs, width)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "STREAM_CHUNK", chunk)
            assert simulate_configs(pairs, width, [(arch, gated) for arch in archs], True)[1] == want

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_a_pass_with_the_hybrid_array_works_out_each_chunks_routes_once(self, chunk, monkeypatch):
        monkeypatch.setattr(encoding, "STREAM_CHUNK", chunk)
        pairs = [(a - 10, 37 * a % 256) for a in range(1, 21)]  # no two multipliers alike
        configs = [(Architecture.HYBRID, False), (Architecture.HYBRID, True)]
        encoding._hybrid_routes.cache_clear()
        simulate_configs(pairs, 8, configs, True)
        chunks = -(-len(pairs) // chunk)
        # the row rule works the routes out once per chunk and the count reads them
        assert encoding._hybrid_routes.cache_info()[:2] == (chunks, chunks)  # hits, misses

    def test_popcount_cache_grows_with_shapes_not_counts(self):
        encoding._popcount_steps.cache_clear()
        for count in range(1, 257):
            encoding._popcount_masks(encoding._layout(16, count))
        # one schedule for each power-of-two count from 1 to 256
        assert encoding._popcount_steps.cache_info().currsize == 9


class TestProductRule:
    """The count's one product rule against the Word-level reference, for all three architectures."""

    @given(hybrid_runs(), st.sampled_from(list(Architecture)))
    @settings(max_examples=100, deadline=None)
    def test_lane_products_and_summed_counts_equal_the_reference(self, run, arch):
        width, ma, mb = run
        products, counts = unsigned_product(Lanes(ma, width), Lanes(mb, width), arch)
        want = [reference_product(Word(x, width), Word(y, width), arch) for x, y in zip(ma, mb)]
        lay = encoding._layout(2 * width, len(ma))
        assert products == encoding._pack([product for product, _ in want], lay.lane)
        assert astuple(counts) == tuple(sum(field) for field in zip(*(astuple(c) for _, c in want)))
