from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from reference_encoding import (
    booth_value,
    execute_plan,
    plan_counts,
    signed_sum,
    unsigned_product as reference_product,
)

import hybridmul.encoding as encoding
from hybridmul import simulate_stream, trace
from hybridmul.bitnum import Word, check_operand_width, to_sign_magnitude
from hybridmul.encoding import (
    AddM,
    Architecture,
    CategoryKind,
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
        original = encoding.unsigned_product

        def off_by_one(multiplicand, multiplier, arch):
            product, counts = original(multiplicand, multiplier, arch)
            return product + 1, counts

        monkeypatch.setattr(encoding, "unsigned_product", off_by_one)
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
        product, counts = unsigned_product(Word(65, 8), Word(0, 8), Architecture.HYBRID)
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
    """The integer core equals the Word-level composition in ``reference_encoding``."""

    @given(core_cases(), st.sampled_from(list(Architecture)))
    @settings(max_examples=600)
    def test_product_and_counts_equal_reference(self, case, arch):
        width, m, b = case
        got = unsigned_product(Word(m, width), Word(b, width), arch)
        want = reference_product(Word(m, width), Word(b, width), arch)
        assert got[0] == want[0] == m * b
        assert got[1] == want[1]

    @pytest.mark.parametrize("width", [4, 5, 6, 7])
    def test_every_multiplier_of_small_widths(self, width):
        top = 2**width - 1
        for b in range(top + 1):
            for m in (0, 1, 0b1011 & top, top):
                for arch in Architecture:
                    got = unsigned_product(Word(m, width), Word(b, width), arch)
                    assert got == reference_product(Word(m, width), Word(b, width), arch)


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
        expected = (ValueError, f"operand width must be in [4, 32], got {width}")
        for call in calls:
            assert _raised(call) == expected


@st.composite
def signed_runs(draw):
    """(width, pairs) of signed operands, with 0 and +/-(2**width - 1) drawn often."""
    width = draw(st.integers(min_value=4, max_value=32))
    top = 2**width - 1
    operand = st.one_of(st.sampled_from([0, top, -top]), st.integers(min_value=-top, max_value=top))
    return width, draw(st.lists(st.tuples(operand, operand), max_size=12))


def _refuse_core(multiplicand, multiplier, arch):
    raise AssertionError("the core must not run before the range check")


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
            mp.setattr(encoding, "unsigned_product", _refuse_core)
            assert _raised(lambda: count_pairs(run_pairs, (arch,), width)) == expected

    @pytest.mark.parametrize("width", [0, 3, 33, -1])
    def test_bad_width_raises_multiplys_error(self, width, monkeypatch):
        first_pair = _raised(lambda: multiply(1, 1, Architecture.HYBRID, width=width))
        monkeypatch.setattr(encoding, "unsigned_product", _refuse_core)
        # an empty run has no pair to decode, and still raises the width error
        width_error = _raised(lambda: check_operand_width(width))
        for pairs, expected in (([(1, 1), (300, 2)], first_pair), ([], width_error)):
            for arch in Architecture:
                assert _raised(lambda: count_pairs(pairs, (arch,), width)) == expected
            assert _raised(lambda: count_pairs(pairs, tuple(Architecture), width)) == expected

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_wrong_core_product_names_the_first_pair(self, arch, monkeypatch):
        original = encoding.unsigned_product

        def off_by_one_from_3(multiplicand, multiplier, arch):
            product, counts = original(multiplicand, multiplier, arch)
            return product + (multiplicand.bits == 3), counts

        monkeypatch.setattr(encoding, "unsigned_product", off_by_one_from_3)
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
        original = encoding.unsigned_product
        # booth is off by 1 and hybrid by 2 on multiplicand 3; conventional by 3 on multiplicand 7
        wrong = {Architecture.BOOTH: (3, 1), Architecture.HYBRID: (3, 2), Architecture.CONVENTIONAL: (7, 3)}

        def wrong_core(multiplicand, multiplier, arch):
            product, counts = original(multiplicand, multiplier, arch)
            at, offset = wrong[arch]
            return product + offset * (multiplicand.bits == at), counts

        monkeypatch.setattr(encoding, "unsigned_product", wrong_core)
        with pytest.raises(ProductMismatchError) as excinfo:
            count_pairs([(65, 34), (-3, 5), (7, 9)], archs, 8)
        assert (excinfo.value.pair, excinfo.value.got, excinfo.value.expected) == (pair, got, expected)

    @given(st.data(), st.sampled_from(list(Architecture)))
    @settings(max_examples=150)
    def test_multiply_is_the_one_pair_case(self, data, arch):
        width = data.draw(st.integers(min_value=4, max_value=32))
        top = 2**width - 1
        operand = st.one_of(st.sampled_from([0, top, -top]), st.integers(min_value=-top, max_value=top))
        a, b = data.draw(operand), data.draw(operand)
        result = multiply(a, b, arch, width)
        assert (result.product, result.counts) == (a * b, *count_pairs([(a, b)], (arch,), width))

    @pytest.mark.parametrize("arch", list(Architecture))
    def test_shared_counts_stay_frozen(self, arch):
        _, first = unsigned_product(Word(3, 8), Word(5, 8), arch)
        _, again = unsigned_product(Word(200, 8), Word(5, 8), arch)
        assert first is again
        with pytest.raises(FrozenInstanceError):
            first.add_count = 0
        assert again == multiply(3, 5, arch, 8).counts
