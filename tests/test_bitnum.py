import pytest
from hypothesis import given, strategies as st

from hybridmul.bitnum import (
    MAX_OPERAND_WIDTH,
    MIN_OPERAND_WIDTH,
    SignMag,
    Word,
    check_operand_width,
    to_sign_magnitude,
)


class TestWordBasics:
    def test_construction_masks_to_width(self):
        assert Word(0x1FF, 8).bits == 0xFF

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Word(0, 0)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            Word(-1, 8)

    def test_bit_accessor_is_one_indexed(self):
        w = Word(0b00100010, 8)
        assert w.bit(2) == 1
        assert w.bit(6) == 1
        assert w.bit(1) == 0
        with pytest.raises(IndexError):
            w.bit(9)
        with pytest.raises(IndexError):
            w.bit(0)

    def test_int_conversion(self):
        assert int(Word(34, 8)) == 34


class TestPopcount:
    def test_pixel_multiplier(self):
        assert Word(34, 8).popcount() == 2

    def test_zero(self):
        assert Word(0, 8).popcount() == 0

    def test_all_ones(self):
        assert Word(255, 8).popcount() == 8


class TestOnePositions:
    def test_pixel_multiplier(self):
        assert Word(34, 8).one_positions() == [2, 6]

    def test_lsb_only(self):
        assert Word(1, 8).one_positions() == [1]

    def test_three_bits(self):
        assert Word(0b10101, 8).one_positions() == [1, 3, 5]

    def test_zero_is_empty(self):
        assert Word(0, 8).one_positions() == []

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_matches_popcount(self, bits):
        w = Word(bits, 16)
        assert w.popcount() == len(w.one_positions())


class TestShiftLeft:
    def test_category_d_step(self):
        assert Word(65, 8).shift_left(4).bits == 1040

    def test_identity_shift(self):
        assert Word(65, 8).shift_left(0).bits == 65

    def test_final_step_of_worked_example(self):
        assert Word(1105, 11).shift_left(1).bits == 2210

    def test_width_grows(self):
        assert Word(65, 8).shift_left(4).width == 12

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Word(65, 8).shift_left(-1)

    @given(st.integers(min_value=0, max_value=2**12 - 1), st.integers(min_value=0, max_value=16))
    def test_never_truncates(self, bits, amount):
        w = Word(bits, 12)
        assert w.shift_left(amount).bits == bits * 2**amount

    def test_lshift_operator(self):
        assert (Word(65, 8) << 4).bits == 1040


class TestAdd:
    def test_sum_and_headroom(self):
        total = Word(255, 8) + Word(255, 8)
        assert total.bits == 510
        assert total.width == 9

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_exact(self, x, y):
        assert (Word(x, 8) + Word(y, 8)).bits == x + y


class TestSignMagnitude:
    def test_negative(self):
        sm = to_sign_magnitude(-65, 8)
        assert (sm.sign, sm.magnitude.bits) == (-1, 65)

    def test_zero_has_positive_sign(self):
        sm = to_sign_magnitude(0, 8)
        assert (sm.sign, sm.magnitude.bits) == (1, 0)

    def test_positive(self):
        sm = to_sign_magnitude(34, 8)
        assert (sm.sign, sm.magnitude.bits) == (1, 34)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            to_sign_magnitude(256, 8)
        with pytest.raises(OverflowError):
            to_sign_magnitude(-256, 8)

    def test_boundary_fits(self):
        assert to_sign_magnitude(255, 8).value == 255
        assert to_sign_magnitude(-255, 8).value == -255

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            SignMag(0, Word(3, 8))
        with pytest.raises(ValueError):
            SignMag(-1, Word(0, 8))

    @given(st.integers(min_value=-(2**8 - 1), max_value=2**8 - 1))
    def test_round_trip(self, value):
        assert to_sign_magnitude(value, 8).value == value

    @given(st.integers(min_value=4, max_value=32), st.data())
    def test_round_trip_any_width(self, width, data):
        value = data.draw(st.integers(min_value=-(2**width - 1), max_value=2**width - 1))
        assert to_sign_magnitude(value, width).value == value


class TestTextForms:
    def test_binary_form(self):
        assert Word(34, 8).binary() == "8'b00100010"
        assert str(Word(34, 8)) == "8'b00100010"

    def test_decimal_and_hex_forms(self):
        assert Word(34, 8).decimal() == "8'd34"


class TestOperandWidth:
    def test_limits(self):
        assert check_operand_width(MIN_OPERAND_WIDTH) == MIN_OPERAND_WIDTH
        assert check_operand_width(MAX_OPERAND_WIDTH) == MAX_OPERAND_WIDTH
        for bad in (MIN_OPERAND_WIDTH - 1, MAX_OPERAND_WIDTH + 1):
            with pytest.raises(ValueError):
                check_operand_width(bad)
