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
    def test_construction_rejects_bits_over_width(self):
        with pytest.raises(ValueError, match="300 does not fit in 8 bits"):
            Word(300, 8)
        assert Word(0xFF, 8).bits == 0xFF

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Word(0, 0)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            Word(-1, 8)


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
        for value in (255, -255):
            sm = to_sign_magnitude(value, 8)
            assert sm.sign * sm.magnitude.bits == value

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            SignMag(0, Word(3, 8))
        with pytest.raises(ValueError):
            SignMag(-1, Word(0, 8))

    @given(st.integers(min_value=-(2**8 - 1), max_value=2**8 - 1))
    def test_round_trip(self, value):
        sm = to_sign_magnitude(value, 8)
        assert sm.sign * sm.magnitude.bits == value

    @given(st.integers(min_value=4, max_value=32), st.data())
    def test_round_trip_any_width(self, width, data):
        value = data.draw(st.integers(min_value=-(2**width - 1), max_value=2**width - 1))
        sm = to_sign_magnitude(value, width)
        assert sm.sign * sm.magnitude.bits == value


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
