"""Operand widths, fixed-width binary words and sign-magnitude decoding.

The counting cores and the lane-packed array run on plain ints; :class:`Word`
is the width-carrying view at the boundaries: the classification, plan and
partial-product views that ``trace`` prints and the reference models read.
Bit positions are 1-indexed from the LSB throughout: position 1 has weight
2**0.
"""

from __future__ import annotations

from dataclasses import dataclass

# Operand words entering a multiplier stay desk-checkable.  Shift/add results
# grow past 32 bits freely (a product needs 2x the operand width).
MIN_OPERAND_WIDTH = 4
MAX_OPERAND_WIDTH = 32


def check_operand_width(width: int) -> int:
    """Validate a multiplier operand width (4 to 32 bits)."""
    if not MIN_OPERAND_WIDTH <= width <= MAX_OPERAND_WIDTH:
        raise ValueError(
            f"operand width must be in [{MIN_OPERAND_WIDTH}, {MAX_OPERAND_WIDTH}], got {width}"
        )
    return width


@dataclass(frozen=True, slots=True)
class Word:
    """Unsigned bit pattern with an explicit width.

    ``0 <= bits < 2**width`` is checked at construction; a value that does
    not fit raises rather than losing its high bits.  Words are immutable.
    """

    bits: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"width must be positive, got {self.width}")
        if self.bits < 0:
            raise ValueError(f"bits must be non-negative, got {self.bits}")
        if self.bits >> self.width:
            raise ValueError(f"{self.bits} does not fit in {self.width} bits")

    # -- queries ---------------------------------------------------------

    def popcount(self) -> int:
        """Number of set bits."""
        return self.bits.bit_count()

    def one_positions(self) -> list[int]:
        """Ascending 1-indexed positions of the set bits (empty for zero)."""
        return [i + 1 for i in range(self.width) if (self.bits >> i) & 1]

    # -- text forms ------------------------------------------------------

    def binary(self) -> str:
        return f"{self.width}'b{self.bits:0{self.width}b}"

    def decimal(self) -> str:
        return f"{self.width}'d{self.bits}"

    def __str__(self) -> str:
        return self.binary()


@dataclass(frozen=True, slots=True)
class SignMag:
    """Sign-magnitude pair: the unsigned encoding core sees only the magnitude.

    ``sign`` is +1 or -1; a zero magnitude always carries sign +1.
    """

    sign: int
    magnitude: Word

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.magnitude.bits == 0 and self.sign != 1:
            raise ValueError("zero magnitude must carry sign +1")


def to_sign_magnitude(value: int, width: int) -> SignMag:
    """Decompose a signed integer into sign and width-bit magnitude.

    Raises OverflowError when ``|value| >= 2**width``.
    """
    magnitude = abs(value)
    if magnitude >= 1 << width:
        raise OverflowError(f"|{value}| does not fit in {width} bits")
    return SignMag(1 if value >= 0 else -1, Word(magnitude, width))
