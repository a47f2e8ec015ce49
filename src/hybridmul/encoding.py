"""Multiplier encodings and the architecture dispatcher.

Three ways to turn (multiplicand, multiplier) into a product:

* conventional shift-and-add: one partial-product row per multiplier bit;
* radix-4 Booth recoding: one row per signed digit in {-2..+2};
* hybrid sparse encoding: multipliers with at most three set bits compile to
  a short shift/add chain (categories A-F keyed on popcount and the position
  of the lowest set bit), denser multipliers are split in half once and each
  half re-dispatched.

All encoders work on unsigned magnitudes.  :func:`count_pairs` takes a run
of signed pairs, an operand width and the architectures to run: one range
check for the run (:func:`_check_operands`), then one pass over the pairs
that decodes each pair once (its two :class:`Word` magnitudes and its native
product) and runs every architecture's core on it, each signed product
checked against ``a * b`` (:func:`_checked`), the counts summed per
architecture.  :func:`multiply` is its one-pair, one-architecture case, and
the array stream raises its range and mismatch errors through the same two
checks.
The integer core that multiplies runs on plain ints and is the only place
that counts partial products, additions and shifts.  :class:`Word` values
appear only in the views, which carry no counts: the classification, plan
steps and Booth digits ``trace`` prints, and the partial-product matrices of
a one-pair array run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from typing import Sequence, Union

from .bitnum import (
    MAX_OPERAND_WIDTH,
    MIN_OPERAND_WIDTH,
    Word,
    check_operand_width,
    to_sign_magnitude,
)


class ProductMismatchError(RuntimeError):
    """A simulated product disagreed with the native-multiply oracle."""

    def __init__(self, a: int, b: int, got: int, expected: int):
        super().__init__(f"product mismatch for {a} * {b}: got {got}, expected {expected}")
        self.pair = (a, b)
        self.got = got
        self.expected = expected


class Architecture(enum.Enum):
    CONVENTIONAL = "conventional"
    BOOTH = "booth"
    HYBRID = "hybrid"

    # members are singletons compared by identity; Enum's own hash runs in Python
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class CategoryKind(enum.Enum):
    ZERO = "Zero"
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E = "E"
    F = "F"
    SPLIT = "Split"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Category:
    """Classification of a multiplier bit pattern.

    Captured positions are 1-indexed from the LSB.  For D, ``j`` is the gap
    between the two set bits (the bits sit at positions i and i+j); for E and
    F, ``i < j < k`` are the absolute positions of the three set bits.
    """

    kind: CategoryKind
    i: int | None = None
    j: int | None = None
    k: int | None = None

    def __str__(self) -> str:
        parts = [f"{name}={v}" for name, v in (("i", self.i), ("j", self.j), ("k", self.k)) if v is not None]
        return f"{self.kind.value}" + (f" ({', '.join(parts)})" if parts else "")


def classify(multiplier: Word) -> Category:
    """Classify a multiplier per the sparse-encoding rule.

    Zero set bits -> Zero; more than three -> Split.  With 1..3 set bits the
    category is decided by the count and by whether the lowest set bit sits at
    position 1 (A/C/E) or higher (B/D/F).
    """
    ones = multiplier.one_positions()
    n = len(ones)
    if n == 0:
        return Category(CategoryKind.ZERO)
    if n > 3:
        return Category(CategoryKind.SPLIT)
    if n == 1:
        p = ones[0]
        if p == 1:
            return Category(CategoryKind.A, i=1)
        return Category(CategoryKind.B, i=p)
    if n == 2:
        lo, hi = ones
        if lo == 1:
            return Category(CategoryKind.C, i=hi)
        return Category(CategoryKind.D, i=lo, j=hi - lo)
    lo, mid, hi = ones
    kind = CategoryKind.E if lo == 1 else CategoryKind.F
    return Category(kind, i=lo, j=mid, k=hi)


# -- shift/add plans -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ShiftLeft:
    amount: int


@dataclass(frozen=True, slots=True)
class AddM:
    pass


Step = Union[ShiftLeft, AddM]


def hybrid_plan(multiplier: Word) -> tuple[Step, ...]:
    """Compile a popcount<=3 multiplier into its shift/add chain.

    With set-bit positions p1 < p2 < p3 the chain is
    ``((M << (p3-p2)) + M) << (p2-p1) + M) << (p1-1)`` truncated to however
    many bits exist; this is the category table expressed over absolute
    positions.  The published rule for category F names a final shift of i,
    but only i-1 reproduces M*multiplier (the two-bit and i=1 rows all use
    i-1); the plan uses i-1 and the oracle tests enforce it.  Zero-amount
    shifts are dropped (they would be wiring no-ops), so a Zero or category A
    multiplier has no steps.

    Raises ValueError for Split multipliers.
    """
    if multiplier.popcount() > 3:
        raise ValueError(f"multiplier {multiplier} has more than 3 set bits; split it first")
    positions = multiplier.one_positions()
    steps: list[Step] = []
    for idx in range(len(positions) - 1, 0, -1):
        steps.append(ShiftLeft(positions[idx] - positions[idx - 1]))
        steps.append(AddM())
    if positions and positions[0] > 1:
        steps.append(ShiftLeft(positions[0] - 1))
    return tuple(steps)


def split(multiplier: Word) -> tuple[Word, Word]:
    """Split an even-width word into (high, low) halves of width/2 each."""
    if multiplier.width % 2:
        raise ValueError(f"cannot split odd width {multiplier.width}")
    half = multiplier.width // 2
    lo = Word(multiplier.bits & ((1 << half) - 1), half)
    hi = Word(multiplier.bits >> half, half)
    return hi, lo


# -- radix-4 Booth recoding -------------------------------------------------

# Radix-4 digit of the window (b[2k+1], b[2k], b[2k-1]): b[2k-1] + b[2k] - 2*b[2k+1].
_BOOTH_DIGIT = (0, 1, 1, 2, -2, -1, -1, 0)


def booth_recode(operand: Word) -> tuple[int, ...]:
    """Recode an unsigned operand into radix-4 signed digits, LSB-first, each in {-2..+2}.

    Overlapping 3-bit windows (b[2k+1], b[2k], b[2k-1]) with b[-1] = 0 map to
    digits d = b[2k-1] + b[2k] - 2*b[2k+1]: window k is bits 2k..2k+2 of
    ``bits << 1``.  The recoder scans the operand width zero-extended to the
    next even count, plus one extra zero-extension bit when the top bit is
    set (otherwise the two's-complement reading would go negative).
    """
    width, bits = operand.width, operand.bits
    n = (width + (bits >> (width - 1)) + 1) // 2
    window = bits << 1
    return tuple(_BOOTH_DIGIT[(window >> 2 * k) & 7] for k in range(n))


# -- partial-product matrices ------------------------------------------------


@dataclass(frozen=True, slots=True)
class PPRow:
    """One partial-product row: ``(+/-) bits << weight``."""

    bits: Word
    weight: int
    negate: bool = False


@dataclass(frozen=True, slots=True)
class PPMatrix:
    rows: tuple[PPRow, ...]

    def __len__(self) -> int:
        return len(self.rows)


def conventional_pp(multiplicand: Word, multiplier: Word) -> PPMatrix:
    """Shift-and-add rows: row k is multiplicand gated by multiplier bit k."""
    zero = Word(0, multiplicand.width)
    rows = tuple(
        PPRow(multiplicand if (multiplier.bits >> k) & 1 else zero, weight=k)
        for k in range(multiplier.width)
    )
    return PPMatrix(rows)


def booth_pp(multiplicand: Word, digits: tuple[int, ...]) -> PPMatrix:
    """One row per radix-4 digit: |d|*M at weight 2k, negated when d < 0.

    A zero row is never marked negated (-0 is 0), so a row's bits alone
    decide whether it contributes.
    """
    rows = tuple(
        PPRow(
            Word(abs(d) * multiplicand.bits, multiplicand.width + 1),
            weight=2 * k,
            negate=d < 0 and multiplicand.bits != 0,
        )
        for k, d in enumerate(digits)
    )
    return PPMatrix(rows)


def hybrid_pp(multiplicand: Word, multiplier: Word) -> PPMatrix:
    """Array placement for the hybrid core: the encoded product in row 0.

    The shift/add chain produces a single partial product, so the reduction
    array sees one live row and (width - 1) all-zero rows that the freeze
    logic can shut off.  Row 0 carries the chain's result; its width is the
    full product width.
    """
    product, _ = unsigned_product(multiplicand, multiplier, Architecture.HYBRID)
    rows = [PPRow(Word(product, multiplicand.width + multiplier.width), weight=0)]
    zero = Word(0, multiplicand.width)
    rows.extend(PPRow(zero, weight=k) for k in range(1, multiplier.width))
    return PPMatrix(tuple(rows))


# -- top-level dispatch -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class OpCounts:
    pp_count: int
    add_count: int
    shift_count: int


@dataclass(frozen=True, slots=True)
class MultiplyResult:
    product: int
    counts: OpCounts


# The integer core: each encoder takes the multiplicand, the multiplier's bits
# and its width as plain ints and returns (product, pp_count, add_count,
# shift_count).  The counts are bit arithmetic on the multiplier alone; the
# product is built the way the encoder builds it, never by one native multiply.

IntCore = tuple[int, int, int, int]


def conventional_int(m: int, bits: int, width: int) -> IntCore:
    """One row per multiplier bit: ``m << k`` summed over the set bits k."""
    product = 0
    rest = bits
    while rest:
        low = rest & -rest
        product += m << (low.bit_length() - 1)
        rest ^= low
    return product, width, width - 1, 0


def booth_int(m: int, bits: int, width: int) -> IntCore:
    """Radix-4 Booth: digit k from the 3-bit window at 2k of ``bits << 1``, times ``m << 2k``.

    The digit count is :func:`booth_recode`'s: the width plus one bit when
    the top bit is set, rounded up to even, halved.
    """
    n = (width + (bits >> (width - 1)) + 1) // 2
    window = bits << 1
    product = 0
    for k in range(n):
        d = _BOOTH_DIGIT[(window >> 2 * k) & 7]
        if d:
            product += d * (m << 2 * k)
    return product, n, n - 1, 0


def _chain(m: int, bits: int) -> IntCore:
    """Run :func:`hybrid_plan`'s shift/add chain for at most three set bits."""
    if not bits:
        return 0, 0, 0, 0
    prev = bits.bit_length()
    rest = bits ^ (1 << (prev - 1))
    acc = m
    adds = 0
    while rest:
        pos = rest.bit_length()
        acc = (acc << (prev - pos)) + m
        rest ^= 1 << (pos - 1)
        prev = pos
        adds += 1
    # prev is the lowest set position; a final shift by 0 is dropped
    if prev > 1:
        return acc << (prev - 1), 1, adds, adds + 1
    return acc, 1, adds, adds


def _hybrid_leaf_int(m: int, bits: int, width: int) -> IntCore:
    return _chain(m, bits) if bits.bit_count() <= 3 else booth_int(m, bits, width)


def hybrid_int(m: int, bits: int, width: int) -> IntCore:
    """Hybrid: the chain for at most three set bits, else split once into halves.

    Each half runs the chain or, when dense, Booth; the half products
    recombine with one extra addition.  An odd width cannot split evenly
    and falls back to Booth whole.
    """
    if bits.bit_count() <= 3 or width % 2:
        return _hybrid_leaf_int(m, bits, width)
    half = width // 2
    hi, hi_pp, hi_adds, hi_shifts = _hybrid_leaf_int(m, bits >> half, half)
    lo, lo_pp, lo_adds, lo_shifts = _hybrid_leaf_int(m, bits & ((1 << half) - 1), half)
    return (hi << half) + lo, hi_pp + lo_pp, hi_adds + lo_adds + 1, hi_shifts + lo_shifts


_INT_CORES = {
    Architecture.CONVENTIONAL: conventional_int,
    Architecture.BOOTH: booth_int,
    Architecture.HYBRID: hybrid_int,
}

# One immutable record per distinct (pp, adds, shifts): a core's counts depend
# on the multiplier's shape alone, so a run of pairs needs only a handful.
_shared_counts = cache(OpCounts)


def unsigned_product(
    multiplicand: Word, multiplier: Word, arch: Architecture
) -> tuple[int, OpCounts]:
    """Multiply two magnitudes with the chosen architecture's integer core."""
    product, pp, adds, shifts = _INT_CORES[arch](multiplicand.bits, multiplier.bits, multiplier.width)
    return product, _shared_counts(pp, adds, shifts)


def _check_operands(pairs: Sequence[tuple[int, int]], width: int) -> None:
    """Raise the decode or width error of the first bad pair, if there is one.

    One pass over the magnitudes clears a valid run; only a bad run is
    decoded pair by pair, so every caller, the array stream included,
    raises exactly the sign-magnitude decode's error for that pair.
    """
    seen = 0
    for a, b in pairs:
        seen |= abs(a) | abs(b)
    if MIN_OPERAND_WIDTH <= width <= MAX_OPERAND_WIDTH and not seen >> width:
        return
    for a, b in pairs:
        # the decode and width checks, in this order, raise the exact error
        to_sign_magnitude(a, width)
        to_sign_magnitude(b, width)
        check_operand_width(width)
    # an empty run has no pair to raise it
    check_operand_width(width)


def _checked(a: int, b: int, magnitude: int, expected: int) -> None:
    """Raise :class:`ProductMismatchError` unless the core's ``magnitude``, signed, is ``expected = a * b``."""
    product = -magnitude if (a < 0) != (b < 0) else magnitude
    if product != expected:
        raise ProductMismatchError(a, b, product, expected)


def count_pairs(
    pairs: Sequence[tuple[int, int]], archs: Sequence[Architecture], width: int
) -> tuple[OpCounts, ...]:
    """Multiply every pair (b is the multiplier) on every architecture and sum the counts.

    Returns one record per architecture, in ``archs`` order.  The operands
    are range-checked once for the whole pass.  The pass runs pair by pair:
    each pair is decoded once (two :class:`Word` magnitudes and the native
    product) and then multiplied on each architecture in turn, so it keeps
    nothing per pair.  Each signed product is checked against ``a * b``; a
    mismatch raises :class:`ProductMismatchError` for the first bad pair,
    and within that pair for the first architecture in ``archs``.
    """
    _check_operands(pairs, width)
    totals = [[0, 0, 0] for _ in archs]
    for a, b in pairs:
        # two Words per pair, not plain ints: ``unsigned_product`` is the seam a
        # replacement core is patched in at, and such a core may read ``.bits``
        multiplicand, multiplier = Word(abs(a), width), Word(abs(b), width)
        expected = a * b
        for arch, total in zip(archs, totals):
            magnitude, counts = unsigned_product(multiplicand, multiplier, arch)
            _checked(a, b, magnitude, expected)
            total[0] += counts.pp_count
            total[1] += counts.add_count
            total[2] += counts.shift_count
    return tuple(OpCounts(*total) for total in totals)


def multiply(a: int, b: int, arch: Architecture, width: int) -> MultiplyResult:
    """Multiply a * b (b is the multiplier) and report operation counts.

    The one-pair, one-architecture case of :func:`count_pairs`, so it raises
    what that raises: the range error of a bad operand or width, and
    :class:`ProductMismatchError` if the core's signed product is not
    ``a * b``.  The product it returns is that checked ``a * b``.
    """
    return MultiplyResult(a * b, *count_pairs(((a, b),), (arch,), width))
