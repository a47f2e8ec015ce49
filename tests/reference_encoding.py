"""Straight-line reference for the encoders' products and operation counts.

Independent check for the count's product rule in ``hybridmul.encoding``: every
product here is composed from the public :class:`Word`-level views (the
hybrid plan run step by step, Booth digits summed as signed PP rows,
conventional rows summed) and every count is read off those views: a plan's
additions are its ``AddM`` steps and its shifts its ``ShiftLeft`` steps, it
makes one partial product unless the multiplier is zero, and Booth makes one
per digit.  The views carry no counts of their own, so no count rule is
shared with the rule.
"""

from __future__ import annotations

from hybridmul.bitnum import Word
from hybridmul.encoding import (
    AddM,
    Architecture,
    OpCounts,
    PPMatrix,
    _Layout,
    _nonzero,
    booth_pp,
    booth_recode,
    conventional_pp,
    hybrid_plan,
    split,
)


def execute_plan(multiplicand: Word, multiplier: Word) -> Word:
    """Run the multiplier's plan step by step: AddM always adds the original multiplicand.

    The width grows with each step (a shift by its amount, an add by one
    bit of headroom), so no bit is ever dropped.
    """
    if multiplier.bits == 0:
        return Word(0, multiplicand.width)
    acc, width = multiplicand.bits, multiplicand.width
    for step in hybrid_plan(multiplier):
        if isinstance(step, AddM):
            acc, width = acc + multiplicand.bits, width + 1
        else:
            acc, width = acc << step.amount, width + step.amount
    return Word(acc, width)


def signed_sum(matrix: PPMatrix) -> int:
    """Sum of the rows, each ``(+/-) bits << weight``."""
    total = 0
    for row in matrix.rows:
        value = row.bits.bits << row.weight
        total += -value if row.negate else value
    return total


def _add(x: OpCounts, y: OpCounts) -> OpCounts:
    return OpCounts(x.pp_count + y.pp_count, x.add_count + y.add_count, x.shift_count + y.shift_count)


def booth_value(digits: tuple[int, ...]) -> int:
    """The value LSB-first radix-4 digits stand for."""
    return sum(d * 4**k for k, d in enumerate(digits))


def plan_counts(multiplier: Word) -> OpCounts:
    """Counts read off the multiplier's plan steps."""
    steps = hybrid_plan(multiplier)
    adds = sum(1 for step in steps if isinstance(step, AddM))
    return OpCounts(1 if multiplier.bits else 0, adds, len(steps) - adds)


def _hybrid_leaf(multiplicand: Word, multiplier: Word) -> tuple[int, OpCounts]:
    return execute_plan(multiplicand, multiplier).bits, plan_counts(multiplier)


def _booth_core(multiplicand: Word, multiplier: Word) -> tuple[int, OpCounts]:
    digits = booth_recode(multiplier)
    matrix = booth_pp(multiplicand, digits)
    return signed_sum(matrix), OpCounts(len(digits), len(digits) - 1, 0)


def unsigned_product(
    multiplicand: Word, multiplier: Word, arch: Architecture
) -> tuple[int, OpCounts]:
    """Multiply two magnitudes with the chosen architecture.

    The hybrid path dispatches on the multiplier's popcount: at most three
    set bits run the shift/add plan directly; otherwise the multiplier is
    split once into halves, each half re-dispatched (dense halves fall back
    to Booth), and the two half-products recombine with one extra addition.
    Odd-width multipliers that cannot split evenly fall back to Booth whole.
    """
    if arch is Architecture.CONVENTIONAL:
        matrix = conventional_pp(multiplicand, multiplier)
        return signed_sum(matrix), OpCounts(len(matrix), multiplier.width - 1, 0)

    if arch is Architecture.BOOTH:
        return _booth_core(multiplicand, multiplier)

    if multiplier.popcount() <= 3:
        return _hybrid_leaf(multiplicand, multiplier)
    if multiplier.width % 2:
        return _booth_core(multiplicand, multiplier)

    hi, lo = split(multiplier)
    parts = []
    for half in (hi, lo):
        if half.popcount() > 3:
            parts.append(_booth_core(multiplicand, half))
        else:
            parts.append(_hybrid_leaf(multiplicand, half))
    (hi_prod, hi_counts), (lo_prod, lo_counts) = parts
    product = (hi_prod << (multiplier.width // 2)) + lo_prod
    counts = _add(_add(hi_counts, lo_counts), OpCounts(0, 1, 0))
    return product, counts


def hybrid_routes(bits: int, width: int) -> tuple[int, int, int, int]:
    """The multiplier bits the hybrid dispatch of :func:`unsigned_product` hands each engine.

    Returns ``(chain, chain_hi, booth, booth_hi)``.  The high half's bits are given at weight 0; a
    route the dispatch does not take holds 0.
    """
    multiplier = Word(bits, width)
    if multiplier.popcount() <= 3:
        return bits, 0, 0, 0
    if width % 2:
        return 0, 0, bits, 0
    hi, lo = split(multiplier)
    chain, booth = (lo.bits, 0) if lo.popcount() <= 3 else (0, lo.bits)
    chain_hi, booth_hi = (hi.bits, 0) if hi.popcount() <= 3 else (0, hi.bits)
    return chain, chain_hi, booth, booth_hi


def booth_rows(a: int, b: int, width: int, lay: _Layout) -> tuple[int, ...]:
    """The lane Booth rows built digit by digit, a window of ``b`` shifted down two bits per digit.

    Same contract as ``hybridmul.encoding._booth_rows``: the ``width // 2 + 1`` radix-4 digits of
    ``width``-bit ``b`` times ``a``, then the correction row.  Digit k reads bits (2k+1, 2k, 2k-1) of ``b``, bit -1
    zero; the top digit must read only zeros above ``b``'s top bit, so it is never negative.  Negated
    rows enter as 2**(w+1) - |d|*M and owe 2**(w+1+2k) to the correction row.
    """
    ones, cols = lay.ones, lay.cols
    nonzero_a = _nonzero(a, lay)
    double_a = a << 1
    window = b << 1
    rows = []
    debt = 0
    for k in range(width // 2 + 1):
        b0 = window & ones
        b1 = (window >> 1) & ones
        b2 = (window >> 2) & ones
        window >>= 2
        one = b0 ^ b1
        two = (b2 ^ b1) & ~one
        mag = (a & ((one << cols) - one)) | (double_a & ((two << cols) - two))
        neg = b2 & ~(b1 & b0) & nonzero_a
        neg_cols = (neg << cols) - neg
        value = (mag & ~neg_cols) | ((neg << (width + 1)) - (mag & neg_cols))
        rows.append(value << 2 * k)
        debt += neg << (width + 1 + 2 * k)
    rows.append(((ones << cols) - debt) & lay.cmask)
    return tuple(rows)
