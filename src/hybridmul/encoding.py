"""Multiplier encodings and the architecture dispatcher.

Three ways to turn (multiplicand, multiplier) into a product:

* conventional shift-and-add: one partial-product row per multiplier bit;
* radix-4 Booth recoding: one row per signed digit in {-2..+2};
* hybrid sparse encoding: multipliers with at most three set bits compile to
  a short shift/add chain (categories A-F keyed on popcount and the position
  of the lowest set bit), denser multipliers are split in half once and each
  half re-dispatched.

All encoders work on unsigned magnitudes.  :func:`count_pairs` takes a run of signed pairs, an
operand width and the architectures to run: one range check for the run, the width before any
operand (:func:`_check_operands`), then one pass in chunks of :data:`STREAM_CHUNK` pairs, each
decoded once, packed one magnitude per lane of a Python integer (SWAR: Knuth, TAOCP 4A, 7.1.3) and
checked and counted by :class:`_CountPass`, the per-chunk step the array stream's count shares.  Each
lane's conventional or Booth rows, summed modulo 2**cols, must equal the packed ``|a * b|``; the
hybrid runs pair by pair through :func:`unsigned_product`, the seam its counts come
from.  :func:`multiply` is the one-pair, one-architecture case, and every entry point rejects a bad
width before it decodes an operand.

The lane PP rule set (:class:`ArrayGeometry`, one shared :class:`_Layout` per shape, :class:`Lanes`,
whose pack is its range check, :class:`PPLanes` and :func:`_pp_rows`, the row rule of all three
arrays) lives here, next to the encoders; :mod:`~hybridmul.datapath` imports it, and the count pass
calls no array code.  The integer core runs on plain ints and is the only place that counts partial
products, additions and shifts.  :class:`Word` values appear only in the views, which carry no
counts, and at the hybrid's :func:`unsigned_product` seam.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Sequence, Union

from .bitnum import Word, check_operand_width, to_sign_magnitude


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


# -- lane-packed partial-product rows --------------------------------------------

# Pairs per lane-packed run, in the count pass and the array stream: bounds
# the size of the lane-packed integers, so memory stays O(chunk) for any run.
STREAM_CHUNK = 256


@dataclass(frozen=True, slots=True)
class ArrayGeometry:
    """Fixed array shape for one (width, architecture) pair."""

    width: int
    arch: Architecture
    rows: int
    cols: int

    @classmethod
    def create(cls, width: int, arch: Architecture) -> "ArrayGeometry":
        check_operand_width(width)
        if arch is Architecture.BOOTH:
            # worst case digit count (top-bit-set operand needs one extra
            # digit) plus the shared sign-correction row
            rows = width // 2 + 2
        else:
            rows = width
        return cls(width=width, arch=arch, rows=rows, cols=2 * width)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class _Layout:
    """Bit masks of ``count`` lanes of ``cols`` column bits plus a guard bit; :func:`_layout` shares them."""

    cols: int
    count: int
    lane: int
    full: int  # every bit of every lane
    ones: int  # bit 0 of every lane
    cmask: int  # the column bits of every lane
    last: int  # offset of the last lane


@lru_cache(maxsize=32)
def _layout(cols: int, count: int) -> _Layout:
    """The one layout of ``count`` lanes of ``cols`` columns; frozen, so no run can write to it."""
    lane = cols + 1
    full = (1 << lane * count) - 1
    ones = full // ((1 << lane) - 1)
    return _Layout(cols, count, lane, full, ones, ones * ((1 << cols) - 1), lane * (count - 1))


# Array typecodes by item bits: lane values cross between a list and one
# integer as the bytes of an array, at the stride of its items.
_ITEM_CODES = {8 * array(code).itemsize: code for code in "QLIHB"}
_BIG_ENDIAN = sys.byteorder == "big"


@cache
def _item_bits(lane: int) -> int:
    """Bits of the narrowest array item that holds a whole lane, else of the widest."""
    return min((bits for bits in _ITEM_CODES if bits >= lane), default=max(_ITEM_CODES))


@cache
def _restride_steps(src: int, dst: int, count: int) -> tuple[tuple[int, int], ...]:
    """The ``(mask, shift)`` steps that move ``count`` fields from ``src`` to ``dst`` bits apart.

    ``count`` is a power of two; each field's value must fit in the
    narrower stride.  Step j moves, as blocks of 2**j fields, those whose
    index has bit j set by 2**j times the stride difference, with the bits
    of ``mask`` (SWAR: Knuth, TAOCP 4A, 7.1.3).  Closing up runs from bit 0
    up and spreading out from the top bit down, so no block lands on
    another.
    """
    narrow, wide = min(src, dst), max(src, dst)
    steps = []
    for j in range(count.bit_length() - 1):
        block = 1 << j
        period = 2 * block * wide
        every = ((1 << period * (count // (2 * block))) - 1) // ((1 << period) - 1)
        field = ((1 << block * narrow) - 1) << block * src
        steps.append((field * every, block * (wide - narrow)))
    return tuple(steps) if src > dst else tuple(reversed(steps))


def _restride(x: int, src: int, dst: int, count: int) -> int:
    """``x``'s first ``count`` fields, ``src`` bits apart, moved to ``dst`` bits apart in order.

    Each field's value must fit in the narrower stride.  The steps come
    from a cache keyed by the strides and the count rounded up to a power
    of two, so a run of any length below 2**k shares one schedule.
    """
    if count < 2 or src == dst:
        return x
    steps = _restride_steps(src, dst, 1 << (count - 1).bit_length())
    if src > dst:
        for mask, shift in steps:
            moving = x & mask
            x ^= moving ^ (moving >> shift)
    else:
        for mask, shift in steps:
            moving = x & mask
            x ^= moving ^ (moving << shift)
    return x


def _pack_items(values, bits: int, lane: int) -> int:
    """Lane-pack ``values`` that each fit in one ``bits``-bit array item."""
    items = array(_ITEM_CODES[bits], values)
    if _BIG_ENDIAN:
        items.byteswap()
    return _restride(int.from_bytes(items, "little"), bits, lane, len(items))


def _pack(values: Sequence[int], lane: int) -> int:
    """Lane-pack ints in ``[0, 2**lane)``, the first value in lane 0.

    The values go into an array of the narrowest item that holds a lane,
    its bytes become one integer, and one cached re-stride
    (:func:`_restride`) moves every lane to its place.  A lane wider than
    any item (65 bits at width 32) packs a value of 2**64 or more as its
    low and high items apart.
    """
    if len(values) < 2:
        return values[0] if values else 0
    bits = _item_bits(lane)
    try:
        return _pack_items(values, bits, lane)
    except OverflowError:
        if lane <= bits:
            raise
    low = (1 << bits) - 1
    high = _pack_items([v >> bits for v in values], bits, lane)
    return _pack_items([v & low for v in values], bits, lane) | high << bits


def _unpack16(x: int, lane: int, count: int) -> list[int]:
    """The ``count`` lane values of ``x``, lane 0 first, each below 2**16: the inverse of :func:`_pack`.

    One re-stride moves the lanes 16 bits apart; the bytes then read back as an array.
    """
    items = array(_ITEM_CODES[16], _restride(x, lane, 16, count).to_bytes(2 * count, "little"))
    if _BIG_ENDIAN:
        items.byteswap()
    return items.tolist()


def _spread(flags: int, lay: _Layout) -> int:
    """Column mask of the lanes whose bit 0 is set in ``flags``."""
    return (flags << lay.cols) - flags


def _nonzero(x: int, lay: _Layout) -> int:
    """Bit 0 set in each lane of ``x`` that holds a nonzero value.

    Adding 2**cols - 1 carries into a lane's guard bit iff the lane is nonzero.
    """
    return ((x + lay.cmask) >> lay.cols) & lay.ones


def _lane(x: int, i: int, lay: _Layout) -> int:
    """The column bits of lane ``i`` of ``x``."""
    return (x >> i * lay.lane) & ((1 << lay.cols) - 1)


def _first_bad_lane(got: int, expected: int, lay: _Layout) -> int:
    """The lowest lane in which ``got`` and ``expected`` differ; they must differ somewhere."""
    bad = got ^ expected
    return ((bad & -bad).bit_length() - 1) // lay.lane


@dataclass(frozen=True, slots=True)
class Lanes:
    """Unsigned ``width``-bit magnitudes of a run of evaluations, packed once into ``layout``'s lanes as ``packed``.

    Every value must fit in ``width`` bits, as a :class:`Word`'s must; one that does not raises rather
    than spilling into a neighbouring lane.  The pack is the check: its array item, the narrowest that
    holds ``width`` bits, is never wider than a lane, so the array refuses a negative value or one past
    the item, and one AND finds any other bit from ``width`` up.
    """

    values: Sequence[int]
    width: int
    packed: int = field(init=False, repr=False, compare=False)
    layout: _Layout = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = check_operand_width(self.width)
        lay = _layout(2 * width, len(self.values))
        try:
            packed = _pack_items(self.values, _item_bits(width), lay.lane)
            fits = (packed & lay.ones * ((1 << width) - 1)) == packed
        except OverflowError:
            fits = False
        if not fits:
            bad = next(v for v in self.values if v < 0 or v >> width)
            raise ValueError(f"lane value {bad} does not fit in {width} bits")
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "layout", lay)


@dataclass(frozen=True, slots=True)
class PPLanes:
    """Folded PP rows of a run of evaluations, lane-packed in ``layout``.

    ``rows[r]`` holds row r's contribution to evaluation i in bits
    ``[i*layout.lane, i*layout.lane + layout.cols)``, the Booth correction
    row included.
    """

    rows: tuple[int, ...]
    layout: _Layout


@cache
def _popcount_steps(cols: int, count: int) -> tuple[tuple[int, int, int], ...]:
    """The ``(shift, low, high)`` steps of a per-lane popcount of ``count`` lanes' ``cols`` column bits.

    Step ``shift = f`` adds neighbouring f-bit counts into 2f-bit fields.  A
    field never reaches past column ``cols - 1``, so with the column count
    not a power of two the high half of the last field is cut short (or
    left out) rather than read from the guard bit and the next lane.
    """
    ones = ((1 << (cols + 1) * count) - 1) // ((1 << cols + 1) - 1)
    cells, steps, f = (1 << cols) - 1, [], 1
    while f < cols:
        # f ones then f zeros, from bit 0 up
        fields = ((1 << f) - 1) * (((1 << 2 * f * cols) - 1) // ((1 << 2 * f) - 1))
        steps.append((f, (fields & cells) * ones, (fields & cells >> f) * ones))
        f *= 2
    return tuple(steps)


def _popcount_masks(lay: _Layout) -> tuple[tuple[int, int, int], ...]:
    """:func:`_popcount_steps` for ``lay``, cached by its columns and its lane count rounded up to a power of two."""
    return _popcount_steps(lay.cols, 1 << (lay.count - 1).bit_length())


def _lane_popcount(x: int, steps: tuple[tuple[int, int, int], ...]) -> int:
    """Per lane, the set column bits of ``x``, which must hold column bits only."""
    for f, low, high in steps:
        x = (x & low) + ((x >> f) & high)
    return x


def _lane_sum(rows, lay: _Layout) -> int:
    """Per lane, the sum of ``rows`` modulo 2**cols."""
    total = 0
    for row in rows:
        total = (total + row) & lay.cmask
    return total


def _hybrid_routes(b: int, width: int, lay: _Layout) -> tuple[int, int, int, int]:
    """Per lane, the multiplier bits :func:`hybrid_int` hands its engines: ``(chain, chain_hi, booth, booth_hi)``.

    A lane holds 0 in each route it does not take; the high halves run at
    weight ``width // 2``.
    """
    steps = _popcount_masks(lay)

    def dense(count: int) -> int:  # the lanes with more set bits than the chain's three
        return _spread(((count + lay.cmask - 3 * lay.ones) >> lay.cols) & lay.ones, lay)

    count = _lane_popcount(b, steps)
    split = dense(count)
    if not split:
        return b, 0, 0, 0
    whole = b ^ (b & split)
    if width % 2:  # an odd width cannot split, so it runs Booth whole
        return whole, 0, b & split, 0
    half = width // 2
    low = split & lay.ones * ((1 << half) - 1)
    lo, hi = b & low, (b >> half) & low
    lo_count = _lane_popcount(lo, steps)
    lo_booth, hi_booth = dense(lo_count), dense(count - lo_count)
    return whole | (lo ^ (lo & lo_booth)), hi ^ (hi & hi_booth), lo & lo_booth, hi & hi_booth


def _conventional_rows(a: int, b: int, width: int, lay: _Layout) -> tuple[int, ...]:
    """Row r of the shift-and-add array: ``a << r`` in each lane whose multiplier bit r is set."""
    ones, cols = lay.ones, lay.cols
    rows = []
    for r in range(width):
        bit = (b >> r) & ones
        rows.append((a << r) & ((bit << cols) - bit) if bit else 0)
    return tuple(rows)


def _booth_rows(a: int, b: int, digits: int, width: int, lay: _Layout) -> tuple[int, ...]:
    """Booth rows of ``digits`` radix-4 digits of ``b`` times ``width``-bit ``a``, then the correction row.

    Digit k reads bits (2k+1, 2k, 2k-1) of ``b``, bit -1 zero; the top digit
    must read only zeros above ``b``'s top bit, so it is never negative.
    Negated rows enter as 2**(w+1) - |d|*M and owe 2**(w+1+2k) to the correction row.
    """
    ones, cols = lay.ones, lay.cols
    nonzero_a = _nonzero(a, lay)
    double_a = a << 1
    window = b << 1
    rows = []
    debt = 0
    for k in range(digits):
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


def _pp_rows(a: int, b: int, width: int, arch: Architecture, lay: _Layout) -> tuple[int, ...]:
    """The array's folded PP rows of every lane at once, for any architecture.

    ``a`` and ``b`` are the lane-packed multiplicands and multipliers, each lane's value already known
    to fit ``width`` bits.  Each lane's rows sum, modulo 2**cols, to its product.  A row's lane select is
    :func:`_spread` of a flag per lane, written out inline: this rule, the one seam of the count pass
    and the arrays, runs once per chunk and architecture.  The hybrid's row 0 is the product
    :func:`hybrid_int` builds, and its other rows are zero.
    """
    if arch is Architecture.CONVENTIONAL:
        return _conventional_rows(a, b, width, lay)
    if arch is Architecture.BOOTH:
        return _booth_rows(a, b, width // 2 + 1, width, lay)
    half = width // 2
    chain, chain_hi, booth, booth_hi = _hybrid_routes(b, width, lay)
    # the chain's terms M << (p - 1) are the conventional rows of its bits
    row = sum(_conventional_rows(a, chain | chain_hi << half, width, lay))
    if booth:
        row += _lane_sum(_booth_rows(a, booth, (width if width % 2 else half) // 2 + 1, width, lay), lay)
    if booth_hi:  # reduced before the shift, so no bit spills into the next lane
        row += _lane_sum(_booth_rows(a, booth_hi, half // 2 + 1, width, lay), lay) << half
    return (row,) + (0,) * (width - 1)


@cache
def _top_bit_counts(core, width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A lane core's ``(pp, adds, shifts)`` for a multiplier with the top bit clear, then set.

    The conventional and Booth counts depend on the width and the
    multiplier's top bit alone, so these two calls of the core count every pair.
    """
    return core(0, 0, width)[1:], core(0, 1 << (width - 1), width)[1:]


# -- the count pass ---------------------------------------------------------------


def _check_operands(pairs: Sequence[tuple[int, int]], width: int) -> None:
    """Raise the width error, else the decode error of the first bad pair, if any.

    The width is checked before any operand.  One pass over the magnitudes then clears a valid run; only
    a bad run is decoded pair by pair, so every caller, the array stream included, raises exactly the
    sign-magnitude decode's error for that pair.
    """
    check_operand_width(width)
    seen = 0
    for a, b in pairs:
        seen |= abs(a) | abs(b)
    if not seen >> width:
        return
    for a, b in pairs:
        to_sign_magnitude(a, width)
        to_sign_magnitude(b, width)


def _checked(a: int, b: int, magnitude: int, expected: int) -> None:
    """Raise :class:`ProductMismatchError` unless the core's ``magnitude``, signed, is ``expected = a * b``."""
    product = -magnitude if (a < 0) != (b < 0) else magnitude
    if product != expected:
        raise ProductMismatchError(a, b, product, expected)


class _CountPass:
    """The summed counts of one count pass for ``archs``, fed one chunk at a time."""

    __slots__ = ("archs", "width", "pairs", "top_set", "hybrid")

    def __init__(self, archs: Sequence[Architecture], width: int):
        self.archs, self.width = tuple(archs), width
        self.pairs = self.top_set = 0  # pairs seen, and multipliers with the top bit set
        self.hybrid = [0, 0, 0] if Architecture.HYBRID in self.archs else None

    def add(self, chunk, ma, mb, lay: _Layout | None, mplier: int, expected: int, rows: dict) -> None:
        """Check and count a chunk of signed pairs; ``rows`` holds its conventional and Booth rows in ``lay``.

        A wrong product raises for the chunk's first bad pair, then its first wrong architecture in ``archs``.
        """
        width, sums = self.width, {}
        bad = len(chunk)  # the first pair with a wrong lane product
        for arch, arch_rows in rows.items():
            total = _lane_sum(arch_rows, lay)
            if total != expected:
                bad = min(bad, _first_bad_lane(total, expected, lay))
            sums[arch] = total
        if rows:
            self.top_set += ((mplier >> (width - 1)) & lay.ones).bit_count()
        hybrid = self.hybrid
        if hybrid is not None:
            # two Words per pair, not plain ints: ``unsigned_product`` is the seam a
            # replacement core is patched in at, and such a core may read ``.bits``
            for (a, b), x, y in zip(chunk[:bad], ma, mb):
                magnitude, counts = unsigned_product(Word(x, width), Word(y, width), Architecture.HYBRID)
                _checked(a, b, magnitude, a * b)
                hybrid[0] += counts.pp_count
                hybrid[1] += counts.add_count
                hybrid[2] += counts.shift_count
        if bad < len(chunk):
            a, b = chunk[bad]
            for arch in self.archs:
                if arch is Architecture.HYBRID:
                    magnitude, _ = unsigned_product(Word(ma[bad], width), Word(mb[bad], width), arch)
                else:
                    magnitude = _lane(sums[arch], bad, lay)
                # the first wrong architecture of this pair raises
                _checked(a, b, magnitude, a * b)
        self.pairs += len(chunk)

    def records(self) -> tuple[OpCounts, ...]:
        """One summed record per architecture, in ``archs`` order."""
        records, clear, top = [], self.pairs - self.top_set, self.top_set
        for arch in self.archs:
            if arch is Architecture.HYBRID:
                records.append(OpCounts(*self.hybrid))
            else:
                low, high = _top_bit_counts(_INT_CORES[arch], self.width)
                records.append(OpCounts(*[clear * x + top * y for x, y in zip(low, high)]))
        return tuple(records)


def count_pairs(
    pairs: Sequence[tuple[int, int]], archs: Sequence[Architecture], width: int
) -> tuple[OpCounts, ...]:
    """Multiply every pair (b is the multiplier) on every architecture and sum the counts.

    Returns one record per architecture, in ``archs`` order.  The width, then the operands, are
    range-checked once for the whole pass; then each chunk of :data:`STREAM_CHUNK` pairs is decoded and
    packed once and checked and counted by :meth:`_CountPass.add`.
    """
    _check_operands(pairs, width)
    tally = _CountPass(archs, width)
    lane_archs = [arch for arch in tally.archs if arch is not Architecture.HYBRID]
    for start in range(0, len(pairs), STREAM_CHUNK):
        chunk = pairs[start : start + STREAM_CHUNK]
        ma = [abs(a) for a, _ in chunk]
        mb = [abs(b) for _, b in chunk]
        lay, mplier, expected, rows = None, 0, 0, {}
        if lane_archs:
            lay = _layout(2 * width, len(chunk))
            mcand, mplier = _pack(ma, lay.lane), _pack(mb, lay.lane)
            expected = _pack([x * y for x, y in zip(ma, mb)], lay.lane)
            rows = {arch: _pp_rows(mcand, mplier, width, arch, lay) for arch in lane_archs}
        tally.add(chunk, ma, mb, lay, mplier, expected, rows)
    return tally.records()


def multiply(a: int, b: int, arch: Architecture, width: int) -> MultiplyResult:
    """Multiply a * b (b is the multiplier) and report operation counts.

    The one-pair, one-architecture case of :func:`count_pairs`, so it raises
    what that raises: the error of a bad width, else of a bad operand, and
    :class:`ProductMismatchError` if the core's signed product is not
    ``a * b``.  The product it returns is that checked ``a * b``.
    """
    return MultiplyResult(a * b, *count_pairs(((a, b),), (arch,), width))
