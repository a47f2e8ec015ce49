"""Multiplier encodings and the architecture dispatcher.

Three ways to turn (multiplicand, multiplier) into a product:

* conventional shift-and-add: one partial-product row per multiplier bit;
* radix-4 Booth recoding: one row per signed digit in {-2..+2};
* hybrid sparse encoding: multipliers with at most three set bits compile to
  a short shift/add chain (categories A-F keyed on popcount and the position
  of the lowest set bit), denser multipliers are split in half once and each
  half re-dispatched.

All encoders work on unsigned magnitudes.  One chunk reader, :func:`_read_chunks`, feeds two
passes, each its own loop: the count pass (:func:`count_pairs`, and so :func:`multiply`) and the
array pass (:func:`~hybridmul.datapath.simulate_configs`).  It reads chunks of :data:`STREAM_CHUNK`
pairs, each decoded once and packed one magnitude per lane of a Python integer (SWAR: Knuth, TAOCP
4A, 7.1.3), so the pack is every chunk's one range check.  Every product is checked once, where it
is made: by the array that runs it, or by the count's one product rule, :func:`unsigned_product`,
which gives a chunk's every ``|a * b|`` from the rows :func:`_pp_rows` builds, and its counts: closed
forms for conventional and Booth, popcounts of the hybrid's lane routes for the hybrid.  Every entry
point rejects a bad width, then an architecture that is not an :class:`Architecture` member, before
it decodes an operand.

The lane PP rule set (:class:`ArrayGeometry`, one shared :class:`_Layout` per shape, :class:`Lanes`,
:class:`PPLanes` and :func:`_pp_rows`, the row rule of the count and of all three arrays) lives here,
next to the encoders; :mod:`~hybridmul.datapath` imports it, and the count pass calls no array code.
:class:`Word` values appear only in the per-pair views, which carry no counts.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import astuple, dataclass, field
from functools import cache, lru_cache
from itertools import islice
from operator import add, mul
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


_CONVENTIONAL, _BOOTH, _HYBRID = Architecture  # plain globals: a read through the class runs EnumType's hook


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

    The shift/add chain produces a single partial product, so the reduction array sees one live row
    and (width - 1) all-zero rows that the freeze logic can shut off.  Row 0 is a one-lane
    :func:`unsigned_product`, at the full product width.
    """
    width, zero = multiplicand.width, Word(0, multiplicand.width)
    product, _ = unsigned_product(Lanes((multiplicand.bits,), width), Lanes((multiplier.bits,), width), _HYBRID)
    rows = (PPRow(Word(product, width + multiplier.width), weight=0),)
    return PPMatrix(rows + tuple(PPRow(zero, weight=k) for k in range(1, multiplier.width)))


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
    @cache  # frozen, so one geometry per shape serves every array and count
    def create(cls, width: int, arch: Architecture) -> "ArrayGeometry":
        check_operand_width(width)
        if not isinstance(arch, Architecture):
            raise ValueError(f"architecture must be an Architecture member, got {arch!r}")
        if arch is _BOOTH:
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
    """Lane-pack ``values`` that each fit in one ``bits``-bit item; ``bytes`` packs a byte faster than an array."""
    if len(values) == 1:
        return values[0]
    items = bytes(values) if bits == 8 else array(_ITEM_CODES[bits], values)
    if _BIG_ENDIAN and bits > 8:
        items.byteswap()
    return _restride(int.from_bytes(items, "little"), bits, lane, len(items))


def _pack(values: Sequence[int], lane: int) -> int:
    """Lane-pack ints in ``[0, 2**lane)``, the first value in lane 0.

    The values go into an array of the narrowest item that holds a lane,
    its bytes become one integer, and one cached re-stride
    (:func:`_restride`) moves every lane to its place.  A 65-bit lane (width
    32) takes 64-bit items, which hold every product of two width-32
    magnitudes; in a run of two or more, a value of 2**64 or more raises
    :class:`OverflowError`.  One value packs as itself.
    """
    return _pack_items(values, _item_bits(lane), lane)


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


@dataclass(slots=True, init=False)
class Lanes:
    """Unsigned ``width``-bit magnitudes of a run of evaluations, packed once into ``layout``'s lanes as ``bits``.

    Every value must fit in ``width`` bits, as a :class:`Word`'s must; one that does not raises rather
    than spilling into a neighbouring lane.  The pack is the check: its item, the narrowest that holds
    ``width`` bits, is never wider than a lane, so the item refuses a negative value or one past it,
    and one AND finds any other bit from ``width`` up.  Not frozen, as a frozen record's writes cost a
    one-pair :func:`multiply` a fifth of its time; nothing may write to one once built.
    """

    values: Sequence[int]
    width: int
    bits: int = field(repr=False, compare=False)
    layout: _Layout = field(repr=False, compare=False)

    def __init__(self, values: Sequence[int], width: int) -> None:
        check_operand_width(width)
        lay = _layout(2 * width, len(values))
        try:
            packed = _pack_items(values, _item_bits(width), lay.lane)
            fits = (packed & lay.ones * ((1 << width) - 1)) == packed
        except (OverflowError, ValueError):
            fits = False
        if not fits:
            bad = next(v for v in values if v < 0 or v >> width)
            raise ValueError(f"lane value {bad} does not fit in {width} bits")
        self.values, self.width, self.bits, self.layout = values, width, packed, lay


@dataclass(slots=True)
class PPLanes:
    """Folded PP rows of a run of evaluations, lane-packed in ``layout``.

    ``rows[r]`` holds row r's contribution to evaluation i in bits
    ``[i*layout.lane, i*layout.lane + layout.cols)``, the Booth correction
    row included.  Not frozen, as :class:`Lanes` is not: nothing may write to one.
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
    """Per lane, the sum of ``rows`` modulo 2**cols; a single lane has no neighbour to carry into, so it sums once."""
    total, cmask = 0, lay.cmask
    if lay.count == 1:
        return sum(rows) & cmask
    for row in rows:
        if row:
            total = (total + row) & cmask
    return total


def _booth_digits(n: int, top: int, w: int) -> int:
    """:func:`booth_recode`'s digits of ``n`` ``w``-bit multipliers, ``top`` of them with the top bit set."""
    return (n - top) * ((w + 1) // 2) + top * ((w + 2) // 2)


def _dense(count: int, lay: _Layout) -> int:
    """Column mask of the lanes whose ``count`` is more set bits than the chain's three."""
    return _spread(((count + lay.cmask - 3 * lay.ones) >> lay.cols) & lay.ones, lay)


@lru_cache(maxsize=1)
def _hybrid_routes(b: int, width: int, lay: _Layout) -> tuple[int, int, int, int]:
    """Per lane, the multiplier bits each of the hybrid's engines takes: ``(chain, chain_hi, booth, booth_hi)``.

    At most three set bits run the shift/add chain whole; a denser multiplier splits into halves, each
    run by the chain or, when dense, by Booth, and an odd width runs Booth whole.  A lane holds 0 in a
    route it does not take; the high halves run at weight ``width // 2``.  The last chunk's routes are
    kept, so the counts and the row rule of one chunk work them out once.
    """
    steps = _popcount_masks(lay) if lay.count > 1 else None  # one lane's popcount is the integer's own
    count = _lane_popcount(b, steps) if steps else b.bit_count()
    split = _dense(count, lay)
    if not split:
        return b, 0, 0, 0
    whole = b ^ (b & split)
    if width % 2:  # an odd width cannot split, so it runs Booth whole
        return whole, 0, b & split, 0
    half = width // 2
    low = split & lay.ones * ((1 << half) - 1)
    lo, hi = b & low, (b >> half) & low
    lo_count = _lane_popcount(lo, steps) if steps else lo.bit_count()
    lo_booth, hi_booth = _dense(lo_count, lay), _dense(count - lo_count, lay)
    return whole | (lo ^ (lo & lo_booth)), hi ^ (hi & hi_booth), lo & lo_booth, hi & hi_booth


def _hybrid_counts(b: int, width: int, lay: _Layout) -> tuple[int, int, int]:
    """The hybrid's ``(pp, adds, shifts)`` summed over the lanes of ``b``, from :func:`_hybrid_routes`.

    A chain leaf of c set bits makes 1 PP and c - 1 adds, and one shift more than adds when its bit 0
    is clear.  A Booth leaf of width w makes ``(w + top + 1) // 2`` PPs, ``top`` its top bit
    (:func:`_booth_digits`), and one add fewer.  A split lane adds one add to recombine its halves.  So
    a chunk's sums are popcounts of the routes and of their :func:`_nonzero` flags.
    """
    chain, chain_hi, booth, booth_hi = _hybrid_routes(b, width, lay)
    pp = adds = shifts = 0
    for leaf in (chain, chain_hi):
        if leaf:
            nonzero = _nonzero(leaf, lay)
            leaves = nonzero.bit_count()
            links = leaf.bit_count() - leaves
            pp += leaves
            adds += links
            shifts += links + (nonzero & ~leaf).bit_count()
    half = width // 2
    for leaf, w in ((booth, width if width % 2 else half), (booth_hi, half)):
        if leaf:
            leaves = _nonzero(leaf, lay).bit_count()
            digits = _booth_digits(leaves, ((leaf >> (w - 1)) & lay.ones).bit_count(), w)
            pp += digits
            adds += digits - leaves
    if not width % 2:  # every split lane holds a nonzero half in one of these routes
        adds += _nonzero(chain_hi | booth | booth_hi, lay).bit_count()
    return pp, adds, shifts


def _conventional_rows(a: int, b: int, width: int, lay: _Layout) -> tuple[int, ...]:
    """Row r of the shift-and-add array: ``a << r`` in each lane whose multiplier bit r is set."""
    ones, cols = lay.ones, lay.cols
    rows = []
    for r in range(width):
        bit = (b >> r) & ones
        rows.append((a << r) & ((bit << cols) - bit) if bit else 0)
    return tuple(rows)


def _booth_flags(a: int, b: int, lay: _Layout) -> tuple[int, int, int]:
    """The one, two and negate flags of every radix-4 digit of every lane of ``b``, digit k's at column 2k.

    Digit k reads bits (2k+1, 2k, 2k-1) of ``b``, bit -1 zero (MacSorley, Proc. IRE 49(1), 1961); a
    lane whose multiplicand ``a`` is zero negates no row (-0 is 0).
    """
    digit = lay.cmask // 3  # column 2k of every lane: cols is even
    b0, b1, b2 = (b << 1) & digit, b & digit, (b >> 1) & digit
    one = b0 ^ b1
    return one, (b2 ^ b1) & ~one, b2 & ~(b1 & b0) & _spread(_nonzero(a, lay), lay)


def _booth_rows(a: int, b: int, width: int, lay: _Layout) -> tuple[int, ...]:
    """Booth rows of every radix-4 digit of ``width``-bit ``b`` times ``a``, then the correction row.

    A ``width``-bit multiplier has ``width // 2 + 1`` digits, digit k at column 2k up to ``width``; the
    top one reads only zeros above ``b``'s top bit, so it is never negative.  :class:`ArrayGeometry`
    gives Booth these rows and the correction row.  The one, two and negate flags of every digit of
    every lane are three words (:func:`_booth_flags`), worked out once (SWAR across digits as across
    lanes); each row reads its flags with one shift.  A negated row enters as 2**(w+1) - |d|*M, that
    is |d|*M with its w+1 field bits flipped, plus one, and owes 2**(w+1+2k) to the correction row, so
    the debts of all rows together are the negate word shifted up by w+1.
    """
    ones, cols = lay.ones, lay.cols
    one_all, two_all, neg_all = _booth_flags(a, b, lay)
    double_a, field = a << 1, (1 << (width + 1)) - 1
    rows = []
    for k in range(0, width + 1, 2):
        one, two, neg = (one_all >> k) & ones, (two_all >> k) & ones, (neg_all >> k) & ones
        mag = (a & ((one << cols) - one)) | (double_a & ((two << cols) - two))
        rows.append(((mag ^ (neg * field)) + neg) << k)
    rows.append(((ones << cols) - (neg_all << (width + 1))) & lay.cmask)
    return tuple(rows)


def _pp_rows(a: int, b: int, width: int, arch: Architecture, lay: _Layout) -> tuple[int, ...]:
    """The array's folded PP rows of every lane at once, for any architecture.

    ``a`` and ``b`` are the lane-packed multiplicands and multipliers, each lane's value already known
    to fit ``width`` bits.  Each lane's rows sum, modulo 2**cols, to its product.  This rule, the one
    seam of the count pass and the arrays, runs once per chunk and architecture, so a row's lane select
    (:func:`_spread` of a flag per lane) is written out inline.  The hybrid's row 0 is its product and
    its other rows are zero: the chain's bits of both halves (:func:`_hybrid_routes`) as conventional
    rows, and the Booth routes' bits of both halves as one Booth row set, as Booth digits sum to the
    bits they recode.  One lane builds no row set: its row 0 is one multiply of ``a`` by the chain's
    bits plus the Booth digits' magnitudes, the negated ones subtracted, read from the row set's own
    flags, so the product is still checked against both the routes and the digits.
    """
    if arch is _CONVENTIONAL:
        return _conventional_rows(a, b, width, lay)
    if arch is _BOOTH:
        return _booth_rows(a, b, width, lay)
    half = width // 2
    chain, chain_hi, booth, booth_hi = _hybrid_routes(b, width, lay)
    chain |= chain_hi << half
    booth |= booth_hi << half
    if lay.count == 1:
        one, two, neg = _booth_flags(a, booth, lay)
        magnitudes, negated = one | two << 1, neg * 3  # a digit's negate flag covers both its bits
        row = a * (chain + (magnitudes & ~negated) - (magnitudes & negated))
    else:  # the chain's terms M << (p - 1) are the conventional rows of its bits
        row = sum(_conventional_rows(a, chain, width, lay)) if chain else 0
        if booth:
            row += _lane_sum(_booth_rows(a, booth, width, lay), lay)
    return (row,) + (0,) * (width - 1)


# -- the count pass ---------------------------------------------------------------


def _chunk_counts(multiplier: Lanes, arch: Architecture) -> OpCounts:
    """``arch``'s counts summed over the lanes of ``multiplier``, which alone they read.

    Conventional makes a row per multiplier bit, Booth one per digit (:func:`_booth_digits`), each one
    add fewer; the hybrid is counted from its lane routes (:func:`_hybrid_counts`).
    """
    b, width, lay, n = multiplier.bits, multiplier.width, multiplier.layout, len(multiplier.values)
    if arch is _CONVENTIONAL:
        return OpCounts(n * width, n * (width - 1), 0)
    if arch is _BOOTH:
        digits = _booth_digits(n, ((b >> (width - 1)) & lay.ones).bit_count(), width)
        return OpCounts(digits, digits - n, 0)
    return OpCounts(*_hybrid_counts(b, width, lay))


def unsigned_product(multiplicand: Lanes, multiplier: Lanes, arch: Architecture) -> tuple[int, OpCounts]:
    """The count's one product rule: every lane's ``|a * b|`` on ``arch``, lane-packed, and the lanes' summed counts.

    The products are the lane sums of the rows :func:`_pp_rows` builds, the rows the arrays run; the
    counts are :func:`_chunk_counts`.  The two runs share one width and one layout.
    """
    lay = multiplicand.layout
    rows = _pp_rows(multiplicand.bits, multiplier.bits, multiplicand.width, arch, lay)
    return _lane_sum(rows, lay), _chunk_counts(multiplier, arch)


def _mismatch(chunk, wrong: Sequence[int], expected: int, lay: _Layout) -> ProductMismatchError:
    """The error for the first pair of ``chunk`` whose lane of a product in ``wrong`` is not its ``|a * b|``.

    Each product differs from ``expected``, the packed ``|a * b|``; on a tie the first is named.  A lane
    is read with its guard bit, the last with every bit above it, so the value named is never ``|a * b|``.
    """
    last, firsts = len(chunk) - 1, []
    for got in wrong:
        bad = got ^ expected
        firsts.append(min(((bad & -bad).bit_length() - 1) // lay.lane, last))
    i = min(firsts)
    magnitude = wrong[firsts.index(i)] >> i * lay.lane
    if i < last:
        magnitude &= (1 << lay.lane) - 1
    a, b = chunk[i]
    return ProductMismatchError(a, b, -magnitude if (a < 0) != (b < 0) else magnitude, a * b)


def _read_chunks(pairs, width: int):
    """Yield ``(chunk, multiplicand, multiplier, expected)`` for every chunk of :data:`STREAM_CHUNK` pairs.

    The width is checked first, so an empty run raises the width error too.  Each chunk is decoded once
    into two :class:`Lanes`, whose pack is its one range check, and its every ``|a * b|`` is packed once.
    A chunk the pack refuses is decoded pair by pair, so its first bad pair raises the sign-magnitude
    decode's own error before a later chunk is read.  No pair's data is kept from one chunk to the next.
    """
    check_operand_width(width)
    stream = iter(pairs)
    for first in stream:
        chunk = [first, *islice(stream, STREAM_CHUNK - 1)]
        ma = [abs(a) for a, _ in chunk]
        mb = [abs(b) for _, b in chunk]
        try:
            multiplicand, multiplier = Lanes(ma, width), Lanes(mb, width)
        except ValueError:
            for a, b in chunk:  # raises the first bad pair's own error
                to_sign_magnitude(a, width)
                to_sign_magnitude(b, width)
            raise
        yield chunk, multiplicand, multiplier, _pack(list(map(mul, ma, mb)), multiplicand.layout.lane)


def _summed(totals, counts) -> tuple[OpCounts, ...]:
    """``counts`` added record by record to ``totals``; with no totals yet, a first chunk's records as it made them."""
    if totals is None:
        return tuple(counts)
    return tuple(OpCounts(*map(add, astuple(total), astuple(more))) for total, more in zip(totals, counts))


def count_pairs(pairs: Sequence[tuple[int, int]], archs: Sequence[Architecture], width: int) -> tuple[OpCounts, ...]:
    """Multiply every pair (b is the multiplier) on every architecture and sum the counts.

    Returns one record per architecture, in ``archs`` order.  The width, then each architecture, is
    checked before any pair is read.  Each chunk of :func:`_read_chunks` is one :func:`unsigned_product`
    call per architecture, checked against the chunk's packed ``|a * b|`` as one integer; a chunk's
    first bad pair is named with its first wrong architecture in ``archs`` order.  No array code runs.
    """
    for arch in archs:
        ArrayGeometry.create(width, arch)  # refuses a bad width, then anything but an Architecture
    totals = None
    for chunk, multiplicand, multiplier, expected in _read_chunks(pairs, width):
        wrong, counts = [], []
        for arch in archs:
            products, made = unsigned_product(multiplicand, multiplier, arch)
            if products != expected:
                wrong.append(products)
            counts.append(made)
        if wrong:
            raise _mismatch(chunk, wrong, expected, multiplicand.layout)
        totals = _summed(totals, counts)
    return totals or (OpCounts(0, 0, 0),) * len(archs)


def multiply(a: int, b: int, arch: Architecture, width: int) -> MultiplyResult:
    """Multiply a * b (b is the multiplier) and report operation counts.

    The one-pair, one-architecture call of :func:`count_pairs`, so it raises what that raises: the
    error of a bad width, else of a value that is not an :class:`Architecture`, else of a bad operand,
    and :class:`ProductMismatchError` if the core's signed product is not ``a * b``.  The product it
    returns is that checked ``a * b``.
    """
    return MultiplyResult(a * b, *count_pairs(((a, b),), (arch,), width))
