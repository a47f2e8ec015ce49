"""Multiplier encodings and the architecture dispatcher.

Three ways to turn (multiplicand, multiplier) into a product:

* conventional shift-and-add: one partial-product row per multiplier bit;
* radix-4 Booth recoding: one row per signed digit in {-2..+2};
* hybrid sparse encoding: multipliers with at most three set bits compile to
  a short shift/add chain (categories A-F keyed on popcount and the position
  of the lowest set bit), denser multipliers are split in half once and each
  half re-dispatched.

All encoders work on unsigned magnitudes.  One chunk loop, :func:`_chunk_pass`, serves the count
pass (:func:`count_pairs`, :func:`multiply`) and the array stream, whose step builds its own rows:
chunks of :data:`STREAM_CHUNK` pairs, each decoded once and packed one magnitude per lane of a Python
integer (SWAR: Knuth, TAOCP 4A, 7.1.3), in every pass, so the pack is every chunk's one range check.
Every product is checked once, where it is made: by the array that runs it, else by the count, which
sums a conventional or Booth lane's rows modulo 2**cols against the packed ``|a * b|`` and runs the
hybrid pair by pair through :func:`unsigned_product`, the seam its counts come from, on :class:`Word`
magnitudes from a per-width table up to :data:`_WORD_TABLE_WIDTH` (see there), else from each chunk.
Conventional and Booth counts are closed forms in the pair count and the multipliers' top bits; a
hybrid whose array runs is counted from its lane routes (:func:`_hybrid_counts`).  Every entry point
rejects a bad width, then an architecture that is not an :class:`Architecture` member, before it
decodes an operand.

The lane PP rule set (:class:`ArrayGeometry`, one shared :class:`_Layout` per shape, :class:`Lanes`,
whose pack is its range check, :class:`PPLanes` and :func:`_pp_rows`, the row rule of all three
arrays, whose Booth rows read each digit's flags from three words worked out once per chunk) lives
here, next to the encoders; :mod:`~hybridmul.datapath` imports it, and the count pass calls no array
code.  The hybrid's integer core, :func:`hybrid_int`, runs on plain ints and counts partial products,
additions and shifts; :func:`_hybrid_counts` sums the same counts over a chunk's lanes, and a
differential test holds the two equal.  :class:`Word` values appear only in the views, which carry no
counts, and at the hybrid's :func:`unsigned_product` seam.
"""

from __future__ import annotations

import enum
import sys
from array import array
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import islice
from operator import mul
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

    The shift/add chain produces a single partial product, so the reduction
    array sees one live row and (width - 1) all-zero rows that the freeze
    logic can shut off.  Row 0 carries the chain's result; its width is the
    full product width.
    """
    product, _ = unsigned_product(multiplicand, multiplier, _HYBRID)
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


# The hybrid's integer core and its leaves take the multiplicand, the multiplier's bits and its
# width as plain ints and return (product, pp_count, add_count, shift_count).  The counts are bit
# arithmetic on the multiplier alone; the product is built the way the encoder builds it, never by
# one native multiply.

IntCore = tuple[int, int, int, int]


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


# One immutable record per distinct (pp, adds, shifts): a core's counts depend
# on the multiplier's shape alone, so a run of pairs needs only a handful.
_shared_counts = cache(OpCounts)


def unsigned_product(multiplicand: Word, multiplier: Word, arch: Architecture) -> tuple[int, OpCounts]:
    """The hybrid's per-pair seam: :func:`hybrid_int` on two magnitudes; any other architecture raises ValueError."""
    if arch is not _HYBRID:
        raise ValueError(f"unsigned_product serves the hybrid only, not {arch}")
    product, pp, adds, shifts = hybrid_int(multiplicand.bits, multiplier.bits, multiplier.width)
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


def _lane(x: int, i: int, lay: _Layout) -> int:
    """The column bits of lane ``i`` of ``x``."""
    return (x >> i * lay.lane) & ((1 << lay.cols) - 1)


def _first_bad_lane(got: int, expected: int, lay: _Layout) -> int:
    """The lowest lane in which ``got`` and ``expected`` differ; they must differ somewhere."""
    bad = got ^ expected
    return ((bad & -bad).bit_length() - 1) // lay.lane


@dataclass(slots=True, init=False)
class Lanes:
    """Unsigned ``width``-bit magnitudes of a run of evaluations, packed once into ``layout``'s lanes as ``packed``.

    Every value must fit in ``width`` bits, as a :class:`Word`'s must; one that does not raises rather
    than spilling into a neighbouring lane.  The pack is the check: its item, the narrowest that holds
    ``width`` bits, is never wider than a lane, so the item refuses a negative value or one past it,
    and one AND finds any other bit from ``width`` up.  Not frozen, as a frozen record's writes cost a
    one-pair :func:`multiply` a fifth of its time; nothing may write to one once built.
    """

    values: Sequence[int]
    width: int
    packed: int = field(repr=False, compare=False)
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
        self.values, self.width, self.packed, self.layout = values, width, packed, lay


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
    """Per lane, the sum of ``rows`` modulo 2**cols."""
    total, cmask = 0, lay.cmask
    for row in rows:
        total = (total + row) & cmask
    return total


def _booth_digits(n: int, top: int, w: int) -> int:
    """:func:`booth_recode`'s digits of ``n`` ``w``-bit multipliers, ``top`` of them with the top bit set."""
    return (n - top) * ((w + 1) // 2) + top * ((w + 2) // 2)


@lru_cache(maxsize=1)
def _hybrid_routes(b: int, width: int, lay: _Layout) -> tuple[int, int, int, int]:
    """Per lane, the multiplier bits :func:`hybrid_int` hands its engines: ``(chain, chain_hi, booth, booth_hi)``.

    A lane holds 0 in each route it does not take; the high halves run at
    weight ``width // 2``.  The last chunk's routes are kept, so
    :func:`_hybrid_counts` works them out and the hybrid's row rule reads them.
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


def _hybrid_counts(b: int, width: int, lay: _Layout) -> tuple[int, int, int]:
    """:func:`hybrid_int`'s ``(pp, adds, shifts)`` summed over the lanes of ``b``, from :func:`_hybrid_routes`.

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


def _booth_rows(a: int, b: int, digits: int, width: int, lay: _Layout) -> tuple[int, ...]:
    """Booth rows of ``digits`` radix-4 digits of ``b`` times ``width``-bit ``a``, then the correction row.

    Digit k reads bits (2k+1, 2k, 2k-1) of ``b``, bit -1 zero (MacSorley, Proc. IRE 49(1), 1961); the
    top digit must read only zeros above ``b``'s top bit, so it is never negative.  The one, two and
    negate flags of every digit of every lane are three words, worked out once, that hold digit k's
    flag at column 2k of its lane (SWAR across digits as across lanes); each row reads its flags with
    one shift.  A negated row enters as 2**(w+1) - |d|*M, that is |d|*M with its w+1 field bits
    flipped, plus one, and owes 2**(w+1+2k) to the correction row, so the debts of all rows together
    are the negate word shifted up by w+1.
    """
    ones, cols = lay.ones, lay.cols
    digit = lay.cmask // 3  # column 2k of every lane: cols is even
    b0, b1, b2 = (b << 1) & digit, b & digit, (b >> 1) & digit
    nonzero_a = _nonzero(a, lay)
    one_all = b0 ^ b1
    two_all = (b2 ^ b1) & ~one_all
    neg_all = b2 & ~(b1 & b0) & ((nonzero_a << cols) - nonzero_a)
    double_a, field = a << 1, (1 << (width + 1)) - 1
    rows = []
    for k in range(0, 2 * digits, 2):
        one, two, neg = (one_all >> k) & ones, (two_all >> k) & ones, (neg_all >> k) & ones
        mag = (a & ((one << cols) - one)) | (double_a & ((two << cols) - two))
        rows.append(((mag ^ (neg * field)) + neg) << k)
    rows.append(((ones << cols) - (neg_all << (width + 1))) & lay.cmask)
    return tuple(rows)


def _pp_rows(a: int, b: int, width: int, arch: Architecture, lay: _Layout) -> tuple[int, ...]:
    """The array's folded PP rows of every lane at once, for any architecture.

    ``a`` and ``b`` are the lane-packed multiplicands and multipliers, each lane's value already known
    to fit ``width`` bits.  Each lane's rows sum, modulo 2**cols, to its product.  A row's lane select is
    :func:`_spread` of a flag per lane, written out inline: this rule, the one seam of the count pass
    and the arrays, runs once per chunk and architecture.  The hybrid's row 0 is the product
    :func:`hybrid_int` builds, and its other rows are zero.
    """
    if arch is _CONVENTIONAL:
        return _conventional_rows(a, b, width, lay)
    if arch is _BOOTH:
        return _booth_rows(a, b, width // 2 + 1, width, lay)
    half = width // 2
    chain, chain_hi, booth, booth_hi = _hybrid_routes(b, width, lay)
    # the chain's terms M << (p - 1) are the conventional rows of its bits
    row = sum(_conventional_rows(a, chain | chain_hi << half, width, lay)) if chain or chain_hi else 0
    if booth:
        row += _lane_sum(_booth_rows(a, booth, (width if width % 2 else half) // 2 + 1, width, lay), lay)
    if booth_hi:  # reduced before the shift, so no bit spills into the next lane
        row += _lane_sum(_booth_rows(a, booth_hi, half // 2 + 1, width, lay), lay) << half
    return (row,) + (0,) * (width - 1)


# -- the count pass ---------------------------------------------------------------

# Where the hybrid seam's Words come from.  Up to this width, one table per width of every
# magnitude (built on first use, kept for the process); above it, each chunk builds one Word per
# distinct magnitude and drops them with the chunk.  Once built, the table beat the per-chunk dict
# at every width measured (8 to 16), but building it costs 2**width Words once, whatever the run's
# length.  The bound caps that one-time cost (time and memory) at the 2 * STREAM_CHUNK Words one
# full chunk's dict can hold, so a short run, such as one `multiply`, never pays more than one
# chunk's worth.  It is a cost cap, not where the dict starts to win, which depends on the run's
# length.
_WORD_TABLE_WIDTH = (2 * STREAM_CHUNK).bit_length() - 1


@cache
def _word_table(width: int) -> tuple[Word, ...]:
    """Every ``width``-bit magnitude as a frozen :class:`Word`, at its own index."""
    return tuple(Word(value, width) for value in range(1 << width))


def _checked(a: int, b: int, magnitude: int) -> None:
    """Raise :class:`ProductMismatchError` unless the core's ``magnitude``, signed, is ``a * b``."""
    product = -magnitude if (a < 0) != (b < 0) else magnitude
    if product != a * b:
        raise ProductMismatchError(a, b, product, a * b)


def _chunk_pass(pairs, width: int, count: Sequence[Architecture], archs=(), step=None) -> tuple[OpCounts, ...]:
    """The one chunk loop of the count pass and the arrays; returns ``count``'s summed counts, in its order.

    The loop checks and counts; the arrays' step builds its rows and runs.  Each chunk of
    :data:`STREAM_CHUNK` pairs is decoded once and packed once, in every pass, into two :class:`Lanes`
    and, when a lane check or an array reads it, a packed ``|a * b|``.  When ``archs`` is not empty,
    ``step(start, multiplicand, multiplier)`` builds each of its architectures' rows from the chunk's
    :class:`Lanes`, runs the arrays and yields each array's packed products; a pass with a step must
    not be empty.

    Every product is checked once, where it is made.  A counted architecture in ``archs`` is checked
    by its array alone.  The count checks the counted architectures that no array runs: conventional
    and Booth by the lane sums of the rows :func:`_pp_rows` builds here, the hybrid pair by pair
    through :func:`unsigned_product`, in pair order, on one shared :class:`Word` per magnitude (from
    :func:`_word_table` or the chunk; see :data:`_WORD_TABLE_WIDTH`).  The conventional and Booth
    counts are closed forms in the pair count and, for Booth, the number of multipliers with the top
    bit set; a hybrid whose array runs is counted by :func:`_hybrid_counts`, whose routes the
    hybrid's row rule then reads.

    The error order: the width, then each counted architecture, is checked first.  Then, chunk by
    chunk, the chunk's operands are range-checked as it is read, by its :class:`Lanes`; a chunk they
    refuse is decoded pair by pair, so the first bad pair raises the sign-magnitude decode's own
    error.  The count's checks raise for the first bad pair and its first wrong architecture in
    ``count`` order, then each product ``step`` yields is checked as it comes, so the first wrong
    array raises.  So an earlier chunk's error comes before a later chunk's.
    """
    check_operand_width(width)
    for arch in count:
        ArrayGeometry.create(width, arch)  # refuses anything but an Architecture
    checks = [arch for arch in count if arch not in archs]
    lane_checks = [arch for arch in checks if arch is not _HYBRID]
    hybrid_pps = hybrid_adds = hybrid_shifts = 0
    seen = top_set = 0  # pairs, and multipliers with the top bit set (Booth's count reads it)
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
        lay = multiplicand.layout
        expected = _pack(list(map(mul, ma, mb)), lay.lane) if lane_checks or archs else None
        if _BOOTH in count:
            top_set += ((multiplier.packed >> (width - 1)) & lay.ones).bit_count()
        sums = {arch: _lane_sum(_pp_rows(multiplicand.packed, multiplier.packed, width, arch, lay), lay)
                for arch in lane_checks}
        bad = len(chunk)  # the first pair with a wrong lane product
        for total in sums.values():
            if total != expected:
                bad = min(bad, _first_bad_lane(total, expected, lay))
        if _HYBRID in checks:
            # Words, not plain ints: ``unsigned_product`` is the seam a replacement core is patched
            # in at, and such a core may read ``.bits``; see _WORD_TABLE_WIDTH for where they come from
            words = (_word_table(width) if width <= _WORD_TABLE_WIDTH
                     else {value: Word(value, width) for value in {*ma, *mb}})
            for (a, b), x, y in zip(chunk[:bad], ma, mb):
                magnitude, counts = unsigned_product(words[x], words[y], _HYBRID)
                if magnitude != x * y:
                    _checked(a, b, magnitude)  # the signed product is not a * b, so this raises
                hybrid_pps += counts.pp_count
                hybrid_adds += counts.add_count
                hybrid_shifts += counts.shift_count
        elif _HYBRID in count:  # this chunk's routes, which the hybrid's row rule reads in the step
            pp, adds, shifts = _hybrid_counts(multiplier.packed, width, lay)
            hybrid_pps, hybrid_adds, hybrid_shifts = hybrid_pps + pp, hybrid_adds + adds, hybrid_shifts + shifts
        if bad < len(chunk):
            for arch in checks:  # the first wrong architecture of this pair raises
                if arch is _HYBRID:
                    magnitude, _ = unsigned_product(words[ma[bad]], words[mb[bad]], arch)
                else:
                    magnitude = _lane(sums[arch], bad, lay)
                _checked(*chunk[bad], magnitude)
        if archs:
            for products in step(seen, multiplicand, multiplier):
                if products != expected:
                    i = _first_bad_lane(products, expected, lay)
                    _checked(*chunk[i], _lane(products, i, lay))  # lane i is not |a * b|, so this raises
        seen += len(chunk)
    if step is not None and not seen:
        raise ValueError("input stream must not be empty")
    digits = _booth_digits(seen, top_set, width)  # conventional: a row per multiplier bit; Booth: per digit
    counts = {_CONVENTIONAL: (seen * width, seen * (width - 1), 0), _BOOTH: (digits, digits - seen, 0),
              _HYBRID: (hybrid_pps, hybrid_adds, hybrid_shifts)}
    return tuple(OpCounts(*counts[arch]) for arch in count)


def count_pairs(
    pairs: Sequence[tuple[int, int]], archs: Sequence[Architecture], width: int
) -> tuple[OpCounts, ...]:
    """Multiply every pair (b is the multiplier) on every architecture and sum the counts.

    Returns one record per architecture, in ``archs`` order: :func:`_chunk_pass` with no array step,
    so it calls no array code.  Every chunk packs its :class:`Lanes`, the hybrid alone included.
    """
    return _chunk_pass(pairs, width, archs)


def multiply(a: int, b: int, arch: Architecture, width: int) -> MultiplyResult:
    """Multiply a * b (b is the multiplier) and report operation counts.

    The one-pair, one-architecture case of :func:`count_pairs`, through the
    same loop, so it raises what that raises: the error of a bad width, else
    of a bad operand, and :class:`ProductMismatchError` if the core's signed
    product is not ``a * b``.  The product it returns is that checked ``a * b``.
    """
    return MultiplyResult(a * b, *_chunk_pass(((a, b),), width, (arch,)))
