"""Cell-level array multiplier model with freeze gating and toggle accounting.

The array is the classic unsigned reduction structure: partial-product rows feed a stack of
carry-save adder rows (one 3:2 compressor row per extra PP row) and a final ripple carry-propagate
adder resolves the sum/carry pair.  The whole array works modulo 2**(2*width), so two's-complement
patterns for negated rows (Booth) sum to the exact product.

Negated rows use the standard sign-extension-prevention construction: the row's field enters
inverted with the +1 folded in at the row's weight, and the -2**(field_top) terms of all negated
rows collapse into one shared correction row at the bottom of the array.  This keeps each row's live
bits inside its own field instead of smearing sign bits across every column.

Switching activity is the Hamming distance between consecutive values of a fixed node vector: every
PP row bit, every carry-save cell's a/b/cin/sum/cout, and every final-adder cell's
a/b/cin/sum/cout.  Control wiring (freeze lines, mux selects, the detector itself) is not counted.

Freezing: an all-zero PP row's adder row can be shut off, the incoming sum/carry busses bypass it
unchanged; final-adder columns whose two summand bits are both zero can likewise be skipped with the
incoming ripple carry forwarded to the product bit.  Frozen cells hold their previous node values, so
they contribute zero toggles; the arithmetic is untouched because a bypassed row/column would not
have changed the running total anyway.

Evaluation is zero-delay combinational: one value per node per evaluation, no glitch modeling.  A run
of evaluations is evaluated bit-parallel across columns and time (SWAR: Knuth, TAOCP 4A, 7.1.3):
evaluation ``i`` is lane ``i`` of a Python integer, ``2*width`` column bits plus a guard bit for the
final adder's carry-out, one integer per node class, whose toggles are
``popcount(x ^ (x << lane))``; a single evaluation is a run of one lane.  Under gating a frozen node
holds its last value, which a log-doubling fill-forward over the lanes reproduces (Chen & Chu, IEEE
TVLSI 15(7), 2007, for the freeze semantics).  Every adder, carry-save row or final adder, is one row
of the same full-adder cell over the run, with the carry bus or the ripple carries (one add for every
lane) as its carry-in.  Its state is its a, b and carry-in, whose sum and carry-out are its own, and
it takes one of two routes: live in every lane, four direct toggle terms; gated, one fill of its a, b
and carry-in.  So every row counts its a, b, carry-in and sum toggles as ``2 * (popcount(ta | tb |
tc) + popcount(ta & tb & tc))``: the sum toggles iff an odd number of its inputs do, so a cell with k
toggling inputs toggles those four nodes ``k + k % 2 = 2 * ceil(k / 2)`` times; the carry-out keeps
its own popcount.  One check matches a run's columns and rows to the array before any node moves,
and each lane value must fit the run's width, as a :class:`Word`'s bits must.

The lane PP rule set (:class:`ArrayGeometry`, :class:`Lanes`, :class:`PPLanes`, the row rule of all
three arrays) and the chunk reader live in :mod:`~hybridmul.encoding`.  :func:`simulate_configs` is
the array pass: its own loop over that reader's chunks drives every array configuration of a stream,
and counts their architectures if asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import NamedTuple

from . import encoding
from .bitnum import Word
from .encoding import (
    Architecture,
    ArrayGeometry,
    Lanes,
    PPLanes,
    OpCounts,
    PPMatrix,
    ProductMismatchError,  # noqa: F401  (re-exported: simulate_stream raises it)
    _BOOTH,
    _CONVENTIONAL,
    _Layout,
    _lane_popcount,
    _layout,
    _popcount_masks,
    _unpack16,
    booth_pp,
    booth_recode,
    conventional_pp,
    hybrid_pp,
)


class GeometryError(RuntimeError):
    """Partial-product matrix does not fit the array it was offered to.

    An internal model fault, not bad user input.
    """


# -- lanes ----------------------------------------------------------------------


def _lane_counts(xs, lay: _Layout, steps: tuple[tuple[int, int, int], ...]) -> list[int]:
    """Per lane, the set column bits of all of ``xs`` together, lane 0 first.

    Each lane's total must fit in 16 bits, and in its ``cols + 1``: a node
    group has at most one integer per array row, so a total is at most
    32 rows x 64 columns = 2048.
    """
    total = sum(_lane_popcount(x & lay.cmask, steps) for x in xs)
    return _unpack16(total, lay.lane, lay.count)


def _adder_row(a: int, b: int, cin: int, state: list[int], live: int, lay: _Layout) -> tuple[int, int, tuple[int, ...]]:
    """A row of full adders over a run: (sum, carry-out, toggled a/b/cin/sum/cout); cells outside ``live`` hold.

    ``state`` holds the row's a, b and carry-in after its last lane; its sum and carry-out are theirs.  A
    held bit takes the previous lane's value, or the state's in lane 0, by a log-doubling fill of a, b and
    carry-in (none when every lane is live): a fill copies one earlier bit per position for the whole row,
    so it commutes with the bitwise sum and carry, and the sum's toggles are its inputs' together.
    """
    s = a ^ b ^ cin
    cout = carry = (a & b) | (cin & (a ^ b))
    x, y, z = state
    lane, full, last, cmask = lay.lane, lay.full, lay.last, lay.cmask
    if live != cmask:
        # lane 0's held bits take the state's values, and a later lane's the lane before it
        hole = cmask ^ live
        a, b, cin = (a & live) | (x & hole), (b & live) | (y & hole), (cin & live) | (z & hole)
        hole ^= hole & ((1 << lay.cols) - 1)
        shift = lane
        while hole:
            a |= (a << shift) & hole
            b |= (b << shift) & hole
            cin |= (cin << shift) & hole
            hole &= hole << shift
            shift <<= 1
        carry = (a & b) | (cin & (a ^ b))
    ta, tb, tc = (a ^ ((a << lane) | x)) & full, (b ^ ((b << lane) | y)) & full, (cin ^ ((cin << lane) | z)) & full
    state[:] = a >> last, b >> last, cin >> last
    return s, cout, (ta, tb, tc, ta ^ tb ^ tc, (carry ^ ((carry << lane) | (x & y) | (z & (x ^ y)))) & full)


def _cell_toggles(toggled: tuple[int, ...]) -> int:
    """The toggles of an adder row: two popcounts for a, b, carry-in and sum, one for the carry-out."""
    ta, tb, tc, _, tcout = toggled
    return 2 * ((ta | tb | tc).bit_count() + (ta & tb & tc).bit_count()) + tcout.bit_count()


# -- freeze masks and toggle accounting -------------------------------------------


def _fold_rows(pp: PPMatrix, geometry: ArrayGeometry) -> list[int]:
    """Row contributions as 2**cols-modular integers, padded to the row count.

    For a Booth array the last row is reserved for the shared sign
    correction: each negated row enters as (~field + 1) << weight and owes
    -2**(field_width + weight), and those debts sum (mod 2**cols) into the
    correction row.  Other architectures never produce negated rows.
    """
    data_rows = geometry.rows - 1 if geometry.arch is _BOOTH else geometry.rows
    if len(pp) > data_rows:
        raise GeometryError(f"{len(pp)} PP rows offered to a {data_rows}-row array")
    span = 1 << geometry.cols
    contributions = []
    correction = 0
    for row in pp.rows:
        raw = row.bits.bits << row.weight
        if raw >= span:
            raise GeometryError(
                f"row value {row.bits.bits} at weight {row.weight} "
                f"exceeds {geometry.cols} columns"
            )
        if row.negate and row.bits.bits:
            if geometry.arch is not _BOOTH:
                raise GeometryError("negated rows require a booth array")
            field_width = row.bits.width
            inverted = (~row.bits.bits) & ((1 << field_width) - 1)
            contributions.append((inverted + 1) << row.weight)
            correction = (correction - (1 << (field_width + row.weight))) % span
        else:
            contributions.append(raw)
    contributions.extend([0] * (data_rows - len(pp)))
    if geometry.arch is _BOOTH:
        contributions.append(correction)
    return contributions


def _run_layout(pp: PPLanes, geometry: ArrayGeometry) -> _Layout:
    """The lane layout of ``pp``, which must have been built for ``geometry``'s rows and columns."""
    if pp.layout.cols != geometry.cols:
        raise GeometryError(f"a {pp.layout.cols}-column run offered to a {geometry.cols}-column array")
    if len(pp.rows) != geometry.rows:
        raise GeometryError(f"{len(pp.rows)} lane rows offered to a {geometry.rows}-row array")
    return pp.layout


def detect_freeze(pp: PPLanes, geometry: ArrayGeometry) -> tuple[int, ...]:
    """The row masks the detection logic asserts: a row freezes iff it contributes zero.

    Entry r is the column mask of the lanes in which row r is frozen: the whole
    column mask for a row that is zero in every lane.  The final adder's quiet
    columns are not listed: their detector reads the adder's own summand bits,
    so the array finds them in its pass.
    """
    lay = _run_layout(pp, geometry)
    ones, cols, cmask = lay.ones, lay.cols, lay.cmask
    # :func:`_spread` of the lanes not :func:`_nonzero`, written out: this runs once per row and chunk
    return tuple(((z := ones ^ (((x + cmask) >> cols) & ones)) << cols) - z if x else cmask for x in pp.rows)


class _LaneToggles(NamedTuple):
    """Toggled bits of one array run, lane-packed, kept to split it by evaluation."""

    layout: _Layout
    rows: tuple[int, ...]
    adders: list[tuple[int, ...]]  # a/b/cin/sum/cout per adder row, () for row 0, the final adder last
    row_frozen: tuple[int, ...]
    col_frozen: int


@dataclass(slots=True)
class ToggleReport:
    """Node transitions of one evaluation, one array run or a whole stream."""

    row_bit_toggles: tuple[int, ...]
    csa_toggles: tuple[int, ...]  # index r = cells of the adder row fed by PP row r; [0] is 0
    cpa_toggles: int
    frozen_cell_evaluations: int
    operations_simulated: int
    lanes: _LaneToggles | None = field(default=None, repr=False, compare=False)

    @property
    def total_toggles(self) -> int:
        return sum(self.row_bit_toggles) + sum(self.csa_toggles) + self.cpa_toggles

    @property
    def per_row_toggles(self) -> list[int]:
        """Toggles of PP row r and its adder row, for r = 0..R-1, then the final adder."""
        rows = [bits + cells for bits, cells in zip(self.row_bit_toggles, self.csa_toggles)]
        return rows + [self.cpa_toggles]

    def accumulate(self, run: "ToggleReport") -> None:
        """Add ``run``'s record, field by field; the sum is no one run's, so :meth:`split` refuses it."""
        if (len(self.row_bit_toggles), len(self.csa_toggles)) != (len(run.row_bit_toggles), len(run.csa_toggles)):
            raise ValueError("records of arrays with different row counts cannot be added")
        self.row_bit_toggles = tuple(map(add, self.row_bit_toggles, run.row_bit_toggles))
        self.csa_toggles = tuple(map(add, self.csa_toggles, run.csa_toggles))
        self.cpa_toggles += run.cpa_toggles
        self.frozen_cell_evaluations += run.frozen_cell_evaluations
        self.operations_simulated += run.operations_simulated
        self.lanes = None

    def split(self) -> list["ToggleReport"]:
        """One record per evaluation of the array run this record came from, in order."""
        if self.lanes is None:
            raise ValueError("only the record of one array run (from ArrayState.evaluate) can be split")
        lanes = self.lanes
        lay = lanes.layout
        steps = _popcount_masks(lay)
        rows = zip(*(_lane_counts((x,), lay, steps) for x in lanes.rows))
        *csa, cpa = (_lane_counts(xs, lay, steps) for xs in lanes.adders)
        csa = zip(*csa)
        frozen = _lane_counts(lanes.row_frozen[1:] + (lanes.col_frozen,), lay, steps)
        return [
            ToggleReport(r, c, p, z, operations_simulated=1) for r, c, p, z in zip(rows, csa, cpa, frozen)
        ]


# -- the array ---------------------------------------------------------------------


class ArrayState:
    """Node values of one array instance across a stream of evaluations.

    Single-owner and order-dependent: one stream drives one state.  The
    initial state is all zeros, matching a reset.  Each node class holds
    one integer of ``cols`` bits: the value after the latest evaluation.
    """

    def __init__(self, width: int, arch: Architecture):
        g = self.geometry = ArrayGeometry.create(width, arch)
        self._row_bits = [0] * g.rows
        # a, b, cin of each carry-save row, then of the final adder; a sum and carry-out are theirs
        self._adders = [[0] * 3 for _ in range(g.rows)]

    def evaluate(self, pp: PPLanes, gated: bool = False) -> tuple[int, ToggleReport]:
        """Evaluate the array on a run of lanes from :func:`build_pp`.

        Returns (products, run).  One carry-save pass and one carry-propagate add serve every lane,
        evaluated in order from the current state.  The products pack one
        product per lane; the run's record sums it and splits by evaluation.
        When ``gated``, the array's freeze detector (:func:`detect_freeze`)
        reads ``pp`` itself: frozen rows and the final adder's quiet columns
        keep their node values, and the products stay exact.
        """
        g = self.geometry
        rows, lay = pp.rows, _run_layout(pp, g)
        row_frozen = detect_freeze(pp, g) if gated else (0,) * len(rows)
        cmask, lane, full, last = lay.cmask, lay.lane, lay.full, lay.last
        held, adders = self._row_bits, self._adders
        row_x, row_counts = [0] * len(rows), [0] * len(rows)
        adder_x: list[tuple[int, ...]] = [()] * (len(rows) + 1)  # row 0 feeds no adder row; the final adder last
        csa = [0] * len(rows)
        s_bus, c_bus = rows[0], 0
        for r, x in enumerate(rows):
            old = held[r]
            if x or old:  # a zero row over a zero held value toggles nothing
                t = row_x[r] = (x ^ ((x << lane) | old)) & full
                row_counts[r] = t.bit_count()
                held[r] = x >> last
            live = cmask ^ row_frozen[r]
            if not r or not live:
                # row 0 only starts the sum bus; a row frozen in every lane is bypassed, its cells hold
                continue
            s, cout, toggled = _adder_row(s_bus, x, c_bus, adders[r - 1], live, lay)
            adder_x[r] = toggled
            csa[r] = _cell_toggles(toggled)
            if live == cmask:
                s_bus, c_bus = s, (cout << 1) & cmask
            else:
                s_bus ^= (s_bus ^ s) & live
                c_bus ^= (c_bus ^ (cout << 1)) & live

        # Final adder: its carry-ins are the ripple carries, which one add resolves for every lane.
        a, b = s_bus, c_bus
        col_frozen = cmask ^ (a | b) if gated else 0
        s, _, toggled = _adder_row(a, b, (a ^ b ^ (a + b)) & cmask, adders[-1], cmask ^ col_frozen, lay)
        adder_x[-1] = toggled
        frozen = sum(map(int.bit_count, row_frozen[1:])) + col_frozen.bit_count() if gated else 0
        return s, ToggleReport(
            row_bit_toggles=tuple(row_counts),
            csa_toggles=tuple(csa),
            cpa_toggles=_cell_toggles(toggled),
            frozen_cell_evaluations=frozen,
            operations_simulated=lay.count,
            lanes=_LaneToggles(lay, tuple(row_x), adder_x, row_frozen, col_frozen),
        )


def build_pp(multiplicand: Word | Lanes, multiplier: Word | Lanes, arch: Architecture) -> PPLanes:
    """Architecture-specific PP placement for the array, as a run of folded rows.

    Two :class:`Lanes` give the rows of the whole run; two :class:`Word` give
    a run of one, folded from the encoder's own PP matrix.  The two operands
    must have the same width.
    """
    if multiplicand.width != multiplier.width:
        raise ValueError(f"operand widths differ: {multiplicand.width} and {multiplier.width}")
    if isinstance(multiplicand, Lanes):
        count, other = len(multiplicand.values), len(multiplier.values)
        if count != other or not count:
            raise ValueError(f"operand lane counts must be equal and nonzero: {count} and {other}")
        # looked up in its module, so one replacement of the lane rule reaches the product rule and the arrays
        lay = multiplicand.layout
        return PPLanes(encoding._pp_rows(multiplicand.bits, multiplier.bits, multiplicand.width, arch, lay), lay)
    if arch is _CONVENTIONAL:
        matrix = conventional_pp(multiplicand, multiplier)
    elif arch is _BOOTH:
        matrix = booth_pp(multiplicand, booth_recode(multiplier))
    else:
        matrix = hybrid_pp(multiplicand, multiplier)
    geometry = ArrayGeometry.create(multiplicand.width, arch)
    return PPLanes(tuple(_fold_rows(matrix, geometry)), _layout(geometry.cols, 1))


def simulate_configs(
    pairs, width: int, configs, count: bool = False, trace=None
) -> tuple[dict[tuple[Architecture, bool], ToggleReport], tuple[OpCounts, ...]]:
    """Drive one array per ``(arch, gated)`` configuration through one pass over the pairs.

    Returns a :class:`ToggleReport` per distinct configuration, in first-seen order, and, when
    ``count``, what :func:`~hybridmul.encoding.count_pairs` returns for their architectures in
    first-seen order, else ``()``.  Per chunk of :func:`~hybridmul.encoding._read_chunks`, each
    architecture's rows are built once through :func:`build_pp`, and each array's products are checked
    against the chunk's ``|a * b|`` before its run is accumulated or traced.  An array checks its own
    products, so a count reads only the multipliers (:func:`~hybridmul.encoding._chunk_counts`).
    ``trace(config, index, record)`` is called chunk by chunk, in configuration order.  A run of no
    pairs raises ``ValueError``.
    """
    states = {config: ArrayState(width, config[0]) for config in configs}  # a repeat runs once
    zeros = {config: (0,) * state.geometry.rows for config, state in states.items()}
    reports = {config: ToggleReport(rows, rows, 0, 0, 0) for config, rows in zeros.items()}
    archs = list(dict.fromkeys(arch for arch, _ in states))
    totals, seen = None, 0
    for chunk, multiplicand, multiplier, expected in encoding._read_chunks(pairs, width):
        pps = {arch: build_pp(multiplicand, multiplier, arch) for arch in archs}
        for config, state in states.items():
            products, run = state.evaluate(pps[config[0]], config[1])
            if products != expected:
                raise encoding._mismatch(chunk, (products,), expected, multiplicand.layout)
            reports[config].accumulate(run)
            if trace is not None:
                for index, one in enumerate(run.split(), start=seen):
                    trace(config, index, one)
        if count:
            totals = encoding._summed(totals, [encoding._chunk_counts(multiplier, arch) for arch in archs])
        seen += len(chunk)
    if not seen:
        raise ValueError("input stream must not be empty")
    return reports, totals or ()


def simulate_stream(pairs, arch: Architecture, width: int, ssst_enabled: bool) -> ToggleReport:
    """Drive one array, gated when ``ssst_enabled``, through a stream: :func:`simulate_configs` for one configuration.

    A bad operand or a wrong product raises its error for the first bad pair.  A per-evaluation trace
    is :func:`simulate_configs`' ``trace``.
    """
    (report,) = simulate_configs(pairs, width, ((arch, ssst_enabled),))[0].values()
    return report
