"""Straight-line reference evaluator for the reduction array.

Independent check for the production array model: every cell is walked
column by column with explicit per-bit full adders, every node value is
snapshotted into a flat list, and toggle counts are plain element-wise
comparisons between consecutive snapshots.  No bit-parallel tricks, no
shared evaluation code.  Freezing is off unless ``ssst=True``: then an
all-zero row's adder cells are bypassed and hold their node values, and a
final-adder column whose two summand bits are both zero holds its nodes.

The row encoding (two's-complement fields plus the shared Booth correction
row) is part of the model definition, so it is restated here in loop form
rather than imported.
"""

from __future__ import annotations

from hybridmul.encoding import Architecture, PPMatrix


def _adder(a: int, b: int, cin: int) -> tuple[int, int]:
    total = a + b + cin
    return total & 1, total >> 1


class ReferenceArray:
    """Cell-by-cell array evaluator holding one node-value list."""

    def __init__(self, width: int, arch: Architecture, *, ssst: bool = False):
        self.width = width
        self.arch = arch
        self.ssst = ssst
        self.cols = 2 * width
        if arch is Architecture.BOOTH:
            self.rows = width // 2 + 2
        else:
            self.rows = width
        # node list: rows*cols row bits, then 5 per CSA cell, then 5 per CPA cell
        self.nodes = [0] * (self.rows * self.cols + (self.rows - 1) * 5 * self.cols + 5 * self.cols)
        # of the latest evaluation: toggles per PP row (its bits plus the adder
        # row it feeds), then the final adder; and the frozen cell count
        self.row_toggles: list[int] = []
        self.frozen_cells = 0

    def _encode_rows(self, pp: PPMatrix) -> list[list[int]]:
        """Per-row column bit lists, restating the row encoding by hand."""
        data_rows = self.rows - 1 if self.arch is Architecture.BOOTH else self.rows
        assert len(pp) <= data_rows
        grid = [[0] * self.cols for _ in range(self.rows)]
        correction = 0
        for r, row in enumerate(pp.rows):
            if row.negate and row.bits.bits:
                assert self.arch is Architecture.BOOTH
                inverted = (~row.bits.bits) & ((1 << row.bits.width) - 1)
                value = (inverted + 1) << row.weight
                correction -= 1 << (row.bits.width + row.weight)
            else:
                value = row.bits.bits << row.weight
            for c in range(self.cols):
                grid[r][c] = (value >> c) & 1
        if self.arch is Architecture.BOOTH:
            value = correction % (1 << self.cols)
            for c in range(self.cols):
                grid[self.rows - 1][c] = (value >> c) & 1
        return grid

    def evaluate(self, pp: PPMatrix) -> tuple[int, int]:
        """Evaluate once; returns (product, toggles vs last state)."""
        grid = self._encode_rows(pp)
        new_nodes: list[int] = []
        for row in grid:
            new_nodes.extend(row)

        frozen_cells = 0
        s_bus = list(grid[0])
        c_bus = [0] * self.cols
        for r in range(1, self.rows):
            if self.ssst and not any(grid[r]):
                start = len(new_nodes)
                new_nodes.extend(self.nodes[start : start + 5 * self.cols])
                frozen_cells += self.cols
                continue
            next_s = [0] * self.cols
            next_c = [0] * self.cols
            for c in range(self.cols):
                a, b, cin = s_bus[c], grid[r][c], c_bus[c]
                s, cout = _adder(a, b, cin)
                new_nodes.extend((a, b, cin, s, cout))
                next_s[c] = s
                if c + 1 < self.cols:
                    next_c[c + 1] = cout
            s_bus, c_bus = next_s, next_c

        carry = 0
        product = 0
        for c in range(self.cols):
            a, b = s_bus[c], c_bus[c]
            s, cout = _adder(a, b, carry)
            if self.ssst and not (a or b):
                start = len(new_nodes)
                new_nodes.extend(self.nodes[start : start + 5])
                frozen_cells += 1
            else:
                new_nodes.extend((a, b, carry, s, cout))
            product |= s << c
            carry = cout

        changed = [int(old != new) for old, new in zip(self.nodes, new_nodes)]
        bits_end = self.rows * self.cols
        cells = 5 * self.cols
        self.row_toggles = [
            sum(changed[r * self.cols : (r + 1) * self.cols])
            + (sum(changed[bits_end + (r - 1) * cells : bits_end + r * cells]) if r else 0)
            for r in range(self.rows)
        ]
        self.row_toggles.append(sum(changed[-cells:]))
        self.frozen_cells = frozen_cells
        toggles = sum(changed)
        self.nodes = new_nodes
        return product, toggles
