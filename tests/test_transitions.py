"""Every transition of the ungated width-4 array, against the reference, through one de Bruijn stream.

With ungated zero-delay switching an evaluation's toggles depend only on the pair before it and its own.
Width 4 has 256 magnitude pairs, and a de Bruijn sequence B(256, 2), closed with its first symbol, is a
stream of 65537 pairs that holds every ordered pair of them exactly once.  The reference evaluates each
pair once; a transition's toggles are then the Hamming distance between two node snapshots, split by
row as the reference splits them.  So comparing the array's record of every evaluation with
that split covers the whole input space of the ungated model at width 4, chunk boundaries included.

``python tests/transitions_long.py`` runs the longer streams: width 5 ungated, and width 4 gated.
"""

from collections import Counter
from functools import cache
from itertools import chain
from operator import add
from typing import Iterator

import pytest

from reference_array import ReferenceArray
from test_datapath import REFERENCE_PP

import hybridmul.encoding as encoding
from hybridmul.bitnum import Word
from hybridmul.datapath import simulate_configs
from hybridmul.encoding import Architecture


def de_bruijn(k: int, n: int) -> Iterator[int]:
    """The de Bruijn sequence B(k, n): read cyclically, it holds every length-n word over range(k) once.

    It is the Lyndon words over range(k) whose length divides n, in lexicographic order, concatenated
    (Fredricksen-Kessler-Maiorana; Knuth, TAOCP 4A, 7.2.1.1).  The words come from Duval's successor
    rule: raise the last letter, repeat the word out to length n, drop trailing letters k - 1.
    """
    word = [-1]
    while word:
        word[-1] += 1
        size = len(word)
        if n % size == 0:
            yield from word
        while len(word) < n:
            word.append(word[-size])
        while word and word[-1] == k - 1:
            word.pop()


def transition_stream(width: int) -> Iterator[tuple[int, int]]:
    """Every ordered pair of ``width``-bit magnitude pairs once: B(4**width, 2), closed with its first pair."""
    symbols = de_bruijn(1 << 2 * width, 2)
    first = next(symbols)
    for symbol in chain((first,), symbols, (first,)):
        yield divmod(symbol, 1 << width)


@cache
def reference_snapshots(width: int, arch: Architecture) -> dict[tuple[int, int], tuple[int, ...]]:
    """Each magnitude pair's node values after an ungated reference evaluation, one integer per toggle group.

    The groups are those of ``ReferenceArray.row_toggles``: PP row r's bits with the cells of the adder row
    it feeds, then the final adder.  Every snapshot is taken in one run over the pairs, and each evaluation's
    toggles must be the distance from the snapshot before, so the split is the reference's own.
    """
    reference = ReferenceArray(width, arch)
    cols, cells = reference.cols, 5 * reference.cols
    adders = reference.rows * cols  # the row bits come first, then each adder row's cells; row 0 feeds none
    spans = [
        ((r * cols, (r + 1) * cols), (adders + max(r - 1, 0) * cells, adders + r * cells)) for r in range(reference.rows)
    ]
    spans.append(((len(reference.nodes) - cells, len(reference.nodes)),))
    snapshots, last = {}, (0,) * len(spans)
    for a in range(1 << width):
        for b in range(1 << width):
            product, toggles = reference.evaluate(REFERENCE_PP[arch](Word(a, width), Word(b, width)))
            assert product == a * b
            nodes = reference.nodes
            now = tuple(int("".join(str(nodes[i]) for lo, hi in group for i in range(lo, hi)), 2) for group in spans)
            assert [(x ^ y).bit_count() for x, y in zip(last, now)] == reference.row_toggles
            assert sum(reference.row_toggles) == toggles
            snapshots[a, b] = last = now
    return snapshots


def ungated_reference(pairs, width: int, arch: Architecture):
    """Per evaluation of ``pairs`` from reset: (total toggles, per-row toggles, frozen cells), from snapshots."""
    snapshots = reference_snapshots(width, arch)
    last = (0,) * len(snapshots[0, 0])
    for pair in pairs:
        now = snapshots[pair]
        rows = [(x ^ y).bit_count() for x, y in zip(last, now)]
        yield sum(rows), rows, 0
        last = now


def mismatches(pairs, width: int, arch: Architecture, gated: bool, expected) -> list:
    """The evaluations whose ``simulate_configs`` record differs from ``expected``'s, which yields one per pair.

    Both are compared as they come, so a stream of any length needs no list of records.  An evaluation's
    record is split from its run's lanes; the stream's summed record comes from each run's own counts, so
    it is compared too, with the sum of ``expected``, and listed as ``"stream"`` when it differs.
    """
    want, bad = iter(expected), []
    total, rows, frozen = 0, (), 0

    def check(config, index, record):
        nonlocal total, rows, frozen
        one = next(want, None)
        if (record.total_toggles, record.per_row_toggles, record.frozen_cell_evaluations) != one:
            bad.append(index)
        else:
            total, rows, frozen = total + one[0], list(map(add, rows, one[1])) if rows else one[1], frozen + one[2]

    (report,) = simulate_configs(pairs, width, [(arch, gated)], trace=check)[0].values()
    assert next(want, None) is None, "the stream made fewer evaluations than it has pairs"
    summed = (report.total_toggles, report.per_row_toggles, report.frozen_cell_evaluations)
    if not bad and summed != (total, rows, frozen):
        bad.append("stream")
    return bad


@pytest.fixture(scope="module")
def stream4():
    return list(transition_stream(4))


class TestDeBruijn:
    @pytest.mark.parametrize("k, n", [(2, 1), (2, 3), (3, 2), (4, 3), (5, 4)])
    def test_every_word_appears_once(self, k, n):
        sequence = list(de_bruijn(k, n))
        cyclic = sequence + sequence[: n - 1]
        words = Counter(tuple(cyclic[i : i + n]) for i in range(len(sequence)))
        assert len(sequence) == k**n
        assert len(words) == k**n and set(words.values()) == {1}

    def test_the_width4_stream_holds_every_ordered_pair_once(self, stream4):
        assert len(stream4) == 65537
        assert stream4[0] == stream4[-1]
        transitions = Counter(zip(stream4, stream4[1:]))
        assert len(transitions) == 256 * 256 and set(transitions.values()) == {1}


@pytest.mark.parametrize("arch", list(Architecture))
class TestEveryTransition:
    def test_ungated_width4_stream_matches_reference(self, arch, stream4):
        bad = mismatches(stream4, 4, arch, False, ungated_reference(stream4, 4, arch))
        assert not bad, f"{len(bad)} evaluations differ, the first at {bad[:5]}"

    def test_ungated_width4_prefix_in_chunks_of_7(self, arch, stream4, monkeypatch):
        """Chunks of 7: lane 0 and a chunk boundary see a transition every seventh evaluation."""
        monkeypatch.setattr(encoding, "STREAM_CHUNK", 7)
        prefix = stream4[: 7 * 300 + 3]
        bad = mismatches(prefix, 4, arch, False, ungated_reference(prefix, 4, arch))
        assert not bad, f"{len(bad)} evaluations differ, the first at {bad[:5]}"
