"""The transition streams too long for Tier-1: width 5 ungated, and width 4 gated, for every architecture.

Width 5 ungated is the de Bruijn stream of tests/test_transitions.py one width up: 1,048,577 pairs, every
ordered pair of the 1024 magnitude pairs once, against per-pair reference snapshots.  Width 4 gated is the
65537-pair width-4 stream against ``ReferenceArray(ssst=True)`` run in sequence.  Gated switching depends on
history, so the gated stream is a fixed, strong test and not a proof.

Run as ``python tests/transitions_long.py`` with hybridmul importable; it prints one line per stream and
exits 1 if any evaluation differs.
"""

import sys
import time

from reference_array import ReferenceArray
from test_datapath import REFERENCE_PP
from test_transitions import mismatches, transition_stream, ungated_reference

from hybridmul.bitnum import Word
from hybridmul.encoding import Architecture


def gated_reference(pairs, width: int, arch: Architecture):
    """Per evaluation of ``pairs`` from reset: (total toggles, per-row toggles, frozen cells), gated, in sequence."""
    reference = ReferenceArray(width, arch, ssst=True)
    for a, b in pairs:
        product, toggles = reference.evaluate(REFERENCE_PP[arch](Word(a, width), Word(b, width)))
        assert product == a * b
        yield toggles, reference.row_toggles, reference.frozen_cells


def main() -> int:
    if not __debug__:
        sys.exit("the reference's checks are asserts, which python -O drops: run this without -O")
    failed = 0
    for width, gated, reference in ((5, False, ungated_reference), (4, True, gated_reference)):
        for arch in Architecture:
            start = time.perf_counter()
            expected = reference(transition_stream(width), width, arch)
            bad = mismatches(transition_stream(width), width, arch, gated, expected)
            label = f"width {width} {'gated' if gated else 'ungated'} {arch.value}"
            if bad:
                failed += 1
                print(f"FAIL {label}: {len(bad)} evaluations differ, the first at {bad[:5]}")
            else:
                print(f"ok   {label} ({time.perf_counter() - start:.1f} s)")
    print(f"{6 - failed} of 6 transition streams match the reference")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
