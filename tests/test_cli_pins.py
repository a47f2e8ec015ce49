"""The CLI pin table (``tests/cli_pins.py``), run in process, and its checker refusing what it must."""

from dataclasses import replace

import pytest

from cli_pins import PINS, Outcome, check, in_process, ok, refused, run


@pytest.mark.parametrize("pin", PINS, ids=[pin.id for pin in PINS])
def test_pin(pin, tmp_path):
    run(pin, str(tmp_path), in_process)


PRINTS = ok("prints", "compare", "^a,", "^b,")
PRINTED = Outcome(0, "arch\na,1\nb,2\n", "", {})
REFUSES = refused("refuses", "compare --out {d}/old.json", "error: bad {d}", {"old.json": b"kept\n"})
KEPT = Outcome(2, "", "error: bad /case\n", {"old.json": b"kept\n"})


def test_check_passes_sound_outcomes():
    check(PRINTS, PRINTED, "/case")
    check(REFUSES, KEPT, "/case")


@pytest.mark.parametrize(
    "pin, got",
    [
        (PRINTS, replace(PRINTED, code=2)),
        (PRINTS, replace(PRINTED, err="warning\n")),
        (PRINTS, replace(PRINTED, out="arch\na,1\n")),
        (PRINTS, replace(PRINTED, out="arch\nb,2\na,1\n")),
        (PRINTS, replace(PRINTED, out="arch\n a,1\nb,2\n")),
        (REFUSES, replace(KEPT, code=0)),
        (REFUSES, replace(KEPT, out="a,1\n")),
        (REFUSES, replace(KEPT, err="error: bad /case\nerror: again\n")),
        (REFUSES, replace(KEPT, err="error: bad /case")),
        (REFUSES, replace(KEPT, err="error: bad {d}\n")),
        (REFUSES, replace(KEPT, files={**KEPT.files, "new.txt": b""})),
        (REFUSES, replace(KEPT, files={**KEPT.files, "missing": None})),
        (REFUSES, replace(KEPT, files={"old.json": b""})),
        (REFUSES, replace(KEPT, files={})),
    ],
    ids=[
        "wrong-exit", "stderr-on-exit-0", "row-missing", "rows-out-of-order", "row-not-at-line-start",
        "exit-0-for-exit-2", "stdout-on-exit-2", "second-stderr-line", "no-newline", "placeholder-kept",
        "file-created", "folder-created", "file-changed", "file-removed",
    ],
)
def test_check_refuses(pin, got):
    with pytest.raises(AssertionError):
        check(pin, got, "/case")
