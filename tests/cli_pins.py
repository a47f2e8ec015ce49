"""Every pinned CLI run and every bad-input case, in one table, and the one check they all pass.

A row is an argv, the files to write first into the case's own empty folder (``{d}`` in an argv or an error
line stands for it), the exit status and the expected text.  Exit 0: regexes that must match stdout in the
order given, each searched from the end of the last match, ``^`` at a line start; stderr is empty.  Exit 2:
the one ``error: ...`` line stderr must hold; stdout is empty and the folder keeps the same files and bytes.

Tier-1 runs every row in process (tests/test_cli_pins.py); ``python tests/cli_pins.py`` runs every row
through the installed ``hybridmul`` command.
"""

import io
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

SECONDS = 5  # a bound on each installed run: a refused run fails fast, and the largest pinned run takes under one


@dataclass(frozen=True)
class Pin:
    id: str
    argv: tuple[str, ...]
    code: int
    expect: tuple[str, ...]
    files: dict[str, bytes]


@dataclass(frozen=True)
class Outcome:
    code: int
    out: str
    err: str
    files: dict[str, bytes | None]  # the case folder afterwards; a folder in it maps to None


def ok(id: str, command: str, *patterns: str, files: dict[str, bytes] | None = None) -> Pin:
    return Pin(id, tuple(shlex.split(command)), 0, patterns, files or {})


def refused(id: str, command: str, line: str, files: dict[str, bytes] | None = None) -> Pin:
    return Pin(id, tuple(shlex.split(command)), 2, (line,), files or {})


UNIFORM, SPARSE = "--inputs random:1000 --seed 42", "--inputs random:1000 --dist sparse3 --seed 42"
WIDE = "--inputs random:600 --width %d --seed 5"
KEPT, BAD, PAIRS = {"old.json": b'{"kept": true}\n'}, {"bad.txt": b"horse 34\n"}, {"pairs.txt": b"65 34\n"}
HORSE = "error: {d}/bad.txt:1: non-integer field in 'horse 34'"
WIDTH40 = "error: operand width must be in [4, 32], got 40"
GRID = (
    "is not on the calibration grid (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4);"
    " pass --interpolate (interpolate=True) to estimate between points"
)
NOT_UTF8 = "error: {d}/latin.txt: not UTF-8 text (invalid start byte at byte 0)"

PINS = (
    # every subcommand and output path runs
    ok("trace", "trace 65 34", r"D \(i=2, j=4\)", "2210"),
    ok("trace-split", "trace 65 241"),
    ok("trace-split-width5", "trace 17 31 --width 5"),
    ok("compare-json", "compare --inputs random:50 --toggles --ssst --format json"),
    ok("stream-trace-file", "stream --inputs random:50 --ssst --trace-toggles {d}/toggles.csv"),
    ok("stream-trace-devnull", "stream --inputs random:50 --ssst --trace-toggles /dev/null"),
    ok("table2", "table2", r"122\.500", r"0\.595", "^note:"),
    ok("table2-csv", "table2 --format csv"),
    ok("compare-interpolate", "compare --inputs random:50 --vdd 1.1 --interpolate --format csv"),
    ok("table2-model", "table2 --model {d}/m.cfg", files={"m.cfg": b"1.0 12.08 0.734\n1.2 17.50 0.595\n"}),
    ok("table2-unit-model", "table2 --model {d}/m.cfg", r"7\.000", files={"m.cfg": b"1.0 1.0 1.0\n"}),
    ok("stream-file", "stream --inputs file:{d}/pairs.txt --arch conventional", "^conventional +52 ", files=PAIRS),
    # one count pass serves every architecture asked for, and its rows come out in the order asked
    ok("arch-order", "compare --inputs random:50 --arch hybrid --arch conventional --format csv",
       r"\A.*\nhybrid,.*\nconventional,.*\n\Z"),
    # every width-8 pair: 65536 pairs, 256 chunks of lanes
    ok("exhaustive-w8", "compare --inputs exhaustive --width 8 --format csv",
       "^booth,65536,294912,229376,", "^conventional,65536,524288,458752,", "^hybrid,65536,122880,189184,"),
    # the seed-42 sparse3 stream, plain and gated; gated conventional and Booth run four chunks through gated rows
    ok("stream-sparse3", f"stream {SPARSE}", "^booth +111685 ", "^conventional +94226 ", "^hybrid +99008 ",
       r"^toggle reduction hybrid vs conventional: -5\.08% \(reference claim: 86%\)$",
       r"^toggle reduction hybrid vs booth: 11\.35% \(reference claim: 46%\)$"),
    ok("stream-sparse3-gated", f"stream {SPARSE} --ssst", "^booth +65016 ", "^conventional +36760 ", "^hybrid +5856 "),
    # uniform width-32 multipliers split into halves and dense ones run Booth at half width; width 31 runs Booth whole
    ok("stream-w32", f"stream {WIDE % 32}", "^booth +1144564 ", "^conventional +1760765 ", "^hybrid +1217515 "),
    ok("stream-w31-gated", f"stream {WIDE % 31} --ssst",
       "^booth +847931 ", "^conventional +1061899 ", "^hybrid +18520 "),
    # compare --toggles counts and simulates in one chunk pass: the count totals and the stream totals above
    ok("compare-toggles", f"compare {SPARSE} --toggles --format csv",
       "^booth,1000,4194,3194,111685,", "^conventional,1000,8000,7000,94226,", "^hybrid,1000,769,770,99008,"),
    ok("compare-toggles-gated", f"compare {SPARSE} --toggles --ssst --format csv",
       "^booth,1000,4194,3194,65016,", "^conventional,1000,8000,7000,36760,", "^hybrid,1000,769,770,5856,"),
    ok("compare-toggles-w32", f"compare {WIDE % 32} --toggles --format csv",
       "^booth,600,9884,9284,1144564,", "^conventional,600,19200,18600,1760765,", "^hybrid,600,10036,9473,1217515,"),
    # gated at width 32, the shape of the benchmark's compare-w32 calls
    ok("compare-toggles-w32-gated", f"compare {WIDE % 32} --toggles --ssst --format csv",
       "^booth,600,9884,9284,912077,", "^conventional,600,19200,18600,1113774,", "^hybrid,600,10036,9473,18859,"),
    ok("compare-toggles-w31-gated", f"compare {WIDE % 31} --toggles --ssst --format csv",
       "^booth,600,9600,9000,847931,", "^conventional,600,18600,18000,1061899,", "^hybrid,600,9600,9000,18520,"),
    # the hybrid's array alone: its counts come from its lane routes
    ok("compare-toggles-hybrid", f"compare {UNIFORM} --toggles --arch hybrid --format csv",
       "^hybrid,1000,1861,2870,128112,"),
    # the count pass alone: the hybrid pair by pair, widths 9 and 10 on each side of its Word-table bound,
    # Booth and conventional by lane sums
    ok("count-hybrid", f"compare {SPARSE} --arch hybrid --format csv", "^hybrid,1000,769,770,"),
    ok("count-hybrid-w32", f"compare {WIDE % 32} --arch hybrid --format csv", "^hybrid,600,10036,9473,"),
    ok("count-hybrid-w31", f"compare {WIDE % 31} --arch hybrid --format csv", "^hybrid,600,9600,9000,"),
    ok("count-hybrid-w9", f"compare {WIDE % 9} --arch hybrid --format csv", "^hybrid,600,2363,2016,"),
    ok("count-hybrid-w10", f"compare {WIDE % 10} --arch hybrid --format csv", "^hybrid,600,1560,2152,"),
    ok("count-lanes", f"compare {SPARSE} --arch booth --arch conventional --format csv",
       "^booth,1000,4194,3194,", "^conventional,1000,8000,7000,"),
    ok("count-uniform", f"compare {UNIFORM} --format csv",
       "^booth,1000,4501,3501,", "^conventional,1000,8000,7000,", "^hybrid,1000,1861,2870,"),
    # bad input fails fast with exit 2 and one line, before any output file is touched
    refused("trace-width=0", "trace 65 34 --width 0", "error: operand width must be in [4, 32], got 0"),
    refused("trace-width=-1", "trace 65 34 --width -1", "error: operand width must be in [4, 32], got -1"),
    refused("trace-operand-too-wide", "trace 300 1", "error: |300| does not fit in 8 bits"),
    refused("stream-width=33", "stream --inputs random:5 --width 33",
            "error: operand width must be in [4, 32], got 33"),
    refused("exhaustive-width=9", "compare --inputs exhaustive --width 9",
            "error: exhaustive input at width 9 is 262144 pairs, over the 65536-pair limit (width 8);"
            " use random:N or file:PATH"),
    refused("ssst-without-toggles", "compare --inputs random:5 --ssst", "error: --ssst applies only with --toggles"),
    refused("dist-gaussian", "compare --inputs random:5 --dist gaussian",
            "error: unknown distribution 'gaussian'; use uniform, uniform8, or sparseK"),
    refused("dist-cauchy", "compare --inputs random:5 --dist cauchy",
            "error: unknown distribution 'cauchy'; use uniform, uniform8, or sparseK"),
    *(refused(f"sparse-k-over-width-{command}", f"{command} --inputs random:5 --dist sparse99 --width 8",
              "error: sparse99 needs K <= width, got K=99 at width 8") for command in ("compare", "stream")),
    # the generator would seed with |seed|, printing seed 5's campaign under seed -5
    *(refused(f"seed-negative-{command}", f"{command} --inputs random:5 --seed -5",
              "error: --seed must be non-negative, got -5") for command in ("compare", "stream")),
    *(refused(f"random-only-exhaustive-{command}-{flag}={value}",
              f"{command} --inputs exhaustive --width 4 --{flag} {value}",
              f"error: --{flag} applies only to random:N inputs, not exhaustive")
      for command in ("compare", "stream") for flag, value in (("dist", "cauchy"), ("dist", "uniform"), ("seed", 0))),
    *(refused(f"random-only-file-{flag}={value}", f"compare --inputs file:{{d}}/pairs.txt --{flag} {value}",
              f"error: --{flag} applies only to random:N inputs, not file:{{d}}/pairs.txt", PAIRS)
      for flag, value in (("dist", "sparse3"), ("seed", 7))),
    refused("huge-random-count", "compare --inputs random:4294967296",
            "error: random input count 4294967296 is over the 1048576-pair limit"),
    refused("off-grid-vdd", "compare --inputs random:5 --vdd 1.1", f"error: 1.1 V {GRID}"),
    refused("off-grid-vdd-big-run", "compare --inputs random:1048576 --vdd 1.25", f"error: 1.25 V {GRID}"),
    refused("file-names-no-file", "compare --inputs file:", "error: input spec 'file:' names no file; use file:PATH"),
    refused("missing-pairs-file", "compare --inputs file:/nonexistent/pairs.txt",
            "error: [Errno 2] No such file or directory: '/nonexistent/pairs.txt'"),
    refused("bad-pair", "compare --inputs file:{d}/bad.txt", HORSE, BAD),
    refused("pair-too-wide", "stream --inputs file:{d}/wide.txt", "error: pair (300, 1) does not fit in 8 bits",
            {"wide.txt": b"300 1\n"}),
    refused("not-utf8-pairs-file", "compare --inputs file:{d}/latin.txt", NOT_UTF8, {"latin.txt": b"\xff 1\n"}),
    refused("not-utf8-model-file", "table2 --model {d}/latin.txt", NOT_UTF8, {"latin.txt": b"\xff 1\n"}),
    refused("trace-dir-missing", "stream --inputs random:5 --trace-toggles {d}/missing/t.csv",
            "error: [Errno 2] No such file or directory: '{d}/missing/t.csv'"),
    refused("out-dir-missing", "compare --inputs random:5 --out {d}/missing/r.json",
            "error: [Errno 2] No such file or directory: '{d}/missing/r.json'"),
    # an output that names an input file is refused, under any spelling, and a missing input is not created
    refused("out-is-input", "compare --inputs file:{d}/pairs.txt --out {d}/pairs.txt",
            "error: --out {d}/pairs.txt is the input file {d}/pairs.txt", {"pairs.txt": b"65 34\n-7 9\n"}),
    *(refused(f"out-is-input-{id}", f"{command} {flag} {{d}}/./input.txt",
              f"error: {flag} {{d}}/./input.txt is the input file {{d}}/input.txt", {"input.txt": text})
      for id, command, flag, text in (
          ("compare-pairs", "compare --inputs file:{d}/input.txt", "--out", b"65 34\n"),
          ("stream-pairs", "stream --inputs file:{d}/input.txt", "--trace-toggles", b"65 34\n"),
          ("compare-model", "compare --inputs random:3 --model {d}/input.txt", "--out", b"1.2 17.50 0.595\n"),
          ("table2-model", "table2 --model {d}/input.txt", "--out", b"1.2 17.50 0.595\n"))),
    refused("out-is-missing-input", "compare --inputs file:{d}/absent.txt --out {d}/absent.txt",
            "error: [Errno 2] No such file or directory: '{d}/absent.txt'"),
    # inputs are read before the output is opened: a refused input leaves an existing output as it was
    *(refused(f"out-kept-{id}-{state}", f"{command} {{d}}/old.json", line, {**inputs, **kept})
      for state, kept in (("existing", KEPT), ("missing", {}))
      for id, command, line, inputs in (
          ("compare-bad-pair", "compare --inputs file:{d}/bad.txt --out", HORSE, BAD),
          ("compare-width", "compare --inputs random:5 --width 40 --out", WIDTH40, {}),
          ("compare-vdd", "compare --inputs random:5 --vdd 1.25 --out", f"error: 1.25 V {GRID}", {}),
          ("stream-bad-pair", "stream --inputs file:{d}/bad.txt --trace-toggles", HORSE, BAD),
          ("stream-width", "stream --inputs random:5 --width 40 --trace-toggles", WIDTH40, {}))),
    # a cost model prices each voltage once, positive and finite, and a bad value names its line and field
    refused("model-repeat", "table2 --model {d}/repeat.cfg", "error: {d}/repeat.cfg:2: 1.2 V repeats line 1",
            {"repeat.cfg": b"1.2 17.50 0.595\n1.2 18.00 0.600\n"}),
    *(refused(f"model-{id}", "table2 --model {d}/model.cfg", f"error: {{d}}/model.cfg:{tail}", {"model.cfg": text})
      for id, text, tail in (
          ("power-nan", b"1.2 nan 1\n", "1: power_uW must be positive and finite, got nan"),
          ("power-inf", b"1.2 inf 1\n", "1: power_uW must be positive and finite, got inf"),
          ("delay-nan", b"1.2 1 nan\n", "1: delay_ns must be positive and finite, got nan"),
          ("vdd-zero", b"0 1 1\n", "1: vdd must be positive and finite, got 0.0"),
          ("vdd-negative", b"-1.2 1 1\n", "1: vdd must be positive and finite, got -1.2"),
          ("vdd-inf", b"inf 1 1\n", "1: vdd must be positive and finite, got inf"),
          ("vdd-nan", b"nan 1 1\n", "1: vdd must be positive and finite, got nan"),
          ("repeat-after-comment", b"1.2 1 1\n# again\n1.2 2 2\n", "3: 1.2 V repeats line 1"))),
    # a model file with no voltage line names itself, as a pairs file with no pairs does
    refused("model-empty", "table2 --model {d}/empty.cfg", "error: {d}/empty.cfg: no supply voltages found",
            {"empty.cfg": b"# vdd power_uW delay_ns\n\n"}),
    refused("model-compare-delay-negative", "compare --inputs random:5 --model {d}/model.cfg",
            "error: {d}/model.cfg:2: delay_ns must be positive and finite, got -0.734",
            {"model.cfg": b"1.2 17.50 0.595\n1.0 12.08 -0.734\n"}),
)
assert len({pin.id for pin in PINS}) == len(PINS), "two rows share an id"


def check(pin: Pin, got: Outcome, d: str) -> None:
    """Raise AssertionError, naming the first rule ``got`` breaks, unless it is what ``pin`` expects in folder ``d``."""
    assert got.code == pin.code, f"exit {got.code}, want {pin.code}; stderr: {got.err!r}"
    if pin.code == 2:
        assert got.out == "", f"stdout is not empty: {got.out[:200]!r}"
        assert got.err == pin.expect[0].replace("{d}", d) + "\n", f"stderr is {got.err!r}"
        assert got.files == pin.files, f"the case folder changed: {sorted(got.files)}, was {sorted(pin.files)}"
        return
    assert got.err == "", f"stderr is not empty: {got.err!r}"
    at = 0
    for pattern in pin.expect:
        found = re.compile(pattern, re.MULTILINE).search(got.out, at)
        assert found, f"no match for {pattern!r} after offset {at} in stdout:\n{got.out}"
        at = found.end()


def run(pin: Pin, d: str, call) -> None:
    """Write ``pin``'s files into the empty folder ``d``, run its argv through ``call`` and check the outcome.

    ``call(argv)`` returns one command's exit status, stdout and stderr.
    """
    for name, data in pin.files.items():
        Path(d, name).write_bytes(data)
    code, out, err = call([arg.replace("{d}", d) for arg in pin.argv])
    files = {str(p.relative_to(d)): p.read_bytes() if p.is_file() else None for p in Path(d).rglob("*")}
    check(pin, Outcome(code, out, err, files), d)


def in_process(argv: list[str]) -> tuple[int, str, str]:
    from hybridmul.cli import main  # imported here: run as a script, this file needs only the installed command

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def installed(argv: list[str]) -> tuple[int, str, str]:
    done = subprocess.run(["hybridmul", *argv], capture_output=True, encoding="utf-8", timeout=SECONDS)
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    if not __debug__:
        sys.exit("the checks are asserts, which python -O drops: run this without -O")
    failed = 0
    for pin in PINS:
        with tempfile.TemporaryDirectory() as d:
            try:
                run(pin, d, installed)
            except (AssertionError, subprocess.TimeoutExpired) as exc:
                failed += 1
                print(f"FAIL {pin.id}: hybridmul {shlex.join(pin.argv)}\n  {exc}")
            else:
                print(f"ok   {pin.id}")
    print(f"{len(PINS) - failed} of {len(PINS)} CLI pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
