"""Command-line interface.

Subcommands:
  compare  run a campaign across architectures and emit a report
  trace    explain one multiplication step by step
  table2   print the calibrated 3-architecture power/delay grid
  stream   run the cell-level toggle simulation over an input stream

Exit status: 0 on success, 1 when a simulated product disagrees with the
native-multiply oracle, 2 on bad inputs or configuration.

The argument parser is built once per process; every :func:`main` call
parses into a fresh namespace, so one call's options never reach the next.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from contextlib import ExitStack, contextmanager

from .datapath import ToggleReport
from .encoding import Architecture, ProductMismatchError
from .harness import (
    Campaign,
    InputFormatError,
    RandomSource,
    parse_input_spec,
    read_campaign,
    render_ascii,
    render_cost_grid_ascii,
    render_cost_grid_csv,
    render_cost_grid_json,
    render_cost_grid_svg,
    render_csv,
    render_json,
    render_stream,
    render_svg,
    run_campaign,
    trace,
)
from .metrics import CostModel, table2_report

_ARCH_BY_NAME = {a.value: a for a in Architecture}
# each command's --format names, as the emitters they select
_REPORT_FORMATS = dict(ascii=render_ascii, csv=render_csv, json=render_json, svg=render_svg)
_GRID_FORMATS = dict(
    ascii=render_cost_grid_ascii, csv=render_cost_grid_csv, json=render_cost_grid_json, svg=render_cost_grid_svg
)


def _add_campaign_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=8, help="operand width in bits (4-32)")
    p.add_argument(
        "--inputs",
        default="random:1000",
        help="input source: exhaustive, random:N, or file:PATH",
    )
    p.add_argument("--seed", type=int, help="seed for random:N inputs (default 0)")
    p.add_argument(
        "--dist",
        help="distribution of random:N inputs: uniform (default), uniform8, or sparseK (e.g. sparse3)",
    )
    p.add_argument(
        "--arch",
        action="append",
        choices=sorted(_ARCH_BY_NAME),
        help="architecture to include (repeatable; default: all three)",
    )
    p.add_argument("--ssst", action="store_true", help="enable freeze gating in the toggle simulation")


def _campaign(args: argparse.Namespace, **options) -> Campaign:
    """The campaign both ``compare`` and ``stream`` run, from their shared arguments."""
    source = parse_input_spec(args.inputs)
    if isinstance(source, RandomSource):
        source = RandomSource(source.count, args.dist or "uniform")
        if (args.seed or 0) < 0:
            raise InputFormatError(f"--seed must be non-negative, got {args.seed}")
    else:
        for flag, value in (("--dist", args.dist), ("--seed", args.seed)):
            if value is not None:
                raise InputFormatError(f"{flag} applies only to random:N inputs, not {source.describe()}")
    return Campaign(
        width=args.width,
        architectures=tuple(_ARCH_BY_NAME[name] for name in args.arch or sorted(_ARCH_BY_NAME)),
        source=source,
        seed=args.seed or 0,
        ssst=args.ssst,
        **options,
    )


def _refuse_overwrite(flag: str, dest: str | None, *inputs: str | None) -> None:
    """Refuse, before any file is opened, a missing input file or a destination that is one of them.

    A missing input raises the error its read would, naming it, so no
    destination is created for a command that cannot run.
    """
    for path in filter(None, inputs):
        os.stat(path)
        if dest and os.path.exists(dest) and os.path.samefile(dest, path):
            raise InputFormatError(f"{flag} {dest} is the input file {path}")


@contextmanager
def _output(out: str | None):
    """Yield a function that writes the report to ``out``, or to stdout.

    Commands enter it between reading their inputs and simulating, so an unwritable ``out`` fails before
    the work.  An ``out`` that is stdout's own file, such as ``/dev/stdout``, is written through stdout,
    at its offset and in its mode.  Any other existing ``out`` is written over from byte 0, not
    truncated, and cut at the end of what was written once the block ends: a run that raises first
    leaves it as it was, and removes the ``out`` it created.
    """
    try:
        to_stdout = not out or os.path.samestat(os.stat(out), os.fstat(1))
    except OSError:  # no such file yet, or no stdout
        to_stdout = False
    if to_stdout:
        yield sys.stdout.write
        return
    try:
        file, created = open(out, "x"), True
    except FileExistsError:
        file, created = open(os.open(out, os.O_WRONLY), "w"), False  # no O_TRUNC: the old bytes stay
    with file:
        try:
            yield file.write
        except BaseException:
            if created:
                file.close()
                os.unlink(out)
            raise
        if not created and os.path.isfile(out):  # a device such as /dev/null has no end to cut and refuses it
            file.truncate()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridmul",
        description="Bit-accurate multiplier architecture simulator and analyzer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="compare architectures over an input campaign")
    _add_campaign_args(compare)
    compare.add_argument("--toggles", action="store_true", help="also run the cell-level toggle simulation")
    compare.add_argument("--vdd", action="append", type=float, help="supply voltage for cost estimates (repeatable)")
    compare.add_argument("--interpolate", action="store_true", help="allow off-grid voltages via linear interpolation")
    compare.add_argument("--model", help="cost-model config file (vdd power_uW delay_ns per line)")
    compare.add_argument("--prefer-sparse", action="store_true", help="use the operand with fewer set bits as multiplier")
    compare.add_argument("--format", choices=tuple(_REPORT_FORMATS), default="ascii")
    compare.add_argument("--out", help="write the report to a file instead of stdout")

    tr = sub.add_parser("trace", help="explain one multiplication")
    tr.add_argument("a", type=int)
    tr.add_argument("b", type=int)
    tr.add_argument("--width", type=int, default=8)

    t2 = sub.add_parser("table2", help="print the calibrated power/delay grid")
    t2.add_argument("--model", help="cost-model config file (vdd power_uW delay_ns per line)")
    t2.add_argument("--format", choices=tuple(_GRID_FORMATS), default="ascii")
    t2.add_argument("--out", help="write the grid to a file instead of stdout")

    st = sub.add_parser("stream", help="cell-level toggle simulation over a stream")
    _add_campaign_args(st)
    st.add_argument("--trace-toggles", help="write a per-evaluation toggle CSV to this path")

    return parser


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.ssst and not args.toggles:
        raise InputFormatError("--ssst applies only with --toggles")
    campaign = _campaign(
        args,
        simulate_toggles=args.toggles,
        vdds=tuple(args.vdd or (1.2,)),
        prefer_sparse=args.prefer_sparse,
    )
    # the model is read first, so a missing model is reported before a missing input
    _refuse_overwrite("--out", args.out, args.model, getattr(campaign.source, "path", None))
    model = CostModel.load(args.model) if args.model else CostModel.default()
    read = read_campaign(campaign, model, args.interpolate)
    with _output(args.out) as write:
        write(_REPORT_FORMATS[args.format](run_campaign(campaign, read=read)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    result = trace(args.a, args.b, width=args.width)
    sys.stdout.write(result.render() + "\n")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    _refuse_overwrite("--out", args.out, args.model)
    model = CostModel.load(args.model) if args.model else CostModel.default()
    with _output(args.out) as write:
        write(_GRID_FORMATS[args.format](table2_report(model)))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    campaign = _campaign(args, simulate_toggles=True)
    _refuse_overwrite("--trace-toggles", args.trace_toggles, getattr(campaign.source, "path", None))
    read = read_campaign(campaign)
    if not args.trace_toggles:
        sys.stdout.write(render_stream(run_campaign(campaign, read=read)))
        return 0
    # one spool per architecture, written arch by arch once every product is checked: a failed run leaves the file
    with ExitStack() as stack:
        write = stack.enter_context(_output(args.trace_toggles))
        spools = {arch: stack.enter_context(tempfile.TemporaryFile("w+")) for arch in campaign.architectures}

        def record(arch: Architecture, index: int, one: ToggleReport) -> None:
            spool = spools[arch]
            *rows, final = one.per_row_toggles
            for row, toggles in enumerate(rows):
                spool.write(f"{index},{row},{toggles},{arch.value}\n")
            spool.write(f"{index},final,{final},{arch.value}\n")

        report = run_campaign(campaign, trace=record, read=read)
        write("operation,row,toggles,arch\n")
        for spool in spools.values():
            spool.seek(0)
            for block in iter(lambda: spool.read(1 << 16), ""):
                write(block)
    sys.stdout.write(render_stream(report))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "compare": _cmd_compare,
        "trace": _cmd_trace,
        "table2": _cmd_table2,
        "stream": _cmd_stream,
    }
    try:
        return handlers[args.command](args)
    except ProductMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        # bad input: InputFormatError and OffGridVoltageError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
