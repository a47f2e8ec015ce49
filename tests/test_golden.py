"""Byte-for-byte pins of the CLI's report outputs.

Each case runs one command and compares the sha256 of every byte it emits
(stdout, then the ``--trace-toggles`` CSV for ``stream``) against a digest
recorded from an earlier release of the same outputs.  A refactor that keeps
these digests keeps the reports identical, not merely self-consistent.
``MODEL`` in a case stands for a two-point cost-model file written next to
the run.
"""

import hashlib

import pytest

from hybridmul.cli import main

_COMPARE = [
    "compare", "--width", "8", "--inputs", "random:120", "--seed", "42",
    "--dist", "sparse3", "--toggles", "--ssst",
    "--vdd", "0.8", "--vdd", "1.2", "--vdd", "2.4",
]
_COMPARE_WIDE = [
    "compare", "--width", "12", "--inputs", "random:60", "--seed", "7",
    "--arch", "booth", "--arch", "hybrid", "--toggles", "--ssst", "--prefer-sparse",
    "--vdd", "1.0", "--vdd", "1.6", "--vdd", "2.2",
]
_COMPARE_INTERPOLATED = [
    "compare", "--width", "8", "--inputs", "random:120", "--seed", "42",
    "--dist", "sparse3", "--vdd", "0.9", "--vdd", "1.1", "--vdd", "2.3", "--interpolate",
]
_STREAM = [
    "stream", "--width", "8", "--inputs", "random:80", "--seed", "42",
    "--dist", "sparse3", "--arch", "booth", "--arch", "hybrid", "--ssst",
]
_STREAM_WIDE = [
    "stream", "--width", "12", "--inputs", "random:50", "--seed", "3",
    "--arch", "conventional", "--arch", "hybrid",
]

MODEL = "<model>"
_MODEL_TEXT = "1.0 12.08 0.734\n1.2 17.50 0.595\n"

CASES = {
    **{f"compare-{fmt}": _COMPARE + ["--format", fmt] for fmt in ("ascii", "csv", "json", "svg")},
    **{f"compare-wide-{fmt}": _COMPARE_WIDE + ["--format", fmt] for fmt in ("ascii", "csv", "json", "svg")},
    **{f"table2-{fmt}": ["table2", "--format", fmt] for fmt in ("ascii", "csv", "json", "svg")},
    "compare-interpolated-json": _COMPARE_INTERPOLATED + ["--format", "json"],
    "table2-model-csv": ["table2", "--model", MODEL, "--format", "csv"],
    "table2-model-json": ["table2", "--model", MODEL, "--format", "json"],
    "stream-gated": _STREAM,
    "stream-wide": _STREAM_WIDE,
    "trace-d": ["trace", "65", "34"],
    "trace-negative": ["trace", "-65", "34"],
    "trace-split": ["trace", "65", "241"],
    "trace-odd-width": ["trace", "17", "31", "--width", "5"],
    "trace-zero": ["trace", "5", "0"],
}

GOLDEN = {
    "compare-ascii": "ce2cf7df078ff5db473abae9a208c562afcaa663eeab551d2a80917512279ed9",
    "compare-interpolated-json": "f2f21585f895d8322283639d5d975cccddc7f374c454bca2bb71fa27ce0917b8",
    "compare-csv": "4d1eb7389f24b8f472cd098bc8b7b81a120ccb506b7b3a59516208103bd61aca",
    "compare-json": "a4c6e85eeed3d58806084add38ed91f1f811feeaca7f30eccea10e6b27ba0e09",
    "compare-svg": "06b6414e6a3dd653f37329bf44b8efd881b6e0dc6b07a8cb7e52cc0b8de2a811",
    "compare-wide-ascii": "6df821d1ce1f60c200583c413138422956ff6bcd958bc2476a96042341243509",
    "compare-wide-csv": "03ebad03ba5e1927ec7b706b952374bda8c453bc77af592773afdfcf32b0f7f3",
    "compare-wide-json": "fb9408f41b0db3fcb20f8a492c064d46df2d538aaf3d60c2f6e003f05a455d1c",
    "compare-wide-svg": "90f5bf99d8df30ed7b8fc6e84841cd6364ba65e473be8632487e0e21ccaf933c",
    "stream-gated": "2695b10b3aad2acf4f8c7fbbf0b6da65353e1846c5b2c27f45c06eccca9d2cea",
    "stream-wide": "d1858a4c743fb347fbb8aa41f675f2cf0c04e4d9c1e3a29a5c424fcdba956103",
    "table2-ascii": "439e5706198f151841a40853a06e5508609c14d341865827bb16d009cc640206",
    "table2-csv": "03ab7134f68221642b9194d1c14dac44edeb19af5e7ac36a56f351659f029d19",
    "table2-model-csv": "f9f43fa6372c80f07b043010418391f144fa24315ba6b4e523bf3ba62c1fdb79",
    "table2-model-json": "ea6fa774d45f3009a6f6a117e186b1ef92e7d09434b5084b6500366993eb6ff3",
    "table2-json": "4d8f3b3d6083d44da42ecc56e69cee385fda60a4116bde52f3e6a79127cf9174",
    "table2-svg": "761685df5431441d2a4c424e05f61d0357d435e5b0f29bf491e51d04a5a52776",
    "trace-d": "b6162f988790381975de5fdb6d3511babf28fc3df738787fa14f10f07bb6d8e0",
    "trace-negative": "f85502e0063e1bd7c5727346ba7fc6ece109238ce92cc3b904d461ae0674fe97",
    "trace-split": "3f39de930e8de67de5fb51f690b24d0ea1d67f0afbf7691969db450f83f9bd58",
    "trace-odd-width": "32595df347956702235b233f75efdee030ae51839a34abb8a1fdf5055996a2ce",
    "trace-zero": "7edd63f222da2f67085427ba53aa1a3cbacd4e8ed67c499449d5b6ab2d10573d",
}


def emitted(argv, capsys, tmp_path) -> bytes:
    trace_csv = tmp_path / "toggles.csv"
    if MODEL in argv:
        model = tmp_path / "model.cfg"
        model.write_text(_MODEL_TEXT)
        argv = [str(model) if arg == MODEL else arg for arg in argv]
    if argv[0] == "stream":
        argv = argv + ["--trace-toggles", str(trace_csv)]
    assert main(argv) == 0
    data = capsys.readouterr().out.encode()
    if argv[0] == "stream":
        data += trace_csv.read_bytes()
    return data


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden_digest(name, capsys, tmp_path):
    digest = hashlib.sha256(emitted(CASES[name], capsys, tmp_path)).hexdigest()
    assert digest == GOLDEN[name]
