import argparse
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

import hybridmul.cli as cli
import hybridmul.encoding as encoding
import hybridmul.harness as harness
from hybridmul.datapath import GeometryError, simulate_configs, simulate_stream
from hybridmul.encoding import Architecture, CategoryKind, ProductMismatchError
from hybridmul.harness import (
    ALL_ARCHITECTURES,
    MAX_EXHAUSTIVE_PAIRS,
    MAX_RANDOM_PAIRS,
    Campaign,
    CSV_HEADER,
    ExhaustiveSource,
    FileSource,
    InputFormatError,
    RandomSource,
    gen_inputs,
    parse_input_spec,
    parse_pairs_file,
    reductions,
    render_ascii,
    render_csv,
    render_json,
    render_svg,
    run_campaign,
    trace,
)
from hybridmul.cli import main
from hybridmul.metrics import CostModel, OffGridVoltageError, table2_report


@pytest.fixture()
def no_work(monkeypatch):
    """Make generating inputs or counting fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("voltages must be priced before any work")

    monkeypatch.setattr(harness, "gen_inputs", refuse)
    monkeypatch.setattr(harness, "count_pairs", refuse)


@pytest.fixture()
def off_by_one_core(monkeypatch):
    """Make the encoders' unsigned core return the product plus one."""
    original = encoding.unsigned_product

    def off_by_one(multiplicand, multiplier, arch):
        product, counts = original(multiplicand, multiplier, arch)
        return product + 1, counts

    monkeypatch.setattr(encoding, "unsigned_product", off_by_one)


class TestInputSpecs:
    def test_forms(self):
        assert isinstance(parse_input_spec("exhaustive"), ExhaustiveSource)
        assert parse_input_spec("random:50") == RandomSource(50)
        assert parse_input_spec("file:pairs.txt") == FileSource("pairs.txt")

    def test_errors(self):
        with pytest.raises(InputFormatError):
            parse_input_spec("random:many")
        with pytest.raises(InputFormatError):
            parse_input_spec("sequential")
        with pytest.raises(InputFormatError):
            parse_input_spec("random:0")

    def test_empty_file_path_names_the_spec(self):
        with pytest.raises(InputFormatError, match="'file:' names no file"):
            parse_input_spec("file:")

    def test_random_count_bounded(self):
        assert RandomSource(MAX_RANDOM_PAIRS).count == MAX_RANDOM_PAIRS
        with pytest.raises(InputFormatError, match=f"{MAX_RANDOM_PAIRS}-pair limit"):
            RandomSource(MAX_RANDOM_PAIRS + 1)


class TestGenInputs:
    def test_exhaustive_width4(self):
        pairs = gen_inputs(ExhaustiveSource(), 4)
        assert len(pairs) == 256
        assert pairs[:2] == [(0, 0), (0, 1)]
        assert pairs[-1] == (15, 15)

    def test_exhaustive_bounded(self):
        assert len(gen_inputs(ExhaustiveSource(), 8)) == MAX_EXHAUSTIVE_PAIRS
        with pytest.raises(InputFormatError, match="limit"):
            gen_inputs(ExhaustiveSource(), 9)

    def test_random_is_reproducible(self):
        source = RandomSource(30, "uniform8")
        assert gen_inputs(source, 8, seed=42) == gen_inputs(source, 8, seed=42)
        assert gen_inputs(source, 8, seed=42) != gen_inputs(source, 8, seed=43)

    def test_uniform_range(self):
        for a, b in gen_inputs(RandomSource(200, "uniform"), 8, seed=1):
            assert -255 <= a <= 255
            assert -255 <= b <= 255

    def test_uniform8_range(self):
        for a, b in gen_inputs(RandomSource(200, "uniform8"), 8, seed=1):
            assert 0 <= a <= 255
            assert 0 <= b <= 255

    def test_sparse_multiplier_popcount(self):
        for _, b in gen_inputs(RandomSource(300, "sparse3"), 8, seed=2):
            assert bin(b).count("1") <= 3

    def test_sparse_k_over_the_width_is_refused(self):
        # a clamp would run sparse8 under the label sparse12
        for _, b in gen_inputs(RandomSource(50, "sparse8"), 8, seed=2):
            assert 0 <= b < 256
        with pytest.raises(InputFormatError, match="sparse12 needs K <= width, got K=12 at width 8"):
            gen_inputs(RandomSource(50, "sparse12"), 8, seed=2)

    def test_unknown_distribution(self):
        with pytest.raises(InputFormatError):
            gen_inputs(RandomSource(5, "gaussian"), 8, seed=0)

    def test_uniform8_needs_width8(self):
        with pytest.raises(InputFormatError):
            gen_inputs(RandomSource(5, "uniform8"), 4, seed=0)


def reference_parse_pairs_file(path):
    """The straight-line pairs-file reader that ``parse_pairs_file`` must match, pairs and errors alike."""
    pairs = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise InputFormatError(f"{path}:{lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputFormatError(f"{path}:{lineno}: non-integer field in {raw!r}") from None
        pairs.append((a, b))
    if not pairs:
        raise InputFormatError(f"{path}: no operand pairs found")
    return pairs


def reference_file_pairs(path, width):
    """``gen_inputs`` on a pairs file, with the range check pair by pair."""
    pairs = reference_parse_pairs_file(path)
    for a, b in pairs:
        if abs(a) >= 1 << width or abs(b) >= 1 << width:
            raise InputFormatError(f"pair ({a}, {b}) does not fit in {width} bits")
    return pairs


def outcome(function, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return function(*args)
    except InputFormatError as exc:
        return type(exc), str(exc)


# fields int() takes or refuses: signs, leading zeros, underscores, non-ASCII digits, values past width 16
_FIELDS = st.one_of(
    st.integers(min_value=-70000, max_value=70000).map(str),
    st.sampled_from(["+5", "-0", "007", "1_000", "\u0663", "\uff11\uff12", "x", "1.5", "_1", "1__0", "0x1f", "--3", "5-"]),
)

# "A B" lines, CRLF now and then: a file of these reaches the one-scan read unless a field is refused
_PLAIN_FIELDS = st.one_of(st.integers(-70000, 70000).map(str), _FIELDS)
_PLAIN_LINES = st.builds("{} {}{}".format, _PLAIN_FIELDS, _PLAIN_FIELDS, st.sampled_from(["", "", "\r"]))


@st.composite
def pairs_file_lines(draw):
    """One line of a pairs file: one to three fields, or blank, with mixed separators and endings."""
    fields = draw(st.lists(_FIELDS, min_size=0, max_size=3))
    separators = st.sampled_from([" ", "  ", "\t", " \t "])
    line = "".join(field + draw(separators) for field in fields[:-1]) + (fields[-1] if fields else "")
    line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\r"]))
    return line + draw(st.sampled_from(["", "", "", "  # a comment", "#"]))


class TestPairsFile:
    def test_worked_example_file(self, tmp_path):
        f = tmp_path / "pairs.txt"
        f.write_text("# pixel pair\n65 34\n")
        assert parse_pairs_file(f) == [(65, 34)]

    def test_signed_and_comments(self, tmp_path):
        f = tmp_path / "pairs.txt"
        f.write_text("\n-65 34  # negative multiplicand\n12 -7\n")
        assert parse_pairs_file(f) == [(-65, 34), (12, -7)]

    def test_bad_token_reports_line(self, tmp_path):
        f = tmp_path / "pairs.txt"
        f.write_text("65 34\nx 3\n")
        with pytest.raises(InputFormatError, match=r"pairs.txt:2"):
            parse_pairs_file(f)

    def test_wrong_arity_reports_line(self, tmp_path):
        f = tmp_path / "pairs.txt"
        f.write_text("65 34 12\n")
        with pytest.raises(InputFormatError, match=r"pairs.txt:1"):
            parse_pairs_file(f)

    def test_empty_file_rejected(self, tmp_path):
        f = tmp_path / "pairs.txt"
        f.write_text("# nothing\n")
        with pytest.raises(InputFormatError):
            parse_pairs_file(f)

    def test_width_overflow_rejected(self, tmp_path):
        f = tmp_path / "pairs.txt"
        f.write_text("300 1\n")
        with pytest.raises(InputFormatError):
            gen_inputs(FileSource(str(f)), 8)

    @pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
    def test_width_overflow_names_the_first_bad_pair(self, at, tmp_path):
        pairs = [(65, 34), (-7, 9), (12, -255), (0, 1), (255, 3)]
        pairs[at] = (3, -256)
        if at < 4:
            pairs[4] = (999, 1)  # a later bad pair is not the one named
        f = tmp_path / "pairs.txt"
        f.write_text("".join(f"{a} {b}\n" for a, b in pairs))
        with pytest.raises(InputFormatError) as caught:
            gen_inputs(FileSource(str(f)), 8)
        assert str(caught.value) == "pair (3, -256) does not fit in 8 bits"

    @given(
        lines=st.one_of(st.lists(_PLAIN_LINES, max_size=6), st.lists(pairs_file_lines(), max_size=6)),
        end=st.sampled_from(["\n", "\n", ""]),
        width=st.integers(min_value=4, max_value=16),
    )
    @example(lines=["65 34", "-7\t9"], end="\n", width=8)
    @example(lines=["+5 007", "1_000 \u0663"], end="\n", width=8)  # int() takes a sign, leading zeros, underscores, any Nd digit
    @example(lines=["65 34", "", "1 2"], end="\n", width=8)
    @example(lines=["65 34 1"], end="\n", width=8)
    @example(lines=["65"], end="\n", width=8)
    @example(lines=["1.5 2"], end="\n", width=8)
    @example(lines=["7 8  # seven eight"], end="\n", width=8)
    @example(lines=["65 34\r", "300 1"], end="\n", width=8)
    # the same pairs, plain and with CRLF, tabs, comments
    @example(lines=["65 34", "-7 9", "255 -255", "0 1"], end="\n", width=8)
    @example(lines=["# pairs\r", "65 34\r", "\r", "-7\t9\r", "255 -255  # last but one\r", "0\t1\r"], end="\n", width=8)
    # single-space lines the scan reads or refuses: a leading zero, a doubled or trailing sign, minus zero,
    # a field past int()'s 4300-digit limit, no final newline, and CRLF endings
    @example(lines=["65 34", "007 1"], end="\n", width=8)
    @example(lines=["65 34", "--3 1"], end="\n", width=8)
    @example(lines=["65 34", "5- 1"], end="\n", width=8)
    @example(lines=["-0 5", "65 34"], end="\n", width=8)
    @example(lines=["65 34", "9" * 5000 + " 1"], end="\n", width=8)
    @example(lines=["65 34", "-7 9"], end="", width=8)
    @example(lines=["65 34", "79"], end="", width=8)  # a one-field last line, cut off with no newline
    @example(lines=["65 34\r", "-7 9\r", "255 -255\r"], end="\n", width=8)
    def test_matches_the_line_loop(self, lines, end, width, tmp_path_factory):
        """Both parse paths give the line loop's pairs, or its error text, and the range check names its pair."""
        f = tmp_path_factory.mktemp("pairs") / "pairs.txt"
        f.write_text("\n".join(lines) + (end if lines else ""), encoding="utf-8")
        assert outcome(parse_pairs_file, f) == outcome(reference_parse_pairs_file, f)
        assert outcome(gen_inputs, FileSource(str(f)), width) == outcome(reference_file_pairs, f, width)


class TestRunCampaign:
    @pytest.fixture()
    def pixel_campaign(self, tmp_path):
        f = tmp_path / "pairs.txt"
        f.write_text("65 34\n")
        return Campaign(width=8, source=FileSource(str(f)), vdds=(1.2,))

    def test_worked_example_totals(self, pixel_campaign):
        report = run_campaign(pixel_campaign)
        by_arch = {s.arch: s for s in report.summaries}
        assert by_arch[Architecture.CONVENTIONAL].pp_total == 8
        assert by_arch[Architecture.CONVENTIONAL].add_total == 7
        assert by_arch[Architecture.BOOTH].pp_total == 4
        assert by_arch[Architecture.BOOTH].add_total == 3
        assert by_arch[Architecture.HYBRID].pp_total == 1
        assert by_arch[Architecture.HYBRID].add_total == 1

    def test_cost_cells_from_add_totals(self, pixel_campaign):
        report = run_campaign(pixel_campaign)
        by_arch = {s.arch: s for s in report.summaries}
        power, delay = by_arch[Architecture.CONVENTIONAL].per_vdd[1.2]
        assert power == pytest.approx(122.5)
        assert delay == pytest.approx(4.165)

    def test_per_vdd_prices_like_table2(self, pixel_campaign):
        """65 x 34 needs 7 / 3 / 1 adds, the reference grid's ladder: both price paths agree exactly."""
        grid = table2_report()
        campaign = Campaign(**{**pixel_campaign.__dict__, "vdds": grid.voltages})
        for s in run_campaign(campaign).summaries:
            assert s.per_vdd == grid.costs[s.arch.value]

    def test_toggle_simulation_optional(self, pixel_campaign):
        plain = run_campaign(pixel_campaign)
        assert all(s.toggles is None for s in plain.summaries)
        with_toggles = run_campaign(
            Campaign(**{**pixel_campaign.__dict__, "simulate_toggles": True})
        )
        assert all(s.toggles is not None for s in with_toggles.summaries)

    def test_reductions(self, pixel_campaign):
        red = run_campaign(pixel_campaign).reductions()
        assert red["add_total"]["hybrid_vs_conventional"] == pytest.approx(100 * (1 - 1 / 7))
        assert red["add_total"]["booth_vs_conventional"] == pytest.approx(100 * (1 - 3 / 7))

    def test_reductions_skip_missing_and_zero_baselines(self):
        H, B, C = Architecture.HYBRID, Architecture.BOOTH, Architecture.CONVENTIONAL
        assert reductions({H: 1, B: 4, C: 8}) == {
            "hybrid_vs_conventional": 87.5,
            "hybrid_vs_booth": 75.0,
            "booth_vs_conventional": 50.0,
        }
        assert reductions({H: 1, B: None, C: 0}) == {}

    def test_prefer_sparse_toggles_use_the_swapped_order(self):
        # Booth's rows depend on which operand is the multiplier, so toggles
        # must follow the order multiply used, as the add counts do.
        source = RandomSource(200, "uniform8")
        campaign = Campaign(
            width=8,
            architectures=(Architecture.BOOTH,),
            source=source,
            seed=1,
            simulate_toggles=True,
            prefer_sparse=True,
        )
        pairs = gen_inputs(source, 8, seed=1)
        swapped = [(b, a) if bin(a).count("1") < bin(b).count("1") else (a, b) for a, b in pairs]
        toggles = run_campaign(campaign).summaries[0].toggles
        assert toggles == simulate_stream(swapped, Architecture.BOOTH, 8, False).total_toggles == 29369
        assert simulate_stream(pairs, Architecture.BOOTH, 8, False).total_toggles == 29861

    def test_prefer_sparse_counts_the_swapped_pairs(self, tmp_path):
        # the counts of a prefer_sparse campaign are those of the pairs it swapped
        source = RandomSource(200, "uniform8")
        pairs = gen_inputs(source, 8, seed=1)
        swapped = [(b, a) if bin(a).count("1") < bin(b).count("1") else (a, b) for a, b in pairs]
        assert swapped != pairs
        f = tmp_path / "swapped.txt"
        f.write_text("".join(f"{a} {b}\n" for a, b in swapped))
        preferred = run_campaign(Campaign(width=8, source=source, seed=1, prefer_sparse=True))
        direct = run_campaign(Campaign(width=8, source=FileSource(str(f))))
        totals = [[(s.arch, s.pairs, s.pp_total, s.add_total, s.shift_total) for s in r.summaries]
                  for r in (preferred, direct)]
        assert totals[0] == totals[1]
        assert [arch for arch, *_ in totals[0]] == list(ALL_ARCHITECTURES)

    def test_off_grid_vdd_fails_before_any_work(self, no_work):
        with pytest.raises(OffGridVoltageError):
            run_campaign(Campaign(width=8, source=RandomSource(5), vdds=(1.25,)))

    def test_model_without_default_vdd_fails_before_any_work(self, no_work):
        model = CostModel({1.0: (12.08, 0.734)})
        with pytest.raises(OffGridVoltageError):
            harness.read_campaign(Campaign(width=8, source=RandomSource(5)), model)

    def test_repeats_run_and_print_once(self, pixel_campaign):
        H, B = Architecture.HYBRID, Architecture.BOOTH
        campaign = Campaign(width=8, source=pixel_campaign.source, architectures=(H, B, H), vdds=(1.2, 1.0, 1.2))
        assert (campaign.architectures, campaign.vdds) == ((H, B), (1.2, 1.0))
        report = run_campaign(campaign)
        assert [s.arch for s in report.summaries] == [H, B]
        rows = render_csv(report).splitlines()[1:]
        assert [(row.split(",")[0], row.split(",")[-1]) for row in rows] == [
            ("hybrid", "1.2"), ("hybrid", "1.0"), ("booth", "1.2"), ("booth", "1.0"),
        ]

    @pytest.mark.parametrize(
        "empty, message", [("architectures", "at least one architecture"), ("vdds", "at least one supply voltage")]
    )
    def test_empty_architectures_or_vdds_rejected(self, empty, message):
        with pytest.raises(ValueError, match=message):
            Campaign(width=8, source=RandomSource(5), **{empty: ()})

    def test_ssst_without_toggles_rejected(self):
        # gating acts only on the toggle simulation, so a report must not claim it
        with pytest.raises(ValueError, match="ssst=True needs simulate_toggles=True"):
            Campaign(width=8, source=RandomSource(5), ssst=True)
        assert Campaign(width=8, source=RandomSource(5), ssst=True, simulate_toggles=True).ssst

    def test_negative_seed_rejected(self):
        # random.Random seeds with |seed|: seed -5 would run seed 5's pairs and label them -5
        with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
            Campaign(width=8, source=RandomSource(50), seed=-5)
        assert Campaign(width=8, source=RandomSource(50), seed=0).seed == 0

    def test_a_traced_campaign_runs_one_pass(self, monkeypatch):
        calls = []
        chunk_pass = harness.simulate_configs

        def spy(pairs, width, configs, count=False, trace=None):
            calls.append((tuple(configs), count, trace is not None))
            return chunk_pass(pairs, width, configs, count, trace)

        monkeypatch.setattr(harness, "simulate_configs", spy)
        source = RandomSource(300, "sparse3")
        campaign = Campaign(width=8, source=source, seed=42, simulate_toggles=True, ssst=True)
        seen = []
        traced = run_campaign(campaign, trace=lambda arch, i, one: seen.append((arch, i, one)))
        archs = campaign.architectures
        assert calls == [(tuple((arch, True) for arch in archs), True, True)]
        # chunk by chunk, the architectures in campaign order inside each chunk
        chunks = [range(0, encoding.STREAM_CHUNK), range(encoding.STREAM_CHUNK, 300)]
        assert [(arch, i) for arch, i, _ in seen] == [(arch, i) for chunk in chunks for arch in archs for i in chunk]
        pairs = gen_inputs(source, 8, seed=42)
        for arch in archs:
            records = [(i, one) for seen_arch, i, one in seen if seen_arch is arch]
            assert [i for i, _ in records] == list(range(300))
            total = sum(one.total_toggles for _, one in records)
            assert total == simulate_stream(pairs, arch, 8, True).total_toggles
        calls.clear()
        untraced = run_campaign(campaign)
        assert calls == [(tuple((arch, True) for arch in archs), True, False)]
        assert render_json(traced) == render_json(untraced)

    def test_a_trace_needs_the_toggle_simulation(self, no_work):
        with pytest.raises(ValueError, match="a trace needs simulate_toggles=True"):
            run_campaign(Campaign(width=8, source=RandomSource(5)), trace=lambda arch, i, one: None)

    def test_a_read_campaign_is_not_read_again(self, monkeypatch):
        campaign = Campaign(width=8, source=RandomSource(40, "sparse3"), seed=7, simulate_toggles=True)
        read = harness.read_campaign(campaign)
        assert read == ({1.2: CostModel.default().unit_cost(1.2)}, gen_inputs(campaign.source, 8, seed=7))
        expected = render_json(run_campaign(campaign))
        monkeypatch.setattr(harness, "gen_inputs", lambda *args: pytest.fail("a read campaign is not read again"))
        monkeypatch.setattr(CostModel, "unit_cost", lambda *args: pytest.fail("a read campaign is priced"))
        assert render_json(run_campaign(campaign, read=read)) == expected

    def test_toggles_and_counts_come_from_one_chunk_pass(self, monkeypatch):
        calls = []
        chunk_pass = harness.simulate_configs

        def spy(pairs, width, configs, count=False, trace=None):
            calls.append((tuple(configs), count))
            return chunk_pass(pairs, width, configs, count, trace)

        def no_count(*args, **kwargs):
            raise AssertionError("the chunk pass counts the pairs")

        monkeypatch.setattr(harness, "simulate_configs", spy)
        monkeypatch.setattr(harness, "count_pairs", no_count)
        H, C = Architecture.HYBRID, Architecture.CONVENTIONAL
        source = RandomSource(300, "sparse3")
        campaign = Campaign(width=8, architectures=(H, C), source=source, seed=42, ssst=True, simulate_toggles=True)
        report = run_campaign(campaign)
        assert calls == [(((H, True), (C, True)), True)]
        pairs = gen_inputs(source, 8, seed=42)
        counts = encoding.count_pairs(pairs, (H, C), 8)
        assert [(s.arch, s.pp_total, s.add_total, s.shift_total) for s in report.summaries] == [
            (arch, c.pp_count, c.add_count, c.shift_count) for arch, c in zip((H, C), counts)
        ]
        assert [s.toggles for s in report.summaries] == [
            simulate_stream(pairs, arch, 8, True).total_toggles for arch in (H, C)
        ]

    def test_exhaustive_small_width(self):
        report = run_campaign(
            Campaign(width=4, architectures=(Architecture.HYBRID,), source=ExhaustiveSource())
        )
        assert report.summaries[0].pairs == 256


_REPORT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: round(x, 6)),
    st.sampled_from([-0.0, 0.0, 1e-07, 1e16, 0.1 + 0.2, 2.0**53]),
    st.text(),
)


class _Count(int):
    """An int subclass whose own repr the emitter, as ``json.dumps``, must not use."""

    def __repr__(self):
        return "Count()"


class _Label(str):
    """A str subclass whose own repr the emitter must not use either."""

    def __repr__(self):
        return "Label()"


def report_values():
    """Values shaped like a report payload: nested str-keyed dicts, lists and tuples of its scalars."""
    return st.recursive(
        _REPORT_SCALARS,
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=12,
    )


class TestEmitters:
    @pytest.fixture()
    def report(self):
        campaign = Campaign(
            width=8,
            source=RandomSource(40, "sparse3"),
            seed=7,
            simulate_toggles=True,
            ssst=True,
            vdds=(0.8, 1.2),
        )
        return run_campaign(campaign)

    def test_csv_schema(self, report):
        text = render_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(ALL_ARCHITECTURES) * 2  # archs x vdds
        first = lines[1].split(",")
        assert first[0] == "conventional"
        assert first[-1] == "0.8"

    def test_csv_and_json_encode_identical_numbers(self, report):
        csv_rows = render_csv(report).strip().split("\n")[1:]
        payload = json.loads(render_json(report))
        for entry in payload["archs"]:
            rows = [r.split(",") for r in csv_rows if r.startswith(entry["name"] + ",")]
            assert int(rows[0][2]) == entry["pp_total"]
            assert int(rows[0][3]) == entry["add_total"]
            assert int(rows[0][4]) == entry["toggles"]
            for row, cell in zip(rows, entry["per_vdd"]):
                assert float(row[5]) == pytest.approx(cell["power_uW"], abs=1e-4)
                assert float(row[6]) == pytest.approx(cell["delay_ns"], abs=1e-4)

    def test_deterministic_output(self, report):
        campaign = report.campaign
        again = run_campaign(campaign)
        assert render_csv(report) == render_csv(again)
        assert render_json(report) == render_json(again)

    def test_json_meta(self, report):
        payload = json.loads(render_json(report))
        assert payload["meta"]["width"] == 8
        assert payload["meta"]["seed"] == 7
        assert payload["meta"]["distribution"] == "sparse3"
        assert payload["meta"]["ssst"] is True

    @given(report_values())
    @example({"power_uW": [-0.0, 0.0, 1e-07, 1e16, 0.1 + 0.2, round(1 / 3, 6)], "count": 2**70, "none": None})
    @example({"": [], "a": {}, "b": [True], "c": {"d": False}, "e": ()})
    @example({"inputs": 'file:q"uote\\back\x00\x1f\x7f caf\u00e9 \u2028 \U0001f600 \ud800'})
    @example({"count": _Count(7), "name": _Label("booth"), "rows": [_Count(-3), _Label('q"')]})
    @example(_Count(2**70))
    @example(_Label("file:caf\u00e9"))
    def test_emitter_writes_json_dumps_bytes(self, value):
        assert harness._json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_emitter_refuses_nan_and_infinity(self, bad):
        with pytest.raises(ValueError, match="no NaN or infinity"):
            harness._json({"archs": [{"power_uW": bad}]})

    @pytest.mark.parametrize("bad", [{1}, b"x", 1j, object()], ids=["set", "bytes", "complex", "object"])
    def test_emitter_refuses_what_json_dumps_refuses(self, bad):
        """A value of a type ``json.dumps`` refuses raises its TypeError, with its words."""
        value = {"archs": [bad]}
        with pytest.raises(TypeError) as refused:
            json.dumps(value)
        with pytest.raises(TypeError, match=f"^{re.escape(str(refused.value))}$"):
            harness._json(value)

    def test_ascii_mentions_archs(self, report):
        text = render_ascii(report)
        for arch in ALL_ARCHITECTURES:
            assert arch.value in text

    def test_svg_is_well_formed_chart(self, report):
        text = render_svg(report)
        assert text.startswith("<svg")
        assert "polyline" in text
        assert text.rstrip().endswith("</svg>")

    @pytest.mark.parametrize("costs", [{}, {"booth": {}}], ids=["no-series", "empty-series"])
    def test_svg_refuses_a_chart_without_points(self, costs):
        with pytest.raises(ValueError, match="^no data points to chart$"):
            harness.svg_power_chart(costs, title="empty")


class TestTrace:
    def test_worked_example(self):
        result = trace(65, 34)
        assert result.category.kind == CategoryKind.D
        assert (result.category.i, result.category.j) == (2, 4)
        assert result.product == 2210
        assert result.hybrid_counts.pp_count == 1
        assert result.hybrid_counts.add_count == 1
        assert result.booth_digits == (-2, 1, -2, 1)
        assert result.booth_counts.pp_count == 4
        assert result.conventional_counts.pp_count == 8
        rendered = result.render()
        assert "SHL 4" in rendered and "ADD M" in rendered and "SHL 1" in rendered
        assert "digits +1 -2 +1 -2 (4 PP" in rendered
        assert "2210" in rendered

    def test_zero_multiplier(self):
        result = trace(5, 0)
        assert result.category.kind == CategoryKind.ZERO
        assert result.product == 0

    def test_category_e(self):
        result = trace(65, 21)
        assert result.category.kind == CategoryKind.E
        assert (result.category.i, result.category.j, result.category.k) == (1, 3, 5)
        assert result.product == 1365

    def test_negative_operands(self):
        result = trace(-65, 34)
        assert result.product == -2210
        assert result.multiplicand.bits == 65
        assert "(input -65)" in result.render()

    def test_split_multiplier(self):
        result = trace(65, 0b11110001)
        assert result.category.kind == CategoryKind.SPLIT
        assert result.split_halves is not None
        assert "split" in result.render()

    def test_one_count_pass_and_no_multiply(self, monkeypatch):
        calls = []
        original = harness.count_pairs

        def spy(*args):
            calls.append(args)
            return original(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("trace must count through count_pairs, not multiply")

        monkeypatch.setattr(harness, "count_pairs", spy)
        monkeypatch.setattr(encoding, "multiply", refuse)
        result = trace(-65, 34)
        H, B, C = Architecture.HYBRID, Architecture.BOOTH, Architecture.CONVENTIONAL
        assert calls == [(((-65, 34),), (H, B, C), 8)]
        assert (result.product, result.hybrid_counts, result.booth_counts, result.conventional_counts) == (
            -2210,
            *original([(-65, 34)], (H, B, C), 8),
        )


class TestCli:
    def test_trace_command(self, capsys):
        assert main(["trace", "65", "34"]) == 0
        out = capsys.readouterr().out
        assert "D (i=2, j=4)" in out
        assert "2210" in out

    def test_compare_csv_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        argv = [
            "compare",
            "--width", "8",
            "--inputs", "random:25",
            "--seed", "42",
            "--dist", "sparse3",
            "--format", "csv",
            "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert first.decode().startswith(CSV_HEADER)

    def test_compare_json_deterministic(self, tmp_path):
        out = tmp_path / "report.json"
        argv = [
            "compare", "--inputs", "random:10", "--seed", "1",
            "--toggles", "--ssst", "--format", "json", "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        json.loads(first)

    def test_compare_single_arch(self, capsys):
        assert main(["compare", "--inputs", "random:5", "--arch", "hybrid"]) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out
        assert "conventional" not in out

    def test_compare_runs_a_repeated_vdd_once(self, capsys):
        argv = ["compare", "--inputs", "random:3", "--vdd", "1.2", "--vdd", "0.8", "--vdd", "1.2"]
        assert main(argv + ["--format", "csv"]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[0], row[-1]) for row in rows] == [
            (arch, vdd) for arch in ("booth", "conventional", "hybrid") for vdd in ("1.2", "0.8")
        ]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all([v["vdd"] for v in a["per_vdd"]] == [1.2, 0.8] for a in payload["archs"])

    def test_table2_formats(self, tmp_path):
        svg = tmp_path / "grid.svg"
        assert main(["table2", "--format", "svg", "--out", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
        csv_path = tmp_path / "grid.csv"
        assert main(["table2", "--format", "csv", "--out", str(csv_path)]) == 0
        assert csv_path.read_text().startswith("arch,adds,vdd")

    def test_stream_command(self, capsys, tmp_path):
        trace_csv = tmp_path / "toggles.csv"
        argv = [
            "stream", "--width", "8", "--inputs", "random:20", "--seed", "42",
            "--dist", "sparse3", "--arch", "hybrid", "--ssst",
            "--trace-toggles", str(trace_csv),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "hybrid" in out
        header, first_row = trace_csv.read_text().split("\n")[:2]
        assert header == "operation,row,toggles,arch"
        assert first_row.startswith("0,")

    def test_stream_trace_separates_archs(self, capsys, tmp_path):
        trace_csv = tmp_path / "toggles.csv"
        argv = [
            "stream", "--width", "8", "--inputs", "random:30", "--seed", "5",
            "--dist", "sparse3", "--arch", "booth", "--arch", "hybrid",
            "--trace-toggles", str(trace_csv),
        ]
        assert main(argv) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            fields = line.split()
            if fields and fields[0] in ("booth", "hybrid"):
                printed[fields[0]] = int(fields[1])
        sums = {}
        for row in trace_csv.read_text().splitlines()[1:]:
            _, _, toggles, arch = row.split(",")
            sums[arch] = sums.get(arch, 0) + int(toggles)
        assert sums == printed
        assert set(sums) == {"booth", "hybrid"}

    def test_stream_unwritable_trace_path_fails_before_simulating(self, capsys, tmp_path, monkeypatch):
        def no_stream(*args, **kwargs):
            raise AssertionError("the trace path must be opened before the simulation")

        monkeypatch.setattr(harness, "simulate_configs", no_stream)
        argv = ["stream", "--inputs", "random:5", "--trace-toggles", str(tmp_path / "missing" / "t.csv")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing" in captured.err

    def test_compare_unwritable_out_path_fails_before_the_campaign(self, capsys, tmp_path, monkeypatch):
        import hybridmul.cli as cli

        def no_campaign(*args, **kwargs):
            raise AssertionError("the --out path must be opened before the campaign")

        monkeypatch.setattr(cli, "run_campaign", no_campaign)
        argv = ["compare", "--inputs", "random:5", "--out", str(tmp_path / "missing" / "r.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing" in captured.err

    @pytest.mark.parametrize("command, emitters", [("compare", "_REPORT_FORMATS"), ("table2", "_GRID_FORMATS")])
    def test_format_choices_are_the_emitter_map(self, command, emitters, capsys):
        formats = getattr(cli, emitters)
        (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (option,) = [a for a in sub.choices[command]._actions if "--format" in a.option_strings]
        assert option.choices == tuple(formats)
        extra = ["--inputs", "random:2"] if command == "compare" else []
        for name in formats:
            assert main([command, *extra, "--format", name]) == 0
        with pytest.raises(SystemExit) as refused:
            main([command, *extra, "--format", "md"])
        assert refused.value.code == 2

    def test_stream_prints_reference_claims(self, capsys):
        assert main(["stream", "--inputs", "random:10", "--seed", "3", "--dist", "sparse3"]) == 0
        out = capsys.readouterr().out
        assert "reference claim" in out

    def test_random_options_default_when_unset(self, capsys):
        assert main(["compare", "--inputs", "random:30", "--format", "json"]) == 0
        implicit = json.loads(capsys.readouterr().out)
        argv = ["compare", "--inputs", "random:30", "--seed", "0", "--dist", "uniform", "--format", "json"]
        assert main(argv) == 0
        explicit = json.loads(capsys.readouterr().out)
        assert implicit == explicit
        assert (implicit["meta"]["seed"], implicit["meta"]["distribution"]) == (0, "uniform")

    def test_off_grid_vdd_fails_before_any_work(self, no_work, capsys):
        assert main(["compare", "--inputs", "random:5", "--vdd", "1.25"]) == 2
        assert capsys.readouterr().out == ""

    def test_off_grid_vdd_with_interpolate(self):
        assert main(["compare", "--inputs", "random:5", "--vdd", "1.1", "--interpolate"]) == 0

    def test_geometry_error_is_not_reported_as_bad_input(self, monkeypatch):
        def faulty_stream(*args, **kwargs):
            raise GeometryError("9 PP rows offered to a 8-row array")

        monkeypatch.setattr(harness, "simulate_configs", faulty_stream)
        with pytest.raises(GeometryError):
            main(["stream", "--inputs", "random:3"])

    def test_stream_runs_no_count_pass(self, monkeypatch):
        def no_count(*args, **kwargs):
            raise AssertionError("stream must not count operations")

        monkeypatch.setattr(harness, "count_pairs", no_count)
        assert main(["stream", "--inputs", "random:20", "--seed", "2", "--ssst"]) == 0
        with pytest.raises(AssertionError):  # the patch does reach a count pass
            main(["compare", "--inputs", "random:3"])

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_reused_parser_keeps_no_options_between_calls(self, capsys):
        argv = ["compare", "--inputs", "random:3", "--format", "csv"]
        assert main(argv + ["--arch", "booth", "--vdd", "1.0", "--toggles"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[0], row[4] != "", row[-1]) for row in rows] == [("booth", True, "1.0")]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [(row[0], row[4], row[-1]) for row in rows] == [
            ("booth", "", "1.2"),
            ("conventional", "", "1.2"),
            ("hybrid", "", "1.2"),
        ]

    def test_stream_lists_a_repeated_arch_once(self, capsys):
        argv = ["stream", "--inputs", "random:10", "--arch", "hybrid", "--arch", "booth", "--arch", "hybrid"]
        assert main(argv) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()[2:4]]
        assert rows == ["hybrid", "booth"]

    def test_fine_vdd_keeps_its_digits(self, capsys):
        argv = ["compare", "--inputs", "random:5", "--vdd", "1.2", "--vdd", "1.25", "--interpolate"]
        assert main(argv) == 0
        assert "@ 1.25 V:" in capsys.readouterr().out
        assert main(argv + ["--format", "csv"]) == 0
        vdds = [row.split(",")[-1] for row in capsys.readouterr().out.splitlines()[1:]]
        assert vdds == ["1.2", "1.25"] * 3

    def test_table2_json_keys_every_model_voltage(self, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("1.2 17.5 0.595\n1.25 20 0.5\n")
        assert main(["table2", "--model", str(cfg), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["archs"]["hybrid"]["power_uW"] == {"1.2": 17.5, "1.25": 20.0}
        assert payload["archs"]["hybrid"]["delay_ns"] == {"1.2": 0.595, "1.25": 0.5}

    def test_product_mismatch_exit_code(self, off_by_one_core):
        assert main(["compare", "--inputs", "random:3"]) == 1

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
    @pytest.mark.parametrize("fmt", ["ascii", "json"])
    def test_product_mismatch_leaves_the_output_as_it_was(self, existing, fmt, off_by_one_core, tmp_path, capsys):
        dest = tmp_path / "old.out"
        if existing:
            dest.write_bytes(b"kept\n")
        assert main(["compare", "--inputs", "random:3", "--format", fmt, "--out", str(dest)]) == 1
        assert capsys.readouterr().out == ""
        if existing:
            assert dest.read_bytes() == b"kept\n"
        else:
            assert not dest.exists()

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "missing"])
    def test_stream_trace_is_kept_when_a_product_is_wrong(self, existing, tmp_path, capsys, monkeypatch):
        """A stream that fails after tracing some pairs leaves the trace file as it was."""
        simulate_configs = harness.simulate_configs

        def traced_then_wrong(pairs, width, configs, count=(), trace=None):
            simulate_configs(pairs[:3], width, configs, count, trace)
            a, b = pairs[3]
            raise ProductMismatchError(a, b, a * b + 1, a * b)

        monkeypatch.setattr(harness, "simulate_configs", traced_then_wrong)
        dest = tmp_path / "toggles.csv"
        if existing:
            dest.write_bytes(b"kept\n")
        assert main(["stream", "--inputs", "random:5", "--trace-toggles", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: product mismatch")
        if existing:
            assert dest.read_bytes() == b"kept\n"
        else:
            assert not dest.exists()

    def test_stream_trace_replaces_a_longer_file_and_goes_to_a_device(self, tmp_path, capsys):
        """A trace longer than one copied block replaces a longer file whole, and /dev/null takes it too."""
        argv = ["stream", "--inputs", "random:300", "--seed", "3", "--ssst", "--trace-toggles"]
        dest = tmp_path / "toggles.csv"
        assert main([*argv, str(dest)]) == 0
        trace = dest.read_bytes()
        dest.write_bytes(b"x" * (2 * len(trace)))
        assert main([*argv, str(dest)]) == 0
        assert dest.read_bytes() == trace
        first = capsys.readouterr().out
        assert main([*argv, os.devnull]) == 0
        assert capsys.readouterr().out == first[: len(first) // 2]

    def test_stream_trace_across_chunks_is_each_architectures_stream_in_turn(self, tmp_path, monkeypatch, capsys):
        """Records arrive chunk by chunk, and the file holds every architecture's own trace, one after another."""
        monkeypatch.setattr(encoding, "STREAM_CHUNK", 3)
        dest = tmp_path / "toggles.csv"
        assert main(["stream", "--inputs", "random:10", "--seed", "4", "--ssst", "--trace-toggles", str(dest)]) == 0
        pairs = gen_inputs(RandomSource(10), 8, seed=4)
        lines = ["operation,row,toggles,arch"]
        for arch in sorted(Architecture, key=str):  # the CLI's default order
            records = []
            simulate_configs(pairs, 8, [(arch, True)], trace=lambda c, i, one: records.append((i, one)))
            for i, one in records:
                *rows, final = one.per_row_toggles
                lines += [f"{i},{row},{toggles},{arch}" for row, toggles in enumerate(rows)]
                lines.append(f"{i},final,{final},{arch}")
        assert dest.read_text() == "\n".join(lines) + "\n"
        assert capsys.readouterr().out.startswith("stream: width=8 inputs=random:10 pairs=10 ssst=on")

    def test_out_replaces_a_longer_report(self, tmp_path, capsys):
        dest = tmp_path / "report.csv"
        dest.write_text("x" * 10000)
        assert main(["compare", "--inputs", "random:3", "--format", "csv", "--out", str(dest)]) == 0
        assert main(["compare", "--inputs", "random:3", "--format", "csv"]) == 0
        assert dest.read_text() == capsys.readouterr().out

    def test_trace_product_mismatch_exit_code(self, off_by_one_core):
        assert main(["trace", "65", "34"]) == 1


def _cli(argv, stdout):
    """Run ``python -m hybridmul`` from this source tree in a new process, ``stdout`` its standard output."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "hybridmul", *argv], stdout=stdout, env=env, check=True)


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout on this system")
class TestOutputIsStdout:
    """An output path that names stdout's own file is written through stdout, at its offset and in its mode."""

    def test_a_trace_to_dev_stdout_redirected_to_a_file_equals_the_piped_bytes(self, tmp_path):
        argv = ["stream", "--inputs", "random:300", "--seed", "5", "--ssst", "--trace-toggles", "/dev/stdout"]
        piped = _cli(argv, subprocess.PIPE).stdout
        with open(tmp_path / "f", "wb") as f:
            _cli(argv, f)
        assert (tmp_path / "f").read_bytes() == piped
        trace = tmp_path / "toggles.csv"
        table = _cli([*argv[:-1], str(trace)], subprocess.PIPE).stdout
        assert piped == trace.read_bytes() + table

    def test_a_report_to_dev_stdout_appended_to_a_log_keeps_its_lines(self, tmp_path):
        argv = ["compare", "--inputs", "random:3", "--format", "csv", "--out", "/dev/stdout"]
        log = tmp_path / "log"
        log.write_bytes(b"earlier line\n")
        with open(log, "ab") as f:
            _cli(argv, f)
        assert log.read_bytes() == b"earlier line\n" + _cli(argv, subprocess.PIPE).stdout
