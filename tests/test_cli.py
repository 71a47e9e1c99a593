"""End-to-end subcommand behavior through the argparse entry point."""

from __future__ import annotations

import codecs
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import random
import re
import shutil
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collabmarket.cli import MAX_DIAGNOSTICS, _check_rows, _write_delta_report, main, run_pipeline
from collabmarket.config import load_config
from collabmarket.demo import demo_corpus, write_demo_corpus
from collabmarket.errors import CollabMarketError
from collabmarket.indicators import (
    MetricDelta,
    SectorCorrespondenceRow,
    SectorFlowsRow,
    SnapshotDelta,
)
from collabmarket.ingest import iter_publications, load_registries, write_publications
from collabmarket.model import PublicationRecord
from collabmarket.report import (
    NUM6,
    delta_table,
    format_cell,
    render_table,
    sanitize_code,
    sector_correspondence_table,
    sector_flows_table,
)

DIGESTS = Path(__file__).resolve().parent / "demo_output_digests.json"

# Past the JSON parser's recursion limit on every supported Python (3.13
# parses an array 5000 levels deep).
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000

# One digit more than int() converts from text.
LONG_INTEGER = "9" * (sys.get_int_max_str_digits() + 1)

# A sector code or region name whose table files' names pass 255 bytes.
LONG_NAME = "X" * 250


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    return write_demo_corpus(directory)


@pytest.fixture(scope="module")
def analyzed_dir(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("analyzed")
    assert main(["analyze", "--config", str(corpus["config"]), "--out", str(out)]) == 0
    return out


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _files_but_out_line(directory: Path) -> dict[str, bytes]:
    """``_files``, with the ``out`` line of effective_config.txt left out:
    it names the run's own directory."""
    files = _files(directory)
    config = files["effective_config.txt"].splitlines()
    files["effective_config.txt"] = [line for line in config if not line.startswith(b"out = ")]
    return files


class TestValidate:
    def test_clean_corpus_exits_zero(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["validate", "--config", str(corpus["config"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert (out / "resolution_report.csv").exists()
        assert "publications read" in captured.err

    def test_broken_corpus_collects_diagnostics(self, corpus, tmp_path, capsys):
        broken = tmp_path / "pubs.jsonl"
        lines = Path(corpus["publications"]).read_text(encoding="utf-8").splitlines()
        lines[0] = "{broken"
        lines[1] = json.dumps({"pub_id": "X1", "year": 2002, "authors": [],
                               "affiliations": ["Somewhere"]})
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main([
            "validate",
            "--config", str(corpus["config"]),
            "--publications", str(broken),
            "--out", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("error:") == 2

    @pytest.mark.parametrize("rows", [1, 25])
    def test_fatal_error_keeps_the_collected_diagnostics(self, corpus, tmp_path, capsys, rows):
        """Roster rows naming no registered university, then a last
        publication line that is not UTF-8: validate lists the rows, up to its
        cap, then the line that ended its pass; analyze names the first row,
        which it stops on; neither writes ``--out``."""
        copied = _copy_corpus(corpus, tmp_path)
        first_row = copied["roster"].read_bytes().count(b"\n") + 1
        with copied["roster"].open("a", encoding="utf-8") as handle:
            for i in range(rows):
                handle.write(f"dangling{i},A,U-NOPE,ING-INF/01,09,2001|2002|2003,1\n")
        with copied["publications"].open("ab") as handle:
            handle.write(b"\xff\n")
        last_pub = copied["publications"].read_bytes().count(b"\n")
        dangling = [
            f"error: {copied['roster']}:{first_row + i}: roster row for 'dangling{i}'"
            for i in range(min(rows, 20))
        ]
        not_utf8 = f"error: {copied['publications']}:{last_pub}: not valid UTF-8"
        out = tmp_path / "out"
        for command, named in (("validate", [*dangling, not_utf8]), ("analyze", dangling[:1])):
            assert main([command, "--config", str(copied["config"]), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == len(named)
            assert all(error.startswith(name) for error, name in zip(errors, named))
            assert ("... and 5 more" in err) == (command == "validate" and rows == 25)
            assert not out.exists()

    def test_empty_window_warns_but_passes(self, corpus, tmp_path, capsys):
        rc = main([
            "validate", "--config", str(corpus["config"]),
            "--window", "1980:1981", "--out", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "no publications" in captured.err

    def test_missing_inputs_is_usage_error(self, tmp_path, capsys):
        rc = main(["validate", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--publications", "--roster"])
    def test_nonexistent_input_file_is_usage_error(self, corpus, tmp_path, capsys, flag):
        absent = tmp_path / "absent.dat"
        rc = main(["analyze", "--config", str(corpus["config"]), flag, str(absent),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert flag.lstrip("-") in err and str(absent) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["analyze"], ["sector", "--sds", "ING-INF/01"], ["region", "--name", "Lazio"], ["validate"],
    ["diff"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("below", [False, True], ids=["at-file", "below-file"])
def test_unusable_out_is_usage_error(corpus, analyzed_dir, tmp_path, capsys, command, below):
    """--out at an existing file, or below one, exits 2 naming the path."""
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "sub" if below else blocker
    if command == ["diff"]:
        command = ["diff", "--t0", str(analyzed_dir), "--t1", str(analyzed_dir)]
    else:
        command = [*command, "--config", str(corpus["config"])]
    assert main([*command, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: {out}: " in err
    assert "Traceback" not in err


class TestNotUtf8:
    """A byte that is not UTF-8 in any input exits cleanly, naming the file
    and the line: 1 for a data file, 2 for the config file."""

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("key, rc", [
        ("publications", 1), ("organizations", 1), ("roster", 1), ("taxonomy", 1), ("config", 2),
    ])
    def test_names_file_and_line(self, corpus, tmp_path, capsys, command, key, rc):
        copied = {name: tmp_path / Path(path).name for name, path in corpus.items()}
        for name, path in corpus.items():
            copied[name].write_bytes(Path(path).read_bytes())
        lines = copied[key].read_bytes().split(b"\n")
        lines[2] = lines[2][:4] + b"\xff" + lines[2][4:]
        copied[key].write_bytes(b"\n".join(lines))
        assert main([command, "--config", str(copied["config"]),
                     "--out", str(tmp_path / "out")]) == rc
        err = capsys.readouterr().err
        assert f"{copied[key]}:3: not valid UTF-8 (invalid start byte 0xff)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_pub_id_with_a_lone_surrogate(self, corpus, tmp_path, capsys, command):
        """A JSON \\ud800 escape decodes to text no file can hold: the line
        is refused like any bad record, and validate lists it once."""
        copied = _copy_corpus(corpus, tmp_path)
        publications = copied["publications"]
        first, *rest = publications.read_text(encoding="utf-8").splitlines(keepends=True)
        first = json.dumps({**json.loads(first), "pub_id": "D\ud800"}) + "\n"
        publications.write_text("".join([first, *rest]), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--config", str(copied["config"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        message = f"{publications}:1: pub_id 'D\\ud800' holds a lone surrogate, not text"
        assert err.count(message) == 1
        assert "Traceback" not in err
        if command == "analyze":
            assert not out.exists()
        else:
            report = (out / "resolution_report.csv").read_text(encoding="utf-8")
            assert len(report.splitlines()) == 1 + len(rest)  # the header and the other lines

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("where", ["--out", "--regions", "config directory",
                                       "working directory"])
    def test_run_setting_with_a_byte_that_is_not_utf8(self, corpus, tmp_path, capsys, monkeypatch,
                                                       command, where):
        """A command line byte that is not UTF-8 reaches Python as a lone
        surrogate, and so does one in the working directory's name. In a path
        or a region it exits 2, naming the flag or the config line, before
        anything is written."""
        directory = tmp_path / ("corpus_\udcff" if where == "config directory" else "corpus")
        directory.mkdir()
        copied = _copy_corpus(corpus, directory)
        out = tmp_path / "out"
        argv = [command, "--config", str(copied["config"]), "--out", str(out)]
        if where == "--out":
            out = tmp_path / "out_\udcff"
            argv[-1] = str(out)
        elif where == "--regions":
            argv += ["--regions", "Lazio|Vene\udcffto"]
        elif where == "working directory":
            # No --out and no out line: the default, out, below the working directory.
            lines = copied["config"].read_text(encoding="utf-8").splitlines(keepends=True)
            copied["config"].write_text("".join(l for l in lines if not l.startswith("out =")),
                                        encoding="utf-8")
            out = tmp_path / "cwd_\udcff" / "out"
            out.parent.mkdir()
            monkeypatch.chdir(out.parent)
            argv = argv[:-2]
        # As the interpreter's own stderr does, escape what cannot be encoded.
        sys.stderr.reconfigure(errors="backslashreplace")
        assert main(argv) == 2
        err = capsys.readouterr().err
        config = str(copied["config"]).encode("utf-8", "backslashreplace").decode()
        expected = {
            "--out": f"error: --out: out is not valid UTF-8: {str(out)!r}",
            "--regions": "error: --regions: regions is not valid UTF-8: 'Lazio|Vene\\udcffto'",
            "config directory": f"error: {config}:2: publications is not valid UTF-8",
            "working directory": f"error: out is not valid UTF-8: {str(out)!r}",
        }[where]
        assert err.startswith(expected)
        assert "Traceback" not in err
        assert not out.exists()


def _copy_corpus(corpus, tmp_path):
    copied = {name: tmp_path / Path(path).name for name, path in corpus.items()}
    for name, path in corpus.items():
        copied[name].write_bytes(Path(path).read_bytes())
    return copied


class TestNotFinite:
    """A roster weight or capacity multiplier that is not a finite number, or
    a headcount or capacity past the float range, is refused with a message
    naming it, never a traceback."""

    def _set_first_weight(self, roster, weight):
        lines = roster.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + weight
        roster.write_text("\n".join(lines) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("weight", ["inf", "1e999"])
    def test_roster_weight(self, corpus, tmp_path, capsys, command, weight):
        copied = _copy_corpus(corpus, tmp_path)
        self._set_first_weight(copied["roster"], weight)
        rc = main([command, "--config", str(copied["config"]), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"{copied['roster']}:2: headcount_weight is not a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_capacity_multiplier(self, corpus, tmp_path, capsys, command):
        copied = _copy_corpus(corpus, tmp_path)
        with copied["config"].open("a", encoding="utf-8") as handle:
            handle.write("capacity.ING-INF/01 = inf\n")
        rc = main([command, "--config", str(copied["config"]), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "capacity multiplier for 'ING-INF/01' is not a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, capacity", [
        pytest.param(command, capacity, id=command[0] + ("-capacity" if capacity else ""))
        for capacity in (False, True)
        for command in (["analyze"], ["sector", "--sds", "ING-INF/01"],
                        ["region", "--name", "Abruzzo"], ["validate"])
    ])
    def test_headcount_sum_past_the_float_range(self, corpus, tmp_path, capsys, command,
                                                capacity):
        """Two finite weights whose sum overflows, or one weight times a finite
        capacity multiplier, exit 1 naming the table, the sector, the region
        and the column; the run commands stop before --out is created."""
        copied = _copy_corpus(corpus, tmp_path)
        lines = copied["roster"].read_text(encoding="utf-8").splitlines()
        rows = [i for i, line in enumerate(lines) if ",U-ABR,ING-INF/01," in line][:2]
        assert len(rows) == 2
        for i in rows[:1] if capacity else rows:
            lines[i] = lines[i].rsplit(",", 1)[0] + ",1e308"
        copied["roster"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        if capacity:
            with copied["config"].open("a", encoding="utf-8") as handle:
                handle.write("capacity.ING-INF/01 = 10\n")
        out = tmp_path / "out"
        rc = main([*command, "--config", str(copied["config"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        column = "surplus" if capacity else "scientists"
        assert ("error: table2 of sector 'ING-INF/01', region 'Abruzzo': "
                f"{column} is inf, not a finite number") in err
        assert "Traceback" not in err
        assert out.exists() == (command == ["validate"])

    @pytest.mark.parametrize("command", [
        ["analyze"], ["sector", "--sds", "ING-INF/01"], ["region", "--name", "Trentino Alto Adige"]
    ], ids=["analyze", "sector", "region"])
    @pytest.mark.parametrize("rows, weight, capacity, problem", [
        ("U-ABR", "5e-324", None, "table2 of sector 'ING-INF/01', region 'Abruzzo': "
         "demand_per_scientist is inf, not a finite number"),
        ("U-ABR", "1", "1e-320", "table2 of sector 'ING-INF/01', region 'Abruzzo': "
         "demand_per_scientist is inf, not a finite number"),
        ("U-", "0.2", "5e-324", "table2 of sector 'ING-INF/01', region 'Abruzzo': "
         "demand_per_scientist is inf, not a finite number"),
        ("U-", "0.005", "5e-324", "table2 of sector 'ING-INF/01', region 'Abruzzo': "
         "demand_per_scientist is NA for 0.025 scientists, whose capacity underflows to 0"),
    ], ids=["weight", "capacity", "capacity-and-weights", "capacity-underflow"])
    def test_capacity_too_small_for_a_ratio(self, corpus, tmp_path, capsys, command, rows,
                                            weight, capacity, problem):
        """A finite, positive capacity so small that demand over it passes the
        float range, or that it underflows to zero, exits 1 naming the table,
        sector, region and column before --out is created."""
        copied = _copy_corpus(corpus, tmp_path)
        lines = copied["roster"].read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if f",{rows}" in line and ",ING-INF/01," in line:
                lines[i] = line.rsplit(",", 1)[0] + "," + weight
        copied["roster"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        if capacity:
            with copied["config"].open("a", encoding="utf-8") as handle:
                handle.write(f"capacity.ING-INF/01 = {capacity}\n")
        out = tmp_path / "out"
        rc = main([*command, "--config", str(copied["config"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {problem}\n" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_supply_per_scientist_past_the_float_range(self, corpus, tmp_path, capsys):
        """A capacity multiplier can keep table2 finite while table3, which
        divides by the raw headcount, is not."""
        copied = _copy_corpus(corpus, tmp_path)
        lines = copied["roster"].read_text(encoding="utf-8").splitlines()
        lines = [line.rsplit(",", 1)[0] + ",5e-324" if ",U-ABR,ING-INF/01," in line else line
                 for line in lines]
        copied["roster"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        with copied["config"].open("a", encoding="utf-8") as handle:
            handle.write("capacity.ING-INF/01 = 1e300\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(copied["config"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert ("error: table3 of sector 'ING-INF/01', region 'Abruzzo': "
                "national_supply_per_scientist is inf, not a finite number") in err
        assert not out.exists()

    def test_sector_computes_only_its_own_rows(self, corpus, analyzed_dir, tmp_path, capsys):
        """A headcount past the float range in CHIM/07 stops analyze, whose
        table4 cards span every sector, but not ``sector --sds ING-INF/01``:
        it writes analyze's files of that sector on the clean corpus."""
        copied = _copy_corpus(corpus, tmp_path)
        with copied["roster"].open("a", encoding="utf-8") as handle:
            for name in ("overflow01", "overflow02"):
                handle.write(f"{name},A,U-ABR,CHIM/07,03,2001|2002|2003,1e308\n")
        run = ["--config", str(copied["config"])]
        assert main(["analyze", *run, "--out", str(tmp_path / "analyze")]) == 1
        assert ("error: table2 of sector 'CHIM/07', region 'Abruzzo': scientists is inf, "
                "not a finite number") in capsys.readouterr().err
        out = tmp_path / "sector"
        assert main(["sector", *run, "--sds", "ING-INF/01", "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        expected = {name: data for name, data in _files(analyzed_dir).items()
                    if name.split(".")[0].endswith("_ING-INF-01")}
        assert len(expected) == 5
        assert _files(out) == expected

    def test_rel_to_mean_of_ratios_that_sum_past_the_float_range(self, corpus, tmp_path):
        """With a capacity multiplier of 1e-308 every demand per scientist is
        finite but their sum is not; each rel value is still its ratio over
        the exact mean of the eligible regions, never 0 for a positive ratio."""
        copied = _copy_corpus(corpus, tmp_path)
        with copied["config"].open("a", encoding="utf-8") as handle:
            handle.write("capacity.ING-INF/01 = 1e-308\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(copied["config"]), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in
                (out / "table2_ING-INF-01.jsonl").read_text(encoding="utf-8").splitlines()]
        eligible = [row for row in rows if row["scientists"] > 0]
        ratios = [row["demand_per_scientist"] for row in eligible]
        assert math.isinf(sum(ratios))
        mean = float(sum(map(Fraction, ratios)) / len(eligible))
        abruzzo = next(row for row in rows if row["region"] == "Abruzzo")
        assert abruzzo["demand_per_scientist"] > 1e307
        for row in eligible:
            assert row["demand_per_scientist_rel"] == pytest.approx(
                row["demand_per_scientist"] / mean, rel=1e-12), row["region"]

    @pytest.mark.parametrize("command", [["analyze"], ["region", "--name", "Lombardy"]],
                             ids=["analyze", "region"])
    def test_region_statistics_of_ratios_near_the_float_maximum(self, corpus, tmp_path, capsys,
                                                                command):
        """CHIM/07 is made a copy of ING-INF/01, with its own scientists and
        publications, and both sectors get a capacity multiplier of 1e-308:
        Lombardy's demand per scientist is about 1.68e308 in each. Their mean
        and median are finite, and so is every value of table4 and table5."""
        copied = _copy_corpus(corpus, tmp_path)
        roster = copied["roster"].read_text(encoding="utf-8").splitlines()
        with copied["roster"].open("a", encoding="utf-8") as handle:
            for line in roster[1:]:
                surname, rest = line.split(",", 1)
                handle.write(f"chim{surname},{rest.replace(',ING-INF/01,09,', ',CHIM/07,03,')}\n")
        publications = copied["publications"].read_text(encoding="utf-8").splitlines()
        with copied["publications"].open("a", encoding="utf-8") as handle:
            for line in publications:
                record = json.loads(line)
                record["pub_id"] = "C" + record["pub_id"]
                for author in record["authors"]:
                    author["surname"] = "chim" + author["surname"]
                handle.write(json.dumps(record) + "\n")
        with copied["config"].open("a", encoding="utf-8") as handle:
            handle.write("capacity.ING-INF/01 = 1e-308\ncapacity.CHIM/07 = 1e-308\n")
        out = tmp_path / "out"
        rc = main([*command, "--config", str(copied["config"]), "--out", str(out)])
        assert "Traceback" not in capsys.readouterr().err
        assert rc == 0
        (card,) = [json.loads(line) for line in
                   (out / "table4_Lombardy.jsonl").read_text(encoding="utf-8").splitlines()]
        assert card["observations"] == 2
        ratio = 79 / 47 / 1e-308
        for name in ("mean", "median", "minimum", "maximum"):
            assert card[name] == pytest.approx(ratio, rel=1e-12), name
        assert card["standard_error"] == 0.0
        tables = [out / "table4_Lombardy.jsonl"]
        if command == ["analyze"]:
            tables += [out / "table5_aggregate.jsonl", *out.glob("table4_*.jsonl")]
            assert len(tables) == 2 + 19
        for path in tables:
            for line in path.read_text(encoding="utf-8").splitlines():
                for value in json.loads(line).values():
                    assert not isinstance(value, float) or math.isfinite(value), path

    def test_large_finite_weight_is_rendered(self, corpus, tmp_path, capsys):
        copied = _copy_corpus(corpus, tmp_path)
        self._set_first_weight(copied["roster"], "1e30")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(copied["config"]), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = (out / "table2_ING-INF-01.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].startswith("Abruzzo,1000000000000000000000000000000,")


# Every positive finite float, subnormals included.
_POSITIVE_FINITE = st.floats(min_value=5e-324, max_value=sys.float_info.max)
_DEMO_ROSTER = demo_corpus()[2]  # surname, initials, university_id, sds, ...
_ROSTER_GROUPS = sorted({(row[2], row[3]) for row in _DEMO_ROSTER})


@settings(max_examples=30, deadline=None)
@given(
    weights=st.dictionaries(st.sampled_from(_ROSTER_GROUPS), _POSITIVE_FINITE, max_size=4),
    capacity=st.dictionaries(
        st.sampled_from(sorted({sds for _, sds in _ROSTER_GROUPS})), _POSITIVE_FINITE, max_size=3
    ),
)
@example(weights={("U-ABR", "ING-INF/01"): 5e-324}, capacity={})
@example(weights={}, capacity={"ING-INF/01": 1e-320})
@example(weights={("U-ABR", "ING-INF/01"): 1e308}, capacity={})
@example(weights={}, capacity={"ING-INF/01": 1e-308})
def test_validate_refuses_exactly_what_analyze_refuses(corpus, weights, capacity):
    """Roster weights, set per university and sector, and capacity
    multipliers from the whole positive finite range: analyze exits 0 or 1
    with no traceback and no --out after a refusal, and validate exits 1
    exactly when analyze does."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        copied = _copy_corpus(corpus, tmp)
        lines = copied["roster"].read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines[1:], start=1):
            weight = weights.get(tuple(line.split(",")[2:4]))
            if weight is not None:
                lines[i] = line.rsplit(",", 1)[0] + f",{weight!r}"
        copied["roster"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        with copied["config"].open("a", encoding="utf-8") as handle:
            for sds, multiplier in capacity.items():
                handle.write(f"capacity.{sds} = {multiplier!r}\n")
        runs = {}
        for command in ("analyze", "validate"):
            out = tmp / command
            err = io.StringIO()  # capsys is a function fixture, which @given cannot take
            with contextlib.redirect_stderr(err):
                rc = main([command, "--config", str(copied["config"]), "--out", str(out)])
            assert "Traceback" not in err.getvalue()
            runs[command] = rc, out.exists()
    assert runs["analyze"] in ((0, True), (1, False))
    assert runs["validate"][0] == runs["analyze"][0]


@pytest.mark.parametrize("command", [
    ["analyze"], ["sector", "--sds", "ING-INF/01"], ["region", "--name", "Lombardy"], ["validate"]
], ids=["analyze", "sector", "region", "validate"])
def test_regions_that_share_a_file_name(corpus, tmp_path, capsys, command):
    """Two configured regions with one file-name stem stop every run command
    before --out exists, and validate reports the same message."""
    regions = load_config(corpus["config"]).regions
    out = tmp_path / "out"
    rc = main([*command, "--config", str(corpus["config"]), "--out", str(out),
               "--regions", "|".join([*regions, "Emilia-Romagna"])])
    err = capsys.readouterr().err
    assert rc == 1
    assert ("error: regions 'Emilia Romagna' and 'Emilia-Romagna' would both write their "
            "outputs under the name 'Emilia-Romagna'") in err
    assert "Traceback" not in err
    assert out.exists() == (command == ["validate"])


@pytest.mark.parametrize("what", ["sectors", "regions"])
@pytest.mark.parametrize("command", ["analyze", "sector", "region", "validate"])
def test_a_code_too_long_for_a_file_name(corpus, tmp_path, capsys, command, what):
    """A sector code or a configured region name whose table file names pass
    255 bytes stops every run command before --out exists, and validate
    reports the same message."""
    copied = _copy_corpus(corpus, tmp_path)
    code, flags = "ING-INF/01", []
    if what == "sectors":
        for name in ("taxonomy", "roster"):
            text = copied[name].read_text(encoding="utf-8")
            copied[name].write_text(text.replace(code, LONG_NAME), encoding="utf-8")
        code = LONG_NAME
    else:
        flags = ["--regions", "|".join([*load_config(corpus["config"]).regions, LONG_NAME])]
    options = {"sector": ["--sds", code], "region": ["--name", "Lombardy"]}.get(command, [])
    out = tmp_path / "out"
    rc = main([command, *options, "--config", str(copied["config"]), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert rc == 1
    assert (f"error: {what} {LONG_NAME!r} would write its outputs under a file name of "
            "263 bytes, past the 255 a file name may hold") in err
    assert "Traceback" not in err
    assert out.exists() == (command == "validate")


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_deeply_nested_publication_is_bad_json(corpus, tmp_path, capsys, command):
    """A publication line nested past the parser's limit is one diagnostic
    naming the file and the line; validate carries on, analyze stops."""
    path = tmp_path / "pubs.jsonl"
    lines = Path(corpus["publications"]).read_text(encoding="utf-8").splitlines()
    lines[2] = '{"pub_id": ' + DEEP_ARRAY + "}"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = main([command, "--config", str(corpus["config"]), "--publications", str(path),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("error:") == 1
    assert f"error: {path}:3: bad JSON: nested too deeply" in err
    assert "Traceback" not in err


class TestIntegerTooLong:
    """An integer literal longer than int() converts is bad JSON in every
    reader, named with its file and line, never a traceback."""

    def _corpus_line(self, corpus, tmp_path):
        """A copy of the corpus whose third line holds the integer as its year."""
        copied = _copy_corpus(corpus, tmp_path)
        lines = copied["publications"].read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[2])
        lines[2] = json.dumps(row).replace(f'"year": {row["year"]}', f'"year": {LONG_INTEGER}')
        assert LONG_INTEGER in lines[2]
        copied["publications"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        return copied

    def test_analyze_exits_1_naming_the_line(self, corpus, tmp_path, capsys):
        copied = self._corpus_line(corpus, tmp_path)
        out = tmp_path / "out"
        rc = main(["analyze", "--config", str(copied["config"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {copied['publications']}:3: bad JSON: integer too long to convert" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_validate_lists_the_line_and_writes_its_report(self, corpus, tmp_path, capsys):
        copied = self._corpus_line(corpus, tmp_path)
        out = tmp_path / "out"
        rc = main(["validate", "--config", str(copied["config"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            f"error: {copied['publications']}:3: bad JSON: integer too long to convert"
        ]
        assert "Traceback" not in err
        assert (out / "resolution_report.csv").exists()

    def test_diff_of_a_table2_line(self, analyzed_dir, tmp_path, capsys):
        damaged = tmp_path / "damaged"
        shutil.copytree(analyzed_dir, damaged)
        path = damaged / "table2_ING-INF-01.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = re.sub(r'"surplus": [^,]*', f'"surplus": {LONG_INTEGER}', lines[1])
        assert LONG_INTEGER in lines[1]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["diff", "--t0", str(analyzed_dir), "--t1", str(damaged),
                   "--out", str(tmp_path / "delta")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {path}:2: bad JSON: integer too long to convert" in err
        assert "Traceback" not in err
        assert not (tmp_path / "delta").exists()

    def test_diff_of_the_manifest(self, analyzed_dir, tmp_path, capsys):
        damaged = tmp_path / "damaged"
        shutil.copytree(analyzed_dir, damaged)
        path = damaged / "snapshot.json"
        text = path.read_text(encoding="utf-8")
        changed = re.sub(r'"ue_events": \d+', f'"ue_events": {LONG_INTEGER}', text)
        assert changed != text
        path.write_text(changed, encoding="utf-8")
        line_no = text.count("\n", 0, text.index('"ue_events": ')) + 1  # the first one's line
        assert line_no > 1
        rc = main(["diff", "--t0", str(damaged), "--t1", str(analyzed_dir),
                   "--out", str(tmp_path / "delta")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {path}:{line_no}: bad JSON: integer too long to convert" in err
        assert "Traceback" not in err
        assert not (tmp_path / "delta").exists()


class TestAnalyze:
    def test_writes_expected_files(self, corpus, tmp_path):
        out = tmp_path / "out"
        rc = main(["analyze", "--config", str(corpus["config"]), "--out", str(out)])
        assert rc == 0
        expected = {
            "effective_config.txt", "snapshot.json", "resolution_report.csv",
            "events_ue.csv", "events_sds.csv",
            "table1_regional.csv", "table1_regional.jsonl",
            "table2_ING-INF-01.csv", "table2_ING-INF-01.jsonl",
            "table3_ING-INF-01.csv", "table3_ING-INF-01.jsonl",
            "table5_aggregate.csv", "table5_aggregate.jsonl",
            "fig1_ING-INF-01.svg",
        }
        names = {p.name for p in out.iterdir()}
        assert expected <= names
        region_cards = {n for n in names if n.startswith("table4_")}
        assert len(region_cards) == 19 * 2
        manifest = json.loads((out / "snapshot.json").read_text(encoding="utf-8"))
        assert manifest["active_sds"] == {"ING-INF/01": "ING-INF-01"}
        assert manifest["totals"]["ue_events"] == 134

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(corpus["config"]), "--out", str(out)]) == 0
        first = _files(out)
        assert main(["analyze", "--config", str(corpus["config"]), "--out", str(out)]) == 0
        assert _files(out) == first

    def test_effective_config_reproduces_run(self, corpus, tmp_path):
        """Also from the effective config of an older version, which carried
        the retired keep_unresolvable key."""
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["analyze", "--config", str(corpus["config"]), "--out", str(out1),
                     "--ambiguity", "all"]) == 0
        older = tmp_path / "older.cfg"
        older.write_text((out1 / "effective_config.txt").read_text(encoding="utf-8")
                         + "keep_unresolvable = true\n", encoding="utf-8")
        assert main(["analyze", "--config", str(older), "--out", str(out2)]) == 0
        first = _files(out1)
        second = _files(out2)
        assert first.keys() == second.keys()
        for name in first:
            if name == "effective_config.txt":   # differs in the out path itself
                continue
            assert first[name] == second[name], name

    def test_byte_order_marks_are_dropped(self, corpus, tmp_path):
        """Spreadsheet tools save "CSV UTF-8" with a byte-order mark: with one
        on the three registries and the config, the run is the same."""
        copied = _copy_corpus(corpus, tmp_path)
        registries = [copied[key] for key in ("organizations", "roster", "taxonomy")]
        plain_config = load_config(copied["config"])
        plain_registry = load_registries(*registries)
        assert main(["analyze", "--config", str(copied["config"]),
                     "--out", str(tmp_path / "plain")]) == 0
        for path in (copied["config"], *registries):
            path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert load_config(copied["config"]) == plain_config
        assert load_registries(*registries) == plain_registry
        assert main(["analyze", "--config", str(copied["config"]),
                     "--out", str(tmp_path / "bom")]) == 0
        assert _files_but_out_line(tmp_path / "plain") == _files_but_out_line(tmp_path / "bom")

    def test_byte_order_mark_on_the_corpus_is_dropped(self, corpus, tmp_path, capsys):
        """A byte-order mark that starts publications.jsonl is dropped, as on
        the registries; one that starts a later line is bad JSON there."""
        copied = _copy_corpus(corpus, tmp_path)
        path = copied["publications"]
        assert main(["analyze", "--config", str(copied["config"]),
                     "--out", str(tmp_path / "plain")]) == 0
        text = path.read_bytes()
        path.write_bytes(codecs.BOM_UTF8 + text)
        assert main(["analyze", "--config", str(copied["config"]),
                     "--out", str(tmp_path / "bom")]) == 0
        assert _files_but_out_line(tmp_path / "plain") == _files_but_out_line(tmp_path / "bom")

        first, rest = text.split(b"\n", 1)
        path.write_bytes(first + b"\n" + codecs.BOM_UTF8 + rest)
        capsys.readouterr()
        assert main(["analyze", "--config", str(copied["config"]),
                     "--out", str(tmp_path / "late")]) == 1
        assert f"error: {path}:2: bad JSON: Unexpected UTF-8 BOM" in capsys.readouterr().err
        assert not (tmp_path / "late").exists()

    def test_empty_window_still_produces_outputs(self, corpus, tmp_path):
        out = tmp_path / "out"
        rc = main(["analyze", "--config", str(corpus["config"]),
                   "--window", "1980:1981", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "snapshot.json").read_text(encoding="utf-8"))
        assert manifest["active_sds"] == {}
        assert manifest["totals"]["ue_events"] == 0
        table1 = (out / "table1_regional.csv").read_text(encoding="utf-8")
        assert "Lombardy,0,0,0,0,0,0,0,NA" in table1


class TestSectorAndRegion:
    def test_sector_writes_single_sector_outputs(self, corpus, tmp_path):
        out = tmp_path / "out"
        rc = main(["sector", "--config", str(corpus["config"]),
                   "--sds", "ING-INF/01", "--out", str(out)])
        assert rc == 0
        names = {p.name for p in out.iterdir()}
        assert "table2_ING-INF-01.csv" in names
        assert "table3_ING-INF-01.jsonl" in names
        assert "fig1_ING-INF-01.svg" in names

    def test_unknown_sector_is_usage_error(self, corpus, tmp_path, capsys):
        rc = main(["sector", "--config", str(corpus["config"]),
                   "--sds", "XXX/99", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "taxonomy" in capsys.readouterr().err

    def test_unknown_sector_is_refused_before_the_pass(self, corpus, tmp_path, capsys):
        """The sector is checked once the registries are loaded: the pass
        never reaches a broken first publication line."""
        copied = _copy_corpus(corpus, tmp_path)
        path = copied["publications"]
        path.write_text('{"pub_id": "FIRST", "year": 2002,\n' + path.read_text(encoding="utf-8"),
                        encoding="utf-8")
        out = tmp_path / "out"
        rc = main(["sector", "--config", str(copied["config"]), "--sds", "XXX/99",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: sds 'XXX/99' is not in the taxonomy\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["analyze"], ["sector", "--sds", "ING-INF/01"], ["region", "--name", "Abruzzo"],
        ["validate"],
    ], ids=lambda command: command[0])
    def test_capacity_of_an_unknown_sector_is_usage_error(self, corpus, tmp_path, capsys,
                                                          command):
        """A ``capacity.`` key whose sector the taxonomy lacks (a lowercase L
        for the digit 1) is refused before the pass reads a publication."""
        copied = _copy_corpus(corpus, tmp_path)
        with copied["config"].open("a", encoding="utf-8") as handle:
            handle.write("capacity.ING-INF/0l = 2\n")
        out = tmp_path / "out"
        rc = main([*command, "--config", str(copied["config"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (
            f"error: config key capacity.ING-INF/0l names no sector of the taxonomy "
            f"{copied['taxonomy']}\n"
        )
        assert not out.exists()

    def test_region_writes_stats_card(self, corpus, tmp_path):
        out = tmp_path / "out"
        rc = main(["region", "--config", str(corpus["config"]),
                   "--name", "Lombardy", "--out", str(out)])
        assert rc == 0
        assert (out / "table4_Lombardy.csv").exists()

    def test_unknown_region_is_usage_error(self, corpus, tmp_path, capsys):
        rc = main(["region", "--config", str(corpus["config"]),
                   "--name", "Atlantis", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "region" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def analyzed(self, analyzed_dir):
        return _files(analyzed_dir)

    def test_sector_writes_analyze_files_of_that_sector(self, corpus, analyzed, tmp_path):
        active = json.loads(analyzed["snapshot.json"])["active_sds"]
        assert active
        for sds, stem in active.items():
            out = tmp_path / stem
            assert main(["sector", "--config", str(corpus["config"]),
                         "--sds", sds, "--out", str(out)]) == 0
            expected = {
                name: data for name, data in analyzed.items()
                if name.split("_", 1)[0] in ("table2", "table3", "fig1")
                and name.split("_", 1)[1].rsplit(".", 1)[0] == stem
            }
            assert "fig1_" + stem + ".svg" in expected
            assert _files(out) == expected, sds

    @pytest.mark.parametrize("window", [[], ["--window", "1980:1981"]], ids=["full", "empty"])
    def test_region_writes_analyze_card_of_that_region(self, corpus, tmp_path, window):
        """The empty window leaves every sector inactive, while the scientists
        of ING-INF/01 still count in the cards."""
        run = ["--config", str(corpus["config"]), *window]
        assert main(["analyze", *run, "--out", str(tmp_path / "analyze")]) == 0
        analyzed = _files(tmp_path / "analyze")
        regions = json.loads(analyzed["snapshot.json"])["regions"]
        assert len(regions) == 19
        for region in regions:
            out = tmp_path / sanitize_code(region)
            assert main(["region", *run, "--name", region, "--out", str(out)]) == 0
            names = [f"table4_{sanitize_code(region)}.{ext}" for ext in ("csv", "jsonl")]
            assert _files(out) == {name: analyzed[name] for name in names}, region

    def test_inactive_sector_gets_all_zero_tables_and_no_figure(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert main(["sector", "--config", str(corpus["config"]),
                     "--sds", "FIS/01", "--out", str(out)]) == 0
        assert sorted(_files(out)) == [
            "table2_FIS-01.csv", "table2_FIS-01.jsonl", "table3_FIS-01.csv", "table3_FIS-01.jsonl",
        ]
        for table in ("table2_FIS-01.csv", "table3_FIS-01.csv"):
            with (out / table).open(encoding="utf-8", newline="") as handle:
                rows = list(csv.reader(handle))[1:]
            assert len(rows) == 19
            assert all(cell in ("0", "NA") for row in rows for cell in row[1:]), table


class TestDiff:
    def _analyze(self, corpus, out, *extra):
        assert main(["analyze", "--config", str(corpus["config"]),
                     "--out", str(out), *extra]) == 0

    def test_self_diff_is_all_zero(self, corpus, tmp_path):
        out = tmp_path / "out"
        self._analyze(corpus, out)
        diff_dir = tmp_path / "delta"
        rc = main(["diff", "--t0", str(out), "--t1", str(out),
                   "--out", str(diff_dir)])
        assert rc == 0
        rows = [json.loads(line) for line in
                (diff_dir / "diff_report.jsonl").read_text().splitlines()]
        assert rows
        for row in rows:
            assert not row["flag"]
            if row["delta"] is not None:
                assert row["delta"] == 0

    def test_vanished_sector_is_flagged(self, corpus, tmp_path):
        full = tmp_path / "full"
        empty = tmp_path / "empty"
        self._analyze(corpus, full)
        self._analyze(corpus, empty, "--window", "1980:1981")
        diff_dir = tmp_path / "delta"
        rc = main(["diff", "--t0", str(full), "--t1", str(empty),
                   "--out", str(diff_dir)])
        assert rc == 0
        rows = [json.loads(line) for line in
                (diff_dir / "diff_report.jsonl").read_text().splitlines()]
        flags = {row["flag"] for row in rows}
        assert "vanished" in flags

    def test_swapping_t0_and_t1_swaps_the_report(self, corpus, tmp_path):
        """diff t1 t0 reports diff t0 t1 with the values swapped, each delta
        negated and emergent and vanished exchanged."""
        full = tmp_path / "full"
        early = tmp_path / "early"
        self._analyze(corpus, full)
        self._analyze(corpus, early, "--window", "1980:1981")
        reports = []
        for name, t0, t1 in (("forward", early, full), ("backward", full, early)):
            assert main(["diff", "--t0", str(t0), "--t1", str(t1),
                         "--out", str(tmp_path / name)]) == 0
            text = (tmp_path / name / "diff_report.jsonl").read_text(encoding="utf-8")
            reports.append([json.loads(line) for line in text.splitlines()])
        forward, backward = reports
        assert len(forward) == len(backward) > 0
        assert "emergent" in {row["flag"] for row in forward}
        swapped = {"emergent": "vanished", "vanished": "emergent", "": ""}
        for f, b in zip(forward, backward):
            assert (b["region"], b["sds"], b["metric"]) == (f["region"], f["sds"], f["metric"])
            assert (b["value_t0"], b["value_t1"]) == (f["value_t1"], f["value_t0"])
            assert b["delta"] == (None if f["delta"] is None else -f["delta"])
            assert b["flag"] == swapped[f["flag"]]

    def test_missing_snapshot_is_reported(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        self._analyze(corpus, out)
        rc = main(["diff", "--t0", str(out), "--t1", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "delta")])
        assert rc == 1
        assert "snapshot.json" in capsys.readouterr().err

    def test_missing_sector_file_is_named(self, corpus, tmp_path, capsys):
        t0 = tmp_path / "t0"
        t1 = tmp_path / "t1"
        self._analyze(corpus, t0)
        self._analyze(corpus, t1)
        (t0 / "table3_ING-INF-01.jsonl").unlink()
        rc = main(["diff", "--t0", str(t0), "--t1", str(t1),
                   "--out", str(tmp_path / "delta")])
        assert rc == 1
        assert "table3_ING-INF-01.jsonl" in capsys.readouterr().err

    def test_incompatible_regions_rejected(self, corpus, tmp_path, capsys):
        t0 = tmp_path / "t0"
        t1 = tmp_path / "t1"
        self._analyze(corpus, t0)
        self._analyze(corpus, t1)
        manifest_path = t1 / "snapshot.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["regions"] = manifest["regions"][:-1]
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        rc = main(["diff", "--t0", str(t0), "--t1", str(t1),
                   "--out", str(tmp_path / "delta")])
        assert rc == 1
        assert "region" in capsys.readouterr().err.lower()

    def _diff_warnings(self, t0, t1, out, capsys):
        capsys.readouterr()
        assert main(["diff", "--t0", str(t0), "--t1", str(t1), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return [line for line in err.splitlines() if line.startswith("warning: ")]

    @pytest.mark.parametrize("line, setting, value_t0, value_t1", [
        ("ambiguity = all", "ambiguity", "strict", "all"),
        ("sds_region_split = single", "sds_region_split", "per-region", "single"),
        ("capacity.ING-INF/01 = 2", "capacity.ING-INF/01", "1.0", "2.0"),
    ])
    def test_a_setting_that_changes_the_compared_columns_is_named(
        self, corpus, tmp_path, capsys, line, setting, value_t0, value_t1
    ):
        copied = _copy_corpus(corpus, tmp_path)
        with copied["config"].open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        t0, t1 = tmp_path / "t0", tmp_path / "t1"
        self._analyze(corpus, t0)
        assert main(["analyze", "--config", str(copied["config"]), "--out", str(t1)]) == 0
        warnings = self._diff_warnings(t0, t1, tmp_path / "delta", capsys)
        assert warnings == [
            f"warning: the snapshots differ in {setting}: {value_t0} in {t0}, {value_t1} in {t1}"
        ]

    def test_self_diff_and_other_settings_print_no_warning(self, corpus, tmp_path, capsys):
        """Two periods, or a display setting, do not change what is compared."""
        t0, t1 = tmp_path / "t0", tmp_path / "t1"
        self._analyze(corpus, t0)
        self._analyze(corpus, t1, "--window", "2001:2002", "--share-threshold", "0.4")
        assert self._diff_warnings(t0, t0, tmp_path / "self", capsys) == []
        assert self._diff_warnings(t0, t1, tmp_path / "periods", capsys) == []

    @pytest.mark.parametrize("damage", ["unknown key", "missing"])
    def test_settings_that_do_not_load_still_let_the_diff_through(
        self, corpus, tmp_path, capsys, damage
    ):
        out, damaged = tmp_path / "out", tmp_path / "damaged"
        self._analyze(corpus, out)
        shutil.copytree(out, damaged)
        config = damaged / "effective_config.txt"
        if damage == "missing":
            config.unlink()
        else:
            config.write_text(config.read_text(encoding="utf-8") + "no_such_key = 1\n",
                              encoding="utf-8")
        assert self._diff_warnings(out, out, tmp_path / "self", capsys) == []
        warnings = self._diff_warnings(out, damaged, tmp_path / "delta", capsys)
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: settings not compared: ")
        assert str(config) in warnings[0]
        assert _files(tmp_path / "delta") == _files(tmp_path / "self")


class TestDamagedSnapshot:
    """diff names the damaged file, and the line for JSONL, and exits 1."""

    @pytest.fixture
    def snapshots(self, corpus, tmp_path):
        for name in ("t0", "t1"):
            assert main(["analyze", "--config", str(corpus["config"]),
                         "--out", str(tmp_path / name)]) == 0
        return tmp_path / "t0", tmp_path / "t1"

    def _diff(self, snapshots, capsys):
        t0, t1 = snapshots
        rc = main(["diff", "--t0", str(t0), "--t1", str(t1),
                   "--out", str(t0.parent / "delta")])
        return rc, capsys.readouterr().err

    def test_line_cut_short(self, snapshots, capsys):
        path = snapshots[1] / "table2_ING-INF-01.jsonl"
        text = path.read_text(encoding="utf-8")
        cut = text.index("\n", len(text) // 2) - 5
        path.write_text(text[:cut], encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}:{text[:cut].count(chr(10)) + 1}: bad JSON" in err

    def test_renamed_key(self, snapshots, capsys):
        path = snapshots[0] / "table3_ING-INF-01.jsonl"
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace('"market_share":', '"share":'), encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}:1: expected an object with the keys region," in err

    @pytest.mark.parametrize("table, old, new, message", [
        ("table2", '"surplus": 2.0', '"surplus": "12"',
         "surplus is a string, expected a number or null"),
        ("table3", '"market_share": 1.0', '"market_share": true',
         "market_share is a boolean, expected a number or null"),
        ("table2", '"region": "Abruzzo"', '"region": 7', "region is a number, expected a string"),
    ])
    def test_value_of_the_wrong_type(self, snapshots, capsys, table, old, new, message):
        path = snapshots[1] / f"{table}_ING-INF-01.jsonl"
        text = path.read_text(encoding="utf-8")
        assert old in text.splitlines()[0]
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}:1: {message}" in err

    def test_deeply_nested_line(self, snapshots, capsys):
        path = snapshots[1] / "table2_ING-INF-01.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = DEEP_ARRAY
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}:2: bad JSON: nested too deeply" in err
        assert "Traceback" not in err

    def test_deeply_nested_manifest(self, snapshots, capsys):
        path = snapshots[0] / "snapshot.json"
        path.write_text(DEEP_ARRAY + "\n", encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}:1: bad JSON: nested too deeply" in err
        assert "Traceback" not in err

    def test_deeply_nested_manifest_value_names_its_line(self, snapshots, capsys):
        path = snapshots[0] / "snapshot.json"
        lines = path.read_text(encoding="utf-8").splitlines()
        line_no = lines.index('  "window": [') + 2  # the window's first year
        lines[line_no - 1] = re.sub(r"\d+", DEEP_ARRAY, lines[line_no - 1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"error: {path}:{line_no}: bad JSON: nested too deeply" in err
        assert "Traceback" not in err

    def test_manifest_without_regions(self, snapshots, capsys):
        path = snapshots[1] / "snapshot.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["regions"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}: 'regions' is missing" in err

    @pytest.mark.parametrize("table, old, name", [
        ("table2", '"surplus": 2.0', "surplus"),
        ("table3", '"market_share": 1.0', "market_share"),
    ])
    @pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1" + "0" * 400])
    def test_number_that_is_not_finite(self, snapshots, capsys, table, old, name, token):
        path = snapshots[1] / f"{table}_ING-INF-01.jsonl"
        text = path.read_text(encoding="utf-8")
        assert old in text.splitlines()[0]
        path.write_text(text.replace(old, f'"{name}": {token}', 1), encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}:1: {name} is not a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("table, name, high", [
        ("table2", "surplus", 1e308),
        ("table3", "market_share", 1e308),
        ("table2", "demand_per_scientist", 10**308),
    ], ids=["table2-float", "table3-float", "table2-integer"])
    def test_change_past_the_float_range(self, snapshots, capsys, table, name, high):
        """Finite values whose difference overflows exit 1 naming the sector,
        the region and the metric, before --out is created."""
        for snapshot, value in zip(snapshots, (high, -high)):
            path = snapshot / f"{table}_ING-INF-01.jsonl"
            first, rest = path.read_text(encoding="utf-8").split("\n", 1)
            row = json.loads(first)
            assert row["region"] == "Abruzzo"
            row[name] = value
            path.write_text(f"{json.dumps(row)}\n{rest}", encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert (f"error: sector 'ING-INF/01', region 'Abruzzo': {name} changes from "
                f"{high!r} to {-high!r}, past the float range") in err
        assert "Traceback" not in err
        assert not (snapshots[0].parent / "delta").exists()

    def _append_row(self, path, **changes):
        """Append a copy of the file's first row with ``changes``; its line number."""
        lines = path.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[0])
        row.update(changes)
        lines.append(json.dumps(row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return len(lines)

    def test_region_listed_twice(self, snapshots, capsys):
        path = snapshots[1] / "table2_ING-INF-01.jsonl"
        line_no = self._append_row(path, surplus=999.0)
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}:{line_no}: region 'Abruzzo' is listed twice" in err

    def test_region_outside_the_snapshot(self, snapshots, capsys):
        path = snapshots[0] / "table3_ING-INF-01.jsonl"
        line_no = self._append_row(path, region="Atlantis")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}:{line_no}: region 'Atlantis' is not in the snapshot's regions" in err

    def test_region_without_a_row(self, snapshots, capsys):
        path = snapshots[1] / "table3_ING-INF-01.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[-1])["region"] == "Veneto"
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}: no row for region 'Veneto'" in err

    def test_manifest_lists_a_region_twice(self, snapshots, capsys):
        path = snapshots[0] / "snapshot.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["regions"].append(manifest["regions"][0])
        path.write_text(json.dumps(manifest), encoding="utf-8")
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        assert f"{path}: 'regions' lists a region twice" in err


    def _surrogate_in_both(self, snapshots, change):
        """Apply ``change`` to both manifests, so that each snapshot holds what
        the other does and only the lone surrogate can stop the diff."""
        for snapshot in snapshots:
            path = snapshot / "snapshot.json"
            manifest = json.loads(path.read_text(encoding="utf-8"))
            change(snapshot, manifest)
            path.write_text(json.dumps(manifest), encoding="utf-8")

    def test_manifest_sector_with_a_lone_surrogate(self, snapshots, capsys):
        def change(snapshot, manifest):
            manifest["active_sds"] = {
                f"{sds}\ud800": stem for sds, stem in manifest["active_sds"].items()
            }

        self._surrogate_in_both(snapshots, change)
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        path = snapshots[0] / "snapshot.json"
        assert f"error: {path}: 'active_sds' holds 'ING-INF/01\\ud800', a lone surrogate" in err
        assert "Traceback" not in err
        assert not (snapshots[0].parent / "delta").exists()

    def test_manifest_region_with_a_lone_surrogate(self, snapshots, capsys):
        """The tables' rows carry the region too, so every other check passes."""

        def change(snapshot, manifest):
            region = manifest["regions"][0]
            manifest["regions"][0] = f"{region}\ud800"
            for path in snapshot.glob("table[23]_*.jsonl"):
                text = path.read_text(encoding="utf-8")
                path.write_text(
                    text.replace(json.dumps(region), json.dumps(f"{region}\ud800")),
                    encoding="utf-8",
                )

        self._surrogate_in_both(snapshots, change)
        rc, err = self._diff(snapshots, capsys)
        assert rc == 1
        path = snapshots[0] / "snapshot.json"
        assert f"error: {path}: 'regions' holds 'Abruzzo\\ud800', a lone surrogate" in err
        assert "Traceback" not in err
        assert not (snapshots[0].parent / "delta").exists()


_NAMES = st.text(st.sampled_from(["a", "Z", " ", ",", '"', "'", "é", "Ø", "€"]), max_size=5)
_DELTA_VALUES = (
    st.sampled_from([None, 0.0, -0.0, 5e-324, -1e-7, 1e21, 1e300, -1.7976931348623157e308])
    | st.floats(allow_nan=False, allow_infinity=False)
)
_METRIC_DELTAS = st.builds(
    MetricDelta, _DELTA_VALUES, _DELTA_VALUES, _DELTA_VALUES,
    st.sampled_from([None, "emergent", "vanished"]),
)


def _long_delta_report(cells: int) -> list[SnapshotDelta]:
    """More cells than two of the chunks the report is written in, with NA,
    -0.0, integers and booleans in the numeric columns."""
    values = [None, -0.0, 0.0, 3, True, False, 0.565, -2.5, 1e21, None, 5e-324]
    flags = [None, "emergent", "vanished"]
    return [
        SnapshotDelta(f"R{i % 7}", f"S{i}", *(
            MetricDelta(*(values[(i + m + k) % len(values)] for k in range(3)),
                        flags[(i + m) % 3])
            for m in range(4)
        ))
        for i in range(cells)
    ]


@settings(deadline=None)
@given(st.lists(st.builds(SnapshotDelta, _NAMES, _NAMES, *[_METRIC_DELTAS] * 4), max_size=5))
@example([])
@example(_long_delta_report(257))
@example(_long_delta_report(300))
def test_delta_report_streams_the_bytes_of_render_table(deltas):
    """The streamed delta report is ``render_table(delta_table(deltas))``,
    byte for byte, in both formats, and that is each row's cells written by
    ``format_cell`` and ``csv.writer``, or by ``json.dumps``."""
    names = ("region", "sds", "metric", "value_t0", "value_t1", "delta", "flag")
    rows = delta_table(deltas).rows
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([*row[:3], *(format_cell(v, NUM6) for v in row[3:6]), row[6]] for row in rows)
    jsonl = "".join(
        json.dumps(dict(zip(names, (*row[:3], *(None if v is None else float(v) for v in row[3:6]),
                                    row[6]))), ensure_ascii=False) + "\n"
        for row in rows
    )
    with tempfile.TemporaryDirectory() as tmp:
        _write_delta_report(Path(tmp), deltas)
        for fmt, reference in (("csv", buffer.getvalue()), ("jsonl", jsonl)):
            expected = render_table(delta_table(deltas), fmt)
            assert expected == reference
            assert (Path(tmp) / f"diff_report.{fmt}").read_bytes() == expected.encode("utf-8")


@settings(max_examples=60)
@given(st.lists(
    st.lists(st.sampled_from([None, 0.0, 1e308, -1e308, 5e-324]) | st.floats(),
             min_size=7, max_size=7),
    min_size=1, max_size=4,
))
@example([[1e308, 1e308, 1e308, 0.0, None, -0.0, 1.0]])
def test_row_check_refuses_exactly_the_values_that_are_not_finite(values):
    """``_check_rows`` screens a sector with one sum before it looks at each
    value: it must name exactly the values that are neither a finite number
    nor NA, in row and column order, also when finite values sum past the
    float range."""
    rows = [SectorFlowsRow(f"R{i}", 1, 1, 0, *row) for i, row in enumerate(values)]
    bad = [(row.region, name, value) for row in rows
           for name, value in zip(row._fields[4:], row[4:])
           if value is not None and not math.isfinite(value)]
    assert list(_check_rows({}, {"S1": rows})) == [
        f"table3 of sector 'S1', region '{region}': {name} is {value!r}, not a finite number"
        for region, name, value in bad
    ]


@settings(deadline=None)
@given(st.lists(st.floats() | st.none(), min_size=15, max_size=15),
       st.lists(st.integers(0, 10**12), min_size=4, max_size=4))
def test_jsonl_rows_read_back_as_rendered(numbers, counts):
    """Rows rendered to JSONL decode back unchanged, field by field, down to
    the sign of a zero and the type of each number."""
    numbers[0] = -0.0
    f = iter(numbers)
    correspondence = [
        SectorCorrespondenceRow("Lazio", 2.5, counts[0], next(f), next(f), next(f)),
        SectorCorrespondenceRow("Sicily", -0.0, counts[1], next(f), None, next(f)),
    ]
    flows = [SectorFlowsRow("Lazio", counts[2], counts[3], 0, *(next(f) for _ in range(7)))]
    with tempfile.TemporaryDirectory() as tmp:
        for rows, build in ((correspondence, sector_correspondence_table),
                            (flows, sector_flows_table)):
            table = build("ING-INF/01", rows)
            path = Path(tmp) / f"{table.name}.jsonl"
            path.write_text(render_table(table, "jsonl"), encoding="utf-8")
            back = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            assert [tuple(obj) for obj in back] == [row._fields for row in rows]
            assert [[repr(v) for v in obj.values()] for obj in back] == \
                [[repr(v) for v in row] for row in rows]


class TestOutputNames:
    """Two sectors whose codes sanitize to one file name are refused."""

    @pytest.fixture
    def clashing(self, corpus, tmp_path):
        taxonomy = tmp_path / "taxonomy.csv"
        taxonomy.write_text("sds,uda\nING-INF/01,09\nING-INF-01,09\n", encoding="utf-8")
        with open(corpus["roster"], encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows[::2]:
            row["sds"] = "ING-INF-01"
        roster = tmp_path / "roster.csv"
        with roster.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        return ["--config", str(corpus["config"]), "--taxonomy", str(taxonomy),
                "--roster", str(roster)]

    @pytest.mark.parametrize("command", [
        ["analyze"], ["sector", "--sds", "ING-INF/01"], ["region", "--name", "Lazio"],
    ])
    def test_clash_exits_1_before_writing(self, clashing, tmp_path, capsys, command):
        out = tmp_path / "out"
        rc = main([*command, *clashing, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "'ING-INF-01'" in err and "'ING-INF/01'" in err
        assert not out.exists()

    def test_region_clash_is_reported_before_the_sector_clash(self, corpus, clashing,
                                                              tmp_path, capsys):
        """Regions and sectors that both clash: validate lists both messages,
        the region one first; analyze stops at the region one."""
        regions = "|".join([*load_config(corpus["config"]).regions, "Emilia-Romagna"])
        region_clash = ("error: regions 'Emilia Romagna' and 'Emilia-Romagna' would both "
                        "write their outputs under the name 'Emilia-Romagna'")
        sector_clash = ("error: sectors 'ING-INF-01' and 'ING-INF/01' would both "
                        "write their outputs under the name 'ING-INF-01'")
        out = tmp_path / "validate"
        assert main(["validate", *clashing, "--regions", regions, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            region_clash, sector_clash
        ]
        out = tmp_path / "analyze"
        assert main(["analyze", *clashing, "--regions", regions, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            region_clash
        ]
        assert "Traceback" not in err
        assert not out.exists()


def test_demo_outputs_match_recorded_digests(corpus, tmp_path):
    """analyze and diff on the demo corpus write the bytes recorded in
    demo_output_digests.json, which were taken from the implementation with
    frozen-dataclass records. effective_config.txt is left out: it holds the
    absolute paths of the run."""
    config = str(corpus["config"])
    assert main(["analyze", "--config", config, "--window", "1980:1981",
                 "--out", str(tmp_path / "t0")]) == 0
    assert main(["analyze", "--config", config, "--out", str(tmp_path / "t1")]) == 0
    assert main(["diff", "--t0", str(tmp_path / "t0"), "--t1", str(tmp_path / "t1"),
                 "--out", str(tmp_path / "delta")]) == 0
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for name in ("t0", "t1", "delta")
        for path in sorted((tmp_path / name).rglob("*"))
        if path.is_file() and path.name != "effective_config.txt"
    }
    assert digests == json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_run_commands_print_the_warnings_of_validate(corpus, tmp_path, capsys):
    """With an alias that two organizations share and a publication none of
    whose affiliations resolve, analyze, sector and region print the warning
    lines that validate prints."""
    copied = _copy_corpus(corpus, tmp_path)
    path = copied["organizations"]
    rows = path.read_text(encoding="utf-8").splitlines()
    path.write_text(
        "".join(f"{row}|Shared Lab\n" if row.startswith(("E-ABR,", "E-BAS,")) else f"{row}\n"
                for row in rows),
        encoding="utf-8",
    )
    orphan = {"pub_id": "ORPHAN", "year": 2002, "authors": [{"surname": "nobody", "initials": "A"}],
              "affiliations": ["Nowhere Institute", "***"]}
    with copied["publications"].open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(orphan) + "\n")

    def warnings(*command):
        out = tmp_path / command[0]
        assert main([*command, "--config", str(copied["config"]), "--out", str(out)]) == 0
        return [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning")]

    expected = warnings("validate")
    assert expected == [
        "warning: alias 'shared lab' is shared by E-ABR, E-BAS; resolving to E-ABR",
        "warning: publication 'ORPHAN': no affiliation resolved",
    ]
    assert warnings("analyze") == expected
    assert warnings("sector", "--sds", "ING-INF/01") == expected
    assert warnings("region", "--name", "Lombardy") == expected


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_unresolved_publication_warnings_are_capped(corpus, tmp_path, capsys, command):
    """Past ``MAX_DIAGNOSTICS`` publications with no resolved affiliation,
    one line counts the rest; the resolution report still lists them all."""
    copied = _copy_corpus(corpus, tmp_path)
    orphans = [f"ORPHAN{i:02d}" for i in range(MAX_DIAGNOSTICS + 5)]
    with copied["publications"].open("a", encoding="utf-8") as handle:
        for pub_id in orphans:
            handle.write(json.dumps({"pub_id": pub_id, "year": 2002, "affiliations": ["Nowhere"],
                                     "authors": [{"surname": "nobody", "initials": "A"}]}) + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(copied["config"]), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("warning: ")] == [
        f"warning: publication {pub_id!r}: no affiliation resolved"
        for pub_id in orphans[:MAX_DIAGNOSTICS]
    ] + ["warning: ... and 5 more publications with no affiliation resolved"]
    report = (out / "resolution_report.csv").read_text(encoding="utf-8").splitlines()
    assert report[-len(orphans):] == [f"{pub_id},0,0,1,0,0" for pub_id in orphans]


@pytest.mark.parametrize("split", ["per-region", "single"])
@pytest.mark.parametrize("ambiguity", ["strict", "all"])
def test_event_exports_are_in_sort_key_order(corpus, tmp_path, split, ambiguity):
    """The exports list the UE events by pub_id, university and enterprise,
    and the SDS events by pub_id, sector, supply region and enterprise, for
    publications in shuffled order whose ids order differently as strings and
    as numbers (P10 before P9). Half of them join two demo publications, so
    one publication has several events of each kind."""
    publications = demo_corpus()[0]
    half = len(publications) // 2
    joined = [
        PublicationRecord(a.pub_id, a.year, a.authors + b.authors, a.affiliations + b.affiliations)
        for a, b in zip(publications, publications[half:])
    ]
    records = [pub._replace(pub_id=f"P{i}") for i, pub in enumerate(joined + publications)]
    random.Random(5).shuffle(records)
    copied = _copy_corpus(corpus, tmp_path)
    write_publications(records, copied["publications"])
    with copied["config"].open("a", encoding="utf-8") as handle:
        handle.write(f"ambiguity = {ambiguity}\nsds_region_split = {split}\n")
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(copied["config"]), "--out", str(out)]) == 0
    for name, key in (("events_ue.csv", itemgetter(0, 1, 3)),
                      ("events_sds.csv", itemgetter(0, 1, 3, 4))):
        with (out / name).open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(set(map(tuple, rows))) == len(rows)
        assert len({row[0] for row in rows}) < len(rows)  # a publication with several
        assert rows == sorted(rows, key=key)


@pytest.mark.parametrize("seed", [0, 1])
def test_publication_order_leaves_analyze_outputs_unchanged(corpus, tmp_path, seed):
    """A metamorphic relation: shuffling the lines of the publications file
    changes no output. The resolution report follows input order, so its rows
    are compared as a sorted list; effective_config.txt names the input path."""
    lines = Path(corpus["publications"]).read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines), encoding="utf-8")
    config = str(corpus["config"])
    assert main(["analyze", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", "--config", config, "--publications", str(shuffled),
                 "--out", str(tmp_path / "b")]) == 0
    original, permuted = _files(tmp_path / "a"), _files(tmp_path / "b")
    for files in (original, permuted):
        del files["effective_config.txt"]
        header, *rows = files["resolution_report.csv"].splitlines()
        files["resolution_report.csv"] = [header, *sorted(rows)]
    assert permuted == original


class TestMalformedLastLine:
    """The parse is streamed through the pass, so a bad line is found only
    after every line before it went through; it still stops the run cleanly."""

    @pytest.fixture
    def broken(self, corpus, tmp_path):
        copied = _copy_corpus(corpus, tmp_path)
        with copied["publications"].open("a", encoding="utf-8") as handle:
            handle.write('{"pub_id": "LAST", "year": 2002,\n')
        return copied

    def test_analyze_exits_1_naming_the_line_and_writes_nothing(self, broken, tmp_path, capsys):
        lines = broken["publications"].read_text(encoding="utf-8").count("\n")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(broken["config"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {broken['publications']}:{lines}: bad JSON" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_validate_lists_diagnostics_in_load_order(self, broken, tmp_path, capsys):
        """Registry diagnostics first, then the publications' in line order,
        as when the whole corpus was loaded before the pass."""
        publications = broken["publications"].read_text(encoding="utf-8").splitlines()
        publications[3] = "[]"
        broken["publications"].write_text("\n".join(publications) + "\n", encoding="utf-8")
        with broken["roster"].open("a", encoding="utf-8") as handle:
            handle.write("nobody,A,U-NONE,ING-INF/01,09,2002,1\n")
        config = load_config(broken["config"])
        expected: list[str] = []
        load_registries(config.organizations, config.roster, config.taxonomy, config.regions,
                        expected)
        list(iter_publications(config.publications, config.window, expected))
        assert len(expected) == 3

        rc = main(["validate", "--config", str(broken["config"]),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            f"error: {message}" for message in expected
        ]
        assert "Traceback" not in err


class TestPipeline:
    def test_repeated_affiliations_resolve_as_if_one_by_one(self, corpus, tmp_path):
        """A copy of each publication listing every affiliation twice has the
        original's report row with the three affiliation tallies doubled."""
        publications = demo_corpus()[0]
        repeated = publications + [
            pub._replace(pub_id=f"{pub.pub_id}-copy", affiliations=pub.affiliations * 2)
            for pub in publications
        ]
        path = tmp_path / "repeated.jsonl"
        write_publications(repeated, path)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(corpus["config"]), "--publications", str(path),
                     "--out", str(out)]) == 0
        rows = run_pipeline(load_config(corpus["config"])).report_rows
        assert any(alias for _, _, alias, *_ in rows)
        with (out / "resolution_report.csv").open(encoding="utf-8", newline="") as handle:
            written = list(csv.reader(handle))[1:]
        assert written == [[str(cell) for cell in row] for row in rows] + [
            [f"{pub_id}-copy", *(str(2 * n) for n in tallies), str(unique), str(ambiguous)]
            for pub_id, *tallies, unique, ambiguous in rows
        ]


def test_pipeline_leaves_the_garbage_collector_as_it_found_it(corpus, tmp_path):
    config = load_config(corpus["config"])
    missing = replace(config, roster=tmp_path / "absent.csv")
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            run_pipeline(config)
            assert gc.isenabled() is enabled
            with pytest.raises(CollabMarketError):
                run_pipeline(missing)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
