"""Run configuration: defaults, validation, file round-trip, file lines and flags."""

from __future__ import annotations

from pathlib import Path

import pytest

from collabmarket.cli import _RUN_FLAGS, _config_from_args, build_parser, main
from collabmarket.config import (
    ITALIAN_REGIONS,
    RunConfig,
    apply_setting,
    dump_config,
    load_config,
)
from collabmarket.errors import UsageError


class TestDefaultsAndValidation:
    def test_defaults(self):
        config = RunConfig()
        assert config.regions == ITALIAN_REGIONS
        assert len(ITALIAN_REGIONS) == 20
        assert config.ambiguity == "strict"
        assert config.sds_region_split == "per-region"
        assert config.quadrant_share_threshold == 0.5
        assert config.aggregation_na_policy == "coerce-zero"
        assert config.capacity_multipliers == {}

    @pytest.mark.parametrize("kwargs", [
        {"ambiguity": "maybe"},
        {"sds_region_split": "both"},
        {"aggregation_na_policy": "drop"},
        {"quadrant_share_threshold": 0.0},
        {"quadrant_share_threshold": 1.0},
        {"window": (2003, 2001)},
        {"regions": ()},
        {"regions": ("Lazio", "Lazio")},
        {"capacity_multipliers": {"S1": 0.0}},
        {"capacity_multipliers": {"S1": -1.0}},
        {"out": Path("out_\udcff")},
        {"regions": ("Lazio", "Vene\udcffto")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(UsageError):
            RunConfig(**kwargs)

    def test_require_inputs(self, tmp_path):
        with pytest.raises(UsageError):
            RunConfig().require_inputs()
        complete = RunConfig(
            publications=tmp_path / "p.jsonl",
            organizations=tmp_path / "o.csv",
            roster=tmp_path / "r.csv",
            taxonomy=tmp_path / "t.csv",
        )
        for name in ("p.jsonl", "o.csv", "r.csv", "t.csv"):
            (tmp_path / name).write_text("", encoding="utf-8")
        complete.require_inputs()
        (tmp_path / "r.csv").unlink()
        with pytest.raises(UsageError, match="roster"):
            complete.require_inputs()


class TestConfigFile:
    def test_load_resolves_paths_against_config_dir(self, tmp_path):
        nested = tmp_path / "inputs"
        nested.mkdir()
        cfg = nested / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "publications = pubs.jsonl\n"
            "organizations = organizations.csv\n"
            "roster = roster.csv\n"
            "taxonomy = taxonomy.csv\n"
            "out = results\n"
            "window = 2001:2003\n"
            "regions = Lazio|Veneto\n"
            "ambiguity = all\n"
            "sds_region_split = single\n"
            "quadrant_share_threshold = 0.4\n"
            "aggregation_na_policy = renormalize\n"
            "capacity.ING-INF/01 = 1.5\n"
            "keep_unresolvable = true\n",
            encoding="utf-8",
        )
        config = load_config(cfg)
        assert config.publications == nested / "pubs.jsonl"
        assert config.out == nested / "results"
        assert config.window == (2001, 2003)
        assert config.regions == ("Lazio", "Veneto")
        assert config.ambiguity == "all"
        assert config.sds_region_split == "single"
        assert config.quadrant_share_threshold == 0.4
        assert config.aggregation_na_policy == "renormalize"
        assert config.capacity_multipliers == {"ING-INF/01": 1.5}
        # keep_unresolvable is retired: still accepted, with no effect.
        retired = cfg.read_text(encoding="utf-8")
        cfg.write_text(retired.replace("keep_unresolvable = true\n", ""), encoding="utf-8")
        assert load_config(cfg) == config

    def test_retired_key_still_needs_a_boolean(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("keep_unresolvable = maybe\n", encoding="utf-8")
        with pytest.raises(UsageError, match="expected a boolean, got 'maybe'"):
            load_config(cfg)

    def test_unknown_key_names_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("publications = p.jsonl\nmystery = 1\n", encoding="utf-8")
        with pytest.raises(UsageError) as err:
            load_config(cfg)
        assert "run.cfg:2" in str(err.value)
        assert "mystery" in str(err.value)

    def test_bad_window_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window = 2001-2003\n", encoding="utf-8")
        with pytest.raises(UsageError):
            load_config(cfg)

    def test_dump_load_round_trip(self, tmp_path):
        original = RunConfig(
            publications=tmp_path / "p.jsonl",
            organizations=tmp_path / "o.csv",
            roster=tmp_path / "r.csv",
            taxonomy=tmp_path / "t.csv",
            out=tmp_path / "out",
            window=(2001, 2003),
            regions=("Lazio", "Veneto"),
            ambiguity="all",
            sds_region_split="single",
            quadrant_share_threshold=0.4,
            aggregation_na_policy="renormalize",
            capacity_multipliers={"ING-INF/01": 1.5},
        )
        dumped = tmp_path / "effective.cfg"
        dumped.write_text(dump_config(original), encoding="utf-8")
        assert load_config(dumped) == original
        assert "keep_unresolvable" not in dumped.read_text(encoding="utf-8")

    def test_dump_is_sorted_and_newline_terminated(self, tmp_path):
        text = dump_config(RunConfig())
        lines = text.splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == sorted(keys)
        assert text.endswith("\n")


# Each run flag, its config key and a valid text for both.
FLAG_SETTINGS = [
    ("--publications", "publications", "pubs.jsonl"),
    ("--organizations", "organizations", "orgs.csv"),
    ("--roster", "roster", "roster.csv"),
    ("--taxonomy", "taxonomy", "taxonomy.csv"),
    ("--out", "out", "results"),
    ("--window", "window", "2001:2003"),
    ("--regions", "regions", "Lazio|Veneto"),
    ("--ambiguity", "ambiguity", "all"),
    ("--share-threshold", "quadrant_share_threshold", "0.4"),
]

BAD_SETTINGS = [
    ("--window", "window", "2003:2001", "window 2003:2001 is empty"),
    ("--window", "window", "2001-2003", "window must look like 2001:2003"),
    ("--regions", "regions", "", "the region set must not be empty"),
    ("--ambiguity", "ambiguity", "maybe", "ambiguity must be one of strict, all"),
    (None, "sds_region_split", "both", "sds_region_split must be one of per-region, single"),
    (None, "aggregation_na_policy", "drop",
     "aggregation_na_policy must be one of coerce-zero, renormalize"),
    ("--share-threshold", "quadrant_share_threshold", "2", "must lie strictly between 0 and 1"),
    ("--share-threshold", "quadrant_share_threshold", "half", "must be a number, got 'half'"),
    (None, "capacity.ING-INF/01", "0", "capacity multiplier for 'ING-INF/01' must be positive"),
    (None, "roster", "roster\0.csv", "roster is not a valid path: 'roster\\x00.csv'"),
]


def _from_flags(*argv: str) -> RunConfig:
    return _config_from_args(build_parser().parse_args(["analyze", *argv]))


class TestOverrides:
    def _base(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"publications = {tmp_path / 'a.jsonl'}\nwindow = 2001:2003\n", encoding="utf-8"
        )
        return cfg

    def test_flags_win_over_file_values(self, tmp_path):
        merged = _from_flags(
            "--config", str(self._base(tmp_path)),
            "--publications", str(tmp_path / "b.jsonl"),
            "--out", str(tmp_path / "out2"),
            "--window", "1999:2000",
            "--regions", "Lazio|Veneto",
            "--ambiguity", "all",
            "--share-threshold", "0.25",
        )
        assert merged.publications == tmp_path / "b.jsonl"
        assert merged.out == tmp_path / "out2"
        assert merged.window == (1999, 2000)
        assert merged.regions == ("Lazio", "Veneto")
        assert merged.ambiguity == "all"
        assert merged.quadrant_share_threshold == 0.25

    def test_none_overrides_keep_base(self, tmp_path):
        cfg = self._base(tmp_path)
        assert _from_flags("--config", str(cfg)) == load_config(cfg)
        assert load_config(cfg) == RunConfig(publications=tmp_path / "a.jsonl", window=(2001, 2003))


class TestSettingsFromFlagsAndFile:
    def test_every_run_flag_is_listed(self):
        assert [(flag, key) for flag, key, _ in FLAG_SETTINGS] == [
            (flag, key) for flag, key, _ in _RUN_FLAGS
        ]

    @pytest.mark.parametrize("flag, key, text", FLAG_SETTINGS)
    def test_flag_means_what_its_file_key_means(self, tmp_path, monkeypatch, flag, key, text):
        # From the config file's own directory a relative path resolves the
        # same whether it is read from the file or from the working directory.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
        from_file = load_config(cfg)
        from_flag = _from_flags(flag, text)
        assert from_flag == from_file != RunConfig()
        assert dump_config(from_flag) == dump_config(from_file)
        assert apply_setting(RunConfig(), key, text, tmp_path) == from_file

    def test_empty_value_is_unset(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out = results\nout =\nwindow = 2001:2003\nwindow =\n", encoding="utf-8")
        assert load_config(cfg) == RunConfig()
        cfg.write_text("window = 2001:2003\n", encoding="utf-8")
        assert _from_flags("--config", str(cfg), "--window", "", "--out", "") == RunConfig()

    @pytest.mark.parametrize("flag, key, text, message", BAD_SETTINGS)
    def test_bad_value_names_its_line_or_flag(self, tmp_path, capsys, flag, key, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\nambiguity = all\n{key} = {text}\n", encoding="utf-8")
        assert main(["analyze", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:3: ") and message in err
        if flag is not None:
            assert main(["analyze", flag, text]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {flag}: ") and message in err

    @pytest.mark.parametrize("flag, key, text", [
        ("--out", "out", "out_\udcff"),
        ("--publications", "publications", "p\udcff.jsonl"),
        ("--regions", "regions", "Lazio|Vene\udcffto"),
    ])
    def test_flag_that_is_not_utf8_names_the_flag(self, capsys, flag, key, text):
        """A command line byte that is not UTF-8 arrives as a lone surrogate,
        which no output file can hold."""
        assert main(["analyze", flag, text]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: {key} is not valid UTF-8: ")

    def test_path_in_a_directory_that_is_not_utf8_names_its_line(self, tmp_path):
        cfg = tmp_path / "dir_\udcff" / "run.cfg"
        cfg.parent.mkdir()
        cfg.write_text("# settings\nout = results\n", encoding="utf-8")
        with pytest.raises(UsageError, match="run.cfg:2: out is not valid UTF-8"):
            load_config(cfg)

    def test_a_key_set_twice_is_checked_line_by_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ambiguity = maybe\nambiguity = all\n", encoding="utf-8")
        with pytest.raises(UsageError, match="run.cfg:1: ambiguity must be one of"):
            load_config(cfg)


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(block.replace("|...", "|Lazio"), encoding="utf-8")
    config = load_config(cfg)
    assert config.regions == ("Abruzzo", "Basilicata", "Lazio")
    assert config.capacity_multipliers == {"ING-INF/01": 1.25}
    assert config.publications == tmp_path / "publications.jsonl"
