"""Command-line driver: flags, config file, exit codes, output routing."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import spingate
from spingate.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, _join_grid, build_parser, main
from spingate.sweep import (SweepAxis, SweepBaseline, SweepSpec, Table, emit_csv,
                            run_sweep)


def expected_csv(coop=0.25, grid=(5.0, 13.0), seed=1, outputs=("eta_H", "eta_V", "eta_S")):
    spec = SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=grid,
                     fixed=SweepBaseline(cooperativity=coop), outputs=outputs,
                     seed=seed)
    return emit_csv(run_sweep(spec))


class TestSweepRuns:
    def test_flags_only(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["--axis", "kappa_ratio", "--grid", "5:13:8", "--c", "0.25",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text() == expected_csv()

    def test_stdout_sink(self, capsys):
        code = main(["--axis", "kappa_ratio", "--grid", "5,13", "--c", "0.25",
                     "--out", "-"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == expected_csv()

    def test_config_file(self, tmp_path):
        config = {"axis": "kappa_ratio", "grid": [5, 13], "cooperativity": 0.25,
                  "seed": 1, "out": str(tmp_path / "from_config.csv")}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path)]) == EXIT_OK
        assert (tmp_path / "from_config.csv").read_text() == expected_csv()

    def test_flags_override_config(self, tmp_path, capsys):
        config = {"axis": "kappa_ratio", "grid": [5, 13], "cooperativity": 0.9,
                  "seed": 7}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        code = main(["--config", str(path), "--c", "0.25", "--seed", "1",
                     "--out", "-"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == expected_csv()

    def test_default_out_uses_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINGATE_OUT_DIR", str(tmp_path))
        code = main(["--axis", "kappa_ratio", "--grid", "5,13", "--c", "0.25"])
        assert code == EXIT_OK
        produced = tmp_path / "kappa_ratio_sweep.csv"
        assert produced.read_text() == expected_csv()

    def test_jsonl_and_svg_formats(self, tmp_path):
        jl = tmp_path / "rows.jsonl"
        assert main(["--axis", "kappa_ratio", "--grid", "5,13", "--c", "0.25",
                     "--format", "jsonl", "--out", str(jl)]) == EXIT_OK
        lines = jl.read_text().strip().split("\n")
        assert len(lines) == 2 and json.loads(lines[0])["axis"] == "kappa_ratio"
        svg = tmp_path / "curve.svg"
        assert main(["--axis", "kappa_ratio", "--grid", "1:30:1", "--c", "1.0",
                     "--format", "svg", "--out", str(svg)]) == EXIT_OK
        assert svg.read_text().startswith("<svg")

    def test_outputs_flag(self, tmp_path):
        out = tmp_path / "cols.csv"
        code = main(["--axis", "kappa_ratio", "--grid", "13,14", "--c", "0.25",
                     "--outputs", "eta_S", "--out", str(out)])
        assert code == EXIT_OK
        header = out.read_text().split("\n")[0]
        assert header == "axis,value,eta_S,flag"

    def test_flagged_row_prints_an_empty_eta_s_cell(self, capsys):
        code = main(["--axis", "cooperativity", "--grid", "0,1", "--kappa-ratio", "inf",
                     "--out", "-"])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.split("\n")
        assert rows[1] == "cooperativity,0,0,1,,eta_v_degenerate"

    def test_svg_of_stderr_alone_has_nothing_to_plot(self, capsys):
        code = main(["--axis", "cooperativity", "--grid", "0.5,1", "--trials", "50",
                     "--outputs", "mc_stderr", "--format", "svg", "--out", "-"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "spingate: cannot write svg: no plottable columns in table\n"
        assert captured.out == ""

    SVG_ATTEMPTS = ["--axis", "detuning", "--grid", "0,2,4", "--c", "1", "--trials", "200",
                    "--format", "svg", "--out", "-"]

    def test_svg_leaves_mean_attempts_off_the_efficiency_axis(self, capsys):
        assert main(self.SVG_ATTEMPTS + ["--outputs", "eta_S,mean_attempts"]) == EXIT_OK
        beside = capsys.readouterr().out
        assert main(self.SVG_ATTEMPTS + ["--outputs", "eta_S"]) == EXIT_OK
        assert beside == capsys.readouterr().out
        assert "mean_attempts" not in beside

    def test_svg_of_mean_attempts_alone_has_nothing_to_plot(self, capsys):
        code = main(self.SVG_ATTEMPTS + ["--outputs", "mean_attempts"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == "spingate: cannot write svg: no plottable columns in table\n"
        assert captured.out == ""


class TestExitCodes:
    def test_missing_axis(self, capsys):
        assert main(["--grid", "1,2"]) == EXIT_CONFIG
        assert "axis" in capsys.readouterr().err

    def test_missing_grid(self, capsys):
        assert main(["--axis", "kappa_ratio"]) == EXIT_CONFIG

    def test_bad_grid(self, capsys):
        assert main(["--axis", "kappa_ratio", "--grid", "3,2,1"]) == EXIT_CONFIG

    def test_huge_range_grid_is_a_config_error(self, capsys):
        assert main(["--axis", "kappa_ratio", "--grid", "0:1:1e-12", "--out", "-"]) \
            == EXIT_CONFIG
        assert "bad grid: range grid has more than" in capsys.readouterr().err

    def test_empty_range_grid_is_a_config_error(self, capsys):
        assert main(["--axis", "kappa_ratio", "--grid", "5:1:1", "--out", "-"]) \
            == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "spingate: bad grid: empty grid range\n"

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"axis": "kappa_ratio", "grid": [1, 2],
                                    "typo_field": 1}))
        assert main(["--config", str(path)]) == EXIT_CONFIG

    def test_malformed_config_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == EXIT_CONFIG

    def test_bad_physical_value(self):
        assert main(["--axis", "kappa_ratio", "--grid", "1,2",
                     "--gamma", "-0.5"]) == EXIT_CONFIG

    def test_unwritable_output(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["--axis", "kappa_ratio", "--grid", "5,13", "--c", "0.25",
                     "--out", str(missing_dir)]) == EXIT_IO

    def test_argparse_rejects_unknown_format(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--axis", "kappa_ratio", "--grid", "1,2", "--format", "xml"])
        assert excinfo.value.code == 2

    def test_workers_flag_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--axis", "kappa_ratio", "--grid", "5,13", "--workers", "2"])
        assert excinfo.value.code == 2

    def test_workers_config_key_is_gone(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"axis": "kappa_ratio", "grid": [5, 13],
                                    "workers": 2}))
        assert main(["--config", str(path), "--out", "-"]) == EXIT_CONFIG
        assert "workers" in capsys.readouterr().err


class TestNegativeGrid:
    """A grid value that starts with "-" may follow ``--grid`` as its own token."""

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("grid", ["-2:2:1", "-1,0.5", "-.5", "-2"])
    def test_space_separated_value_matches_the_joined_form(self, capsys, grid):
        flags = ["--axis", "detuning", "--c", "1", "--out", "-"]
        spaced = self.run(flags[:2] + ["--grid", grid] + flags[2:], capsys)
        joined = self.run(flags[:2] + [f"--grid={grid}"] + flags[2:], capsys)
        assert spaced == joined
        assert spaced[0] == EXIT_OK and spaced[1].startswith("axis,value,")

    def test_every_grid_token_is_joined_and_the_last_wins(self, capsys):
        flags = ["--axis", "detuning", "--out", "-"]
        spaced = self.run(flags + ["--grid", "-1,0", "--grid", "-2:-1:1"], capsys)
        assert spaced == self.run(flags + ["--grid=-2:-1:1"], capsys)
        assert spaced[0] == EXIT_OK

    def test_negative_range_from_a_fresh_process(self):
        source_root = str(Path(spingate.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "spingate.cli", "--axis", "detuning", "--grid", "-2:2:1",
             "--out", "-"], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": source_root})
        assert result.returncode == EXIT_OK
        assert [line.split(",")[1] for line in result.stdout.splitlines()[1:]] == \
            ["-2", "-1", "0", "1", "2"]

    @pytest.mark.parametrize("argv", [
        ["--axis", "detuning", "--grid", "--c", "1"],
        ["--axis", "detuning", "--grid"],
    ])
    def test_a_missing_value_is_still_an_argparse_error(self, capsys, argv):
        code, out, err = self.run(argv, capsys)
        assert code == 2 and out == ""
        assert "argument --grid: expected one argument" in err

    @pytest.mark.parametrize("flag", ["--gr", "--gri", "--grid", "--gri=-2:2:1"])
    def test_every_form_argparse_reads_as_grid_is_joined(self, capsys, flag):
        flags = ["--axis", "detuning", "--out", "-"]
        argv = flags + ([flag] if "=" in flag else [flag, "-2:2:1"])
        result = self.run(argv, capsys)
        assert result == self.run(flags + ["--grid=-2:2:1"], capsys)
        assert result[0] == EXIT_OK

    def test_a_prefix_shared_with_gamma_stays_ambiguous(self, capsys):
        code, out, err = self.run(["--axis", "detuning", "--g", "-2:2:1", "--out", "-"],
                                  capsys)
        assert code == 2 and out == ""
        assert "ambiguous option: --g could match --grid, --gamma" in err

    def test_tokens_after_the_separator_stay_untouched(self):
        tail = ["--", "--grid", "-2:2:1", "--gr", "-1"]
        assert _join_grid(["--axis", "detuning"] + tail) == ["--axis", "detuning"] + tail
        assert _join_grid(["--gr", "-1"] + tail) == ["--gr=-1"] + tail


FLOAT_FLAGS = [action.option_strings[0] for action in build_parser()._actions
               if action.type is float]


class TestNegativeValues:
    """Any flag's value that starts with "-" may follow it as its own token,
    not only a plain negative decimal, which argparse takes for a number."""

    @pytest.mark.parametrize("value", ["-2e-3", "-1E+2", "-inf"])
    @pytest.mark.parametrize("flag", FLOAT_FLAGS)
    def test_space_separated_value_matches_the_joined_form(self, capsys, flag, value):
        axis = "detuning" if flag == "--kappa-ratio" else "kappa_ratio"
        flags = ["--axis", axis, "--grid", "13", "--out", "-"]
        spaced = TestNegativeGrid.run(flags + [flag, value], capsys)
        assert spaced == TestNegativeGrid.run(flags + [f"{flag}={value}"], capsys)
        assert "expected one argument" not in spaced[2]

    def test_a_negative_exponent_detuning_prints_its_row(self, capsys):
        code = main(["--axis", "kappa_ratio", "--grid", "13", "--c", "1",
                     "--detuning", "-2e-3", "--out", "-"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("axis,value,")

    @pytest.mark.parametrize("flag", ["--detu", "--trion-off"])
    def test_an_abbreviation_is_joined(self, flag):
        assert _join_grid([flag, "-1e-2"]) == [f"{flag}=-1e-2"]

    @pytest.mark.parametrize("argv", [["--help", "-2"], ["--det", "-2e-3"], ["--g", "-2:2:1"],
                                      ["--out", "-"]],
                             ids=["no_value", "ambiguous", "shared_with_gamma", "lone_dash"])
    def test_a_flag_without_one_value_or_a_lone_dash_is_not_joined(self, argv):
        assert _join_grid(argv) == argv


class TestIntegerFields:
    MC = ["--axis", "kappa_ratio", "--grid", "13", "--outputs", "mc_eta_S", "--out", "-"]

    @pytest.mark.parametrize("field, value", [
        ("trials", 1000.5), ("trials", True), ("seed", 1.5), ("seed", True),
        ("max_recycles", 2.5), ("max_recycles", False)])
    def test_config_rejects_non_integers(self, tmp_path, capsys, field, value):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({field: value}))
        assert main(["--config", str(path)] + self.MC) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert field in captured.err and captured.out == ""

    @pytest.mark.parametrize("cap", [10 ** 400, 10 ** 30, 2 ** 63 - 1])
    def test_config_rejects_a_cap_beyond_int64(self, tmp_path, capsys, cap):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"max_recycles": cap}))
        assert main(["--config", str(path)] + self.MC) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "max_recycles" in captured.err and captured.out == ""

    def test_largest_cap_runs(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"max_recycles": 2 ** 63 - 2}))
        assert main(["--config", str(path), "--trials", "100"] + self.MC) == EXIT_OK
        assert capsys.readouterr().out.startswith("axis,value,mc_eta_S")

    def test_cap_is_checked_without_monte_carlo_columns(self, capsys):
        assert main(["--axis", "kappa_ratio", "--grid", "13", "--max-recycles", "-1",
                     "--out", "-"]) == EXIT_CONFIG
        assert "max_recycles" in capsys.readouterr().err

    def test_zero_trials_is_a_config_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(self.MC + ["--trials", "0"]) == EXIT_CONFIG
        assert "trials" in capsys.readouterr().err

    def test_config_rejects_fractional_pulse_points(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"pulse_points": 100.5}))
        code = main(["--config", str(path), "--axis", "bandwidth", "--grid", "0.1",
                     "--outputs", "pulse_eta_S", "--out", "-"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "pulse_points" in captured.err and captured.out == ""


class TestConfigValueTypes:
    """A config value of the wrong JSON type exits 2, naming its key."""

    ARGV = ["--axis", "kappa_ratio", "--grid", "13", "--out", "-"]

    @pytest.mark.parametrize("config, outputs", [
        ({"gamma": "x"}, "eta_S"),
        ({"cooperativity": None}, "eta_S"),
        ({"detuning": [1]}, "eta_S"),
        ({"bandwidth": "0.1"}, "pulse_eta_S"),
        ({"eta_in": "0.5"}, "eta_S"),
        ({"eta_in": "0.5"}, "mc_eta_S"),
        ({"gamma": True}, "eta_S"),
        ({"outputs": 5}, None),
        ({"outputs": [1, "a"]}, None),
    ])
    def test_wrong_type_is_a_config_error(self, tmp_path, capsys, config, outputs):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path)] + self.ARGV
        if outputs:
            argv += ["--outputs", outputs, "--trials", "100"]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        (field,) = config
        assert field in captured.err and captured.out == ""

    @pytest.mark.parametrize("out", [True, 5])
    def test_non_string_out_is_a_config_error(self, tmp_path, out):
        # in a fresh process: a file descriptor opened here would be pytest's
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"axis": "kappa_ratio", "grid": [13], "out": out}))
        source_root = str(Path(spingate.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "spingate.cli", "--config", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": source_root})
        assert result.returncode == EXIT_CONFIG
        assert result.stdout == "" and "out must be a path string" in result.stderr


class TestRangesOnEverySweep:
    """Each row builds every library input, so an out-of-range value exits 2
    even on a sweep whose columns never read it."""

    ANALYTIC = ["--axis", "kappa_ratio", "--grid", "13", "--out", "-"]

    @pytest.mark.parametrize("flags, key", [
        (["--axis", "eta_in", "--grid", "5,7"], "eta_in"),
        (["--detector-eff", "2"], "detector_efficiency"),
        (["--dephasing", "-3"], "dephasing"),
        (["--bandwidth", "-1"], "bandwidth"),
    ])
    def test_out_of_range_value_is_a_config_error(self, capsys, flags, key):
        assert main(self.ANALYTIC + flags) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert key in captured.err and captured.out == ""

    def test_negative_gamma_names_gamma(self, capsys):
        assert main(self.ANALYTIC + ["--gamma", "-1"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "gamma must be positive" in captured.err and captured.out == ""

    def test_pulse_points_config_key_is_gone(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"pulse_points": 1024}))
        assert main(["--config", str(path)] + self.ANALYTIC) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "pulse_points" in captured.err and captured.out == ""


class TestConfigErrors:
    """Config values and files that exit 2 before any row is computed."""

    @staticmethod
    def run_config(tmp_path, capsys, config, argv=()):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(config))
        code = main(["--config", str(path), "--out", "-", *argv])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("grid", [[True, 2], {"1": 0, "3": 0}, ["1", "2"]])
    def test_grid_must_be_a_string_or_a_list_of_numbers(self, tmp_path, capsys, grid):
        code, err = self.run_config(tmp_path, capsys, {"grid": grid},
                                    ["--axis", "kappa_ratio"])
        assert code == EXIT_CONFIG and "bad grid: " in err

    @pytest.mark.parametrize("config, expected", [
        ({"grid": [1, 10 ** 400]}, "bad grid: "),
        ({"grid": [13], "cooperativity": 10 ** 400}, "cooperativity"),
        ({"grid": [13], "detuning": -10 ** 400}, "detuning"),
    ])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, config, expected):
        code, err = self.run_config(tmp_path, capsys, config, ["--axis", "kappa_ratio"])
        assert code == EXIT_CONFIG and expected in err

    def test_unknown_axis(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, {"axis": "foo", "grid": "1"})
        assert code == EXIT_CONFIG and "unknown axis 'foo'" in err

    def test_unknown_format(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, {"format": "xml"},
                                    ["--axis", "kappa_ratio", "--grid", "13"])
        assert code == EXIT_CONFIG and "unknown format 'xml'" in err

    def test_config_must_be_an_object(self, tmp_path, capsys):
        code, err = self.run_config(tmp_path, capsys, [1, 2])
        assert code == EXIT_CONFIG and "config file must hold a JSON object" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.json"), "--out", "-"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG and captured.out == ""
        assert "cannot read config file" in captured.err


class TestFlagsOverrideConfig:
    """Each flag's value beats its config key's; the key's is used alone."""

    # config key: (flag, flag value, the value it sets, a config value)
    KEYS = {
        "cooperativity": ("--c", "0.5", 0.5, 0.9),
        "kappa_ratio": ("--kappa-ratio", "7", 7.0, 11.0),
        "gamma": ("--gamma", "0.2", 0.2, 0.3),
        "detuning": ("--detuning", "0.4", 0.4, 0.6),
        "trion_offset": ("--trion-offset", "0.05", 0.05, 0.15),
        "eta_in": ("--eta-in", "0.8", 0.8, 0.9),
        "detector_efficiency": ("--detector-eff", "0.7", 0.7, 0.75),
        "dephasing": ("--dephasing", "0.01", 0.01, 0.02),
        "max_recycles": ("--max-recycles", "3", 3, 4),
        "bandwidth": ("--bandwidth", "0.2", 0.2, 0.3),
        "trials": ("--trials", "100", 100, 200),
        "axis": ("--axis", "detuning", "detuning", "cooperativity"),
        "grid": ("--grid", "1,2", [1.0, 2.0], [3, 4]),
        "outputs": ("--outputs", "eta_H", ["eta_H"], ["eta_V"]),
        "seed": ("--seed", "5", 5, 6),
    }

    @pytest.fixture
    def captured_specs(self, monkeypatch):
        specs = []

        def fake_run_sweep(spec):
            specs.append(spec)
            return Table(columns=spec.columns, rows=())

        monkeypatch.setattr("spingate.cli.run_sweep", fake_run_sweep)
        return specs

    @staticmethod
    def setting(spec, key):
        """The spec's value for a config key, in the config file's form."""
        if key == "axis":
            return spec.axis.value
        if key in ("grid", "outputs"):
            return list(getattr(spec, key))
        return getattr(spec if key == "seed" else spec.fixed, key)

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("with_flag", [True, False])
    def test_flag_wins_and_key_is_read(self, tmp_path, captured_specs, key, with_flag):
        flag, flag_text, from_flag, from_config = self.KEYS[key]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"axis": "kappa_ratio", "grid": [13],
                                    key: from_config}))
        argv = ["--config", str(path), "--out", "-"]
        if with_flag:
            argv += [flag, flag_text]
        assert main(argv) == EXIT_OK
        (spec,) = captured_specs
        assert self.setting(spec, key) == (from_flag if with_flag else from_config)


class TestNonFiniteValues:
    def test_nan_grid_value_is_a_config_error(self, capsys):
        code = main(["--axis", "bandwidth", "--grid", "nan,0.1",
                     "--outputs", "pulse_eta_S", "--out", "-"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "NaN" in captured.err and captured.out == ""

    def test_leak_free_cavity_prints_in_csv(self, capsys):
        code = main(["--axis", "kappa_ratio", "--grid", "13,inf", "--c", "0.25",
                     "--out", "-"])
        assert code == EXIT_OK
        rows = capsys.readouterr().out.strip().split("\n")
        assert rows[-1].startswith("kappa_ratio,inf,")

    def test_non_finite_jsonl_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = main(["--axis", "kappa_ratio", "--grid", "13,inf", "--c", "0.25",
                     "--format", "jsonl", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "jsonl" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_jsonl_error_names_row_and_column(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = main(["--axis", "kappa_ratio", "--grid", "5,13,inf", "--c", "0.25",
                     "--format", "jsonl", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "row 3, column value: inf is not valid JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--axis", "kappa_ratio", "--grid", "1,13,inf"],
         "row 3, column value: inf cannot be plotted"),
        (["--axis", "detuning", "--grid", "-1e308,1e308", "--c", "1"],
         "the value axis, from -1e+308 to 1e+308, is too wide to plot")],
        ids=["inf_value", "overflowing_span"])
    def test_non_finite_svg_is_a_config_error(self, argv, message, tmp_path, capsys):
        code = main(argv + ["--format", "svg", "--out", "-"])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"spingate: cannot write svg: {message}\n"
        assert captured.out == ""
        out = tmp_path / "curve.svg"
        assert main(argv + ["--format", "svg", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["1e17", "-1e17"])
    def test_svg_of_one_point_past_unit_precision_plots(self, grid, capsys):
        # 1e17 + 1.0 == 1e17, so the lone point's axis is widened by one ulp
        code = main(["--axis", "detuning", "--grid", grid, "--c", "1",
                     "--format", "svg", "--out", "-"])
        assert code == EXIT_OK
        svg = capsys.readouterr().out
        points = re.findall(r'points="([^"]*)"', svg)
        coords = [float(c) for p in points for xy in p.split() for c in xy.split(",")]
        assert len(coords) >= 2 and all(math.isfinite(c) for c in coords)
        assert "nan" not in svg and "inf" not in svg


def test_cli_import_starts_no_process_machinery():
    source_root = str(Path(spingate.__file__).resolve().parents[1])
    probe = ("import sys, spingate.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": source_root})
    assert result.stdout.strip() == "[]"


class TestParserReuse:
    """``main`` builds its parser once; later calls must not see earlier ones."""

    MC = ["--axis", "detuning", "--grid", "0,2", "--c", "1", "--trials", "300",
          "--outputs", "eta_S,mc_eta_S,mean_attempts", "--out", "-"]
    ARGVS = [
        ["--axis", "kappa_ratio", "--grid", "1,2", "--format", "xml"],  # argparse: exit 2
        ["--axis", "kappa_ratio", "--grid", "1:2:0", "--out", "-"],     # ConfigError: exit 2
        MC + ["--seed", "3"],
        MC,  # the default seed, not the 3 of the call before
    ]

    @staticmethod
    def fresh_process(argv, env):
        result = subprocess.run([sys.executable, "-m", "spingate.cli", *argv],
                                capture_output=True, text=True, env=env)
        return result.returncode, result.stdout, result.stderr

    @staticmethod
    def in_process(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.fixture
    def env(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap at this width
        source_root = str(Path(spingate.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONPATH": source_root}

    def test_calls_in_one_process_match_fresh_processes(self, capsys, env):
        seen = [self.in_process(argv, capsys) for argv in self.ARGVS]
        assert [code for code, _, _ in seen] == [2, EXIT_CONFIG, EXIT_OK, EXIT_OK]
        assert seen[2][1] != seen[3][1]
        assert seen == [self.fresh_process(argv, env) for argv in self.ARGVS]

    def test_help_matches_a_fresh_process(self, capsys, env):
        seen = self.in_process(["--help"], capsys)
        assert seen[0] == 0 and seen[1].startswith("usage: spingate")
        assert seen == self.fresh_process(["--help"], env)
