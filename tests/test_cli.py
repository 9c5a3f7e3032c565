"""Command-line driver: flags, config file, exit codes, output routing."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import spingate
from spingate.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from spingate.sweep import (SweepAxis, SweepBaseline, SweepSpec, emit_csv,
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


class TestExitCodes:
    def test_missing_axis(self, capsys):
        assert main(["--grid", "1,2"]) == EXIT_CONFIG
        assert "axis" in capsys.readouterr().err

    def test_missing_grid(self, capsys):
        assert main(["--axis", "kappa_ratio"]) == EXIT_CONFIG

    def test_bad_grid(self, capsys):
        assert main(["--axis", "kappa_ratio", "--grid", "3,2,1"]) == EXIT_CONFIG

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

    def test_cap_is_checked_without_monte_carlo_columns(self, capsys):
        assert main(["--axis", "kappa_ratio", "--grid", "13", "--max-recycles", "-1",
                     "--out", "-"]) == EXIT_CONFIG
        assert "max_recycles" in capsys.readouterr().err

    def test_zero_trials_is_a_config_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(self.MC + ["--trials", "0"]) == EXIT_CONFIG
        assert "trials" in capsys.readouterr().err


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


def test_cli_import_starts_no_process_machinery():
    source_root = str(Path(spingate.__file__).resolve().parents[1])
    probe = ("import sys, spingate.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, check=True,
                            env={**os.environ, "PYTHONPATH": source_root})
    assert result.stdout.strip() == "[]"
