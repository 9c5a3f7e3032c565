"""Sweep engine: reference points, table round trips, output formats."""

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest

import spingate.sweep
from spingate.sweep import (SweepAxis, SweepBaseline, SweepSpec, Table, compute_row,
                            emit, emit_csv, emit_jsonl, emit_svg, grid_from_string,
                            parse_csv, quantize, run_sweep)

ANALYTIC = ("eta_H", "eta_V", "eta_S")


def kappa_sweep(coop, detuning, grid=(1.0, 5.0, 13.0, 21.0, 30.0), **kwargs):
    fixed = SweepBaseline(cooperativity=coop, detuning=detuning,
                          **kwargs.pop("baseline", {}))
    return SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=tuple(grid), fixed=fixed,
                     **kwargs)


def row_at(table, value):
    for row in table.rows:
        if row["value"] == value:
            return row
    raise AssertionError(f"no row at {value}")


class TestReferencePoints:
    def test_resonance_scattering_anchor(self):
        table = run_sweep(kappa_sweep(0.25, 0.0))
        assert row_at(table, 13.0)["eta_S"] == pytest.approx(0.255, abs=1e-3)

    def test_purcell_anchor(self):
        table = run_sweep(kappa_sweep(1.0, 0.0))
        assert row_at(table, 13.0)["eta_S"] == pytest.approx(0.559, abs=1e-3)

    def test_detuned_anchors(self):
        assert row_at(run_sweep(kappa_sweep(0.25, 0.1)), 13.0)["eta_S"] == \
            pytest.approx(0.194, abs=1e-3)
        assert row_at(run_sweep(kappa_sweep(1.0, 0.1)), 13.0)["eta_S"] == \
            pytest.approx(0.538, abs=1e-3)

    def test_ideal_single_point(self):
        fixed = SweepBaseline(cooperativity=1e12, kappa_ratio=1e12)
        spec = SweepSpec(axis=SweepAxis.COOPERATIVITY, grid=(1e12,), fixed=fixed)
        row = run_sweep(spec).rows[0]
        assert row["eta_H"] == pytest.approx(1.0, abs=1e-9)
        assert row["eta_V"] == pytest.approx(0.0, abs=1e-9)
        assert row["eta_S"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("coop, detuning", [(0.25, 0.0), (1.0, 0.0),
                                                (0.25, 0.1), (1.0, 0.1)])
    def test_total_efficiency_monotone_in_leakage_ratio(self, coop, detuning):
        spec = kappa_sweep(coop, detuning, grid=tuple(range(1, 31)))
        values = [row["eta_S"] for row in run_sweep(spec).rows]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_detuning_raises_recycle_share(self):
        for coop in (0.25, 1.0):
            resonant = row_at(run_sweep(kappa_sweep(coop, 0.0)), 13.0)
            detuned = row_at(run_sweep(kappa_sweep(coop, 0.1)), 13.0)
            assert detuned["eta_V"] > resonant["eta_V"]

    def test_degenerate_rows_are_flagged_not_fatal(self):
        # C = 0 in a leak-free cavity reflects both polarizations alike:
        # every photon recycles and the total efficiency diverges
        fixed = SweepBaseline(cooperativity=0.25, kappa_ratio=math.inf)
        spec = SweepSpec(axis=SweepAxis.COOPERATIVITY, grid=(0.0, 0.25, 1.0),
                         fixed=fixed)
        table = run_sweep(spec)
        degenerate = row_at(table, 0.0)
        assert degenerate["flag"] == "eta_v_degenerate"
        assert degenerate["eta_S"] is None
        assert degenerate["eta_V"] == pytest.approx(1.0, abs=1e-9)
        healthy = row_at(table, 1.0)
        assert healthy["flag"] == ""
        assert healthy["eta_S"] is not None

    def test_degenerate_pulse_rows_are_flagged_not_fatal(self):
        fixed = SweepBaseline(cooperativity=0.25, kappa_ratio=math.inf)
        spec = SweepSpec(axis=SweepAxis.COOPERATIVITY, grid=(0.0, 1.0), fixed=fixed,
                         outputs=("pulse_eta_S",))
        table = run_sweep(spec)
        degenerate = row_at(table, 0.0)
        assert degenerate["flag"] == "eta_v_degenerate"
        assert degenerate["pulse_eta_S"] is None
        healthy = row_at(table, 1.0)
        assert healthy["flag"] == ""
        assert healthy["pulse_eta_S"] is not None


class TestMonteCarloColumns:
    def test_monte_carlo_agrees_with_analytic_on_every_row(self):
        spec = kappa_sweep(1.0, 0.0, grid=(1.0, 5.0, 13.0, 30.0),
                           outputs=("eta_S", "mc_eta_S", "mean_attempts"),
                           baseline={"trials": 10_000})
        for row in run_sweep(spec).rows:
            assert abs(row["mc_eta_S"] - row["eta_S"]) < 3 * row["mc_stderr"]
            assert row["mean_attempts"] >= 1.0

    def test_eta_in_axis_reduces_monte_carlo_rate(self):
        spec = SweepSpec(axis=SweepAxis.ETA_IN, grid=(0.6, 0.8, 1.0),
                         fixed=SweepBaseline(cooperativity=1.0,
                                             trials=4_000),
                         outputs=("eta_S", "mc_eta_S"))
        rows = run_sweep(spec).rows
        rates = [row["mc_eta_S"] for row in rows]
        assert rates[0] < rates[1] < rates[2]
        assert abs(rows[-1]["mc_eta_S"] - rows[-1]["eta_S"]) < 3 * rows[-1]["mc_stderr"]

    def test_bandwidth_axis_drives_pulse_column(self):
        spec = SweepSpec(axis=SweepAxis.BANDWIDTH, grid=(0.01, 0.1, 0.5),
                         fixed=SweepBaseline(cooperativity=1.0),
                         outputs=("eta_S", "pulse_eta_S"))
        rows = run_sweep(spec).rows
        pulse = [row["pulse_eta_S"] for row in rows]
        assert pulse[0] > pulse[1] > pulse[2]
        assert rows[0]["pulse_eta_S"] == pytest.approx(rows[0]["eta_S"], abs=1e-3)

    def test_determinism_and_row_order_independence(self):
        spec = kappa_sweep(0.25, 0.0, grid=(5.0, 13.0),
                           outputs=("eta_S", "mc_eta_S"),
                           baseline={"trials": 500}, seed=42)
        serial = emit_csv(run_sweep(spec))
        assert serial == emit_csv(run_sweep(spec))
        backwards = [compute_row(spec, i) for i in reversed(range(len(spec.grid)))]
        assert backwards[::-1] == list(run_sweep(spec).rows)


class TestRowInputs:
    def test_every_axis_names_a_baseline_field(self):
        names = {f.name for f in fields(SweepBaseline)}
        assert {axis.value for axis in SweepAxis} <= names

    @pytest.mark.parametrize("axis", list(SweepAxis))
    def test_row_is_the_baseline_with_the_axis_field_set(self, axis):
        base = SweepBaseline(cooperativity=1.0, detuning=0.5, eta_in=1.0,
                             bandwidth=0.2, trials=300)
        outputs = ("eta_S", "mc_eta_S", "pulse_eta_S", "mean_attempts")
        value = {"kappa_ratio": 21.0, "cooperativity": 2.0, "detuning": 1.5,
                 "bandwidth": 0.05, "eta_in": 0.95}[axis.value]
        swept = SweepSpec(axis=axis, grid=(value,), fixed=base, outputs=outputs, seed=5)
        moved = SweepBaseline(**{**base.__dict__, axis.value: value})
        fixed = SweepSpec(axis=axis, grid=(value,), fixed=moved, outputs=outputs, seed=5)
        assert compute_row(swept, 0) == compute_row(fixed, 0)

    def test_one_reflection_pair_per_row(self, monkeypatch):
        calls = []
        original = spingate.sweep.reflection_pair

        def counted(params):
            calls.append(params)
            return original(params)

        monkeypatch.setattr(spingate.sweep, "reflection_pair", counted)
        spec = kappa_sweep(1.0, 0.0, grid=(5.0, 13.0, 30.0),
                           outputs=("eta_H", "eta_V", "eta_S", "mc_eta_S",
                                    "pulse_eta_S", "mean_attempts"),
                           baseline={"trials": 200})
        run_sweep(spec)
        assert len(calls) == 3


class TestTableFormats:
    @pytest.fixture()
    def table(self):
        return run_sweep(kappa_sweep(0.25, 0.0, grid=(5.0, 13.0, 30.0)))

    def test_csv_shape(self, table):
        lines = emit_csv(table).strip().split("\n")
        assert lines[0] == "axis,value,eta_H,eta_V,eta_S,flag"
        assert len(lines) == 4

    def test_csv_roundtrip_is_bitwise(self, table):
        text = emit_csv(table)
        parsed = parse_csv(text)
        assert parsed.columns == table.columns
        assert list(parsed.rows) == list(table.rows)
        assert emit_csv(parsed) == text

    def test_jsonl_lines_match_csv_header(self, table):
        lines = emit_jsonl(table).strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            obj = json.loads(line)
            assert tuple(obj.keys()) == table.columns

    def test_svg_polyline_is_monotone(self):
        spec = kappa_sweep(1.0, 0.0, grid=tuple(range(1, 31)))
        table = run_sweep(spec)
        values = [row["eta_S"] for row in table.rows]
        assert all(b > a for a, b in zip(values, values[1:]))
        svg = emit_svg(table)
        root = ET.fromstring(svg)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = {p.get("id"): p for p in root.findall(".//svg:polyline", ns)}
        points = polylines["series-eta_S"].get("points").split()
        coords = [tuple(map(float, p.split(","))) for p in points]
        assert len(coords) == 30
        xs = [c[0] for c in coords]
        ys = [c[1] for c in coords]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        # SVG y grows downward, so an increasing curve has decreasing y
        assert all(b < a for a, b in zip(ys, ys[1:]))
        assert root.findall(".//svg:text", ns)  # labeled axes and legend

    def test_emit_writes_files(self, table, tmp_path):
        out = tmp_path / "sweep.csv"
        text = emit(table, "csv", str(out))
        assert out.read_text() == text
        with pytest.raises(ValueError):
            emit(table, "yaml")


class TestSpecValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=(2.0, 1.0))
        with pytest.raises(ValueError):
            SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=())

    def test_unknown_outputs_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=(1.0,),
                      outputs=("eta_S", "bogus"))

    def test_stderr_follows_mc_column(self):
        spec = SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=(1.0,),
                         outputs=("mc_eta_S",))
        assert "mc_stderr" in spec.columns

    def test_grid_from_string(self):
        assert grid_from_string("1:5:1") == (1.0, 2.0, 3.0, 4.0, 5.0)
        assert grid_from_string("0.5,1.5,2") == (0.5, 1.5, 2.0)
        assert grid_from_string("1:2:0.5") == (1.0, 1.5, 2.0)
        with pytest.raises(ValueError):
            grid_from_string("1:2:0")
        with pytest.raises(ValueError):
            grid_from_string("1:2:3:4")

    def test_nan_grid_rejected_inf_kept(self):
        for grid in ((math.nan, 0.1), (0.1, math.nan), (math.nan,)):
            with pytest.raises(ValueError, match="NaN"):
                SweepSpec(axis=SweepAxis.BANDWIDTH, grid=grid)
        # kappa_ratio = inf is the leak-free cavity
        table = run_sweep(kappa_sweep(0.25, 0.0, grid=(13.0, math.inf)))
        assert table.rows[-1]["value"] == math.inf
        assert table.rows[-1]["eta_S"] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("value", [1000.5, 3.0, True, 0, -2])
    def test_trials_must_be_a_positive_integer(self, value):
        with pytest.raises(ValueError, match="trials"):
            SweepBaseline(trials=value)

    @pytest.mark.parametrize("value", [1.5, 2.0, True, -1])
    def test_seed_must_be_a_non_negative_integer(self, value):
        with pytest.raises(ValueError, match="seed"):
            SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=(1.0,), seed=value)

    def test_numpy_integers_are_integers(self):
        assert SweepBaseline(trials=np.int64(7)).trials == 7
        assert SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=(1.0,), seed=np.int32(3)).seed == 3

    def test_quantize_matches_cell_format(self):
        value = 0.123456789123456789
        assert quantize(value) == float(format(value, ".9g"))
        assert quantize(None) is None
