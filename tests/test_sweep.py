"""Sweep engine: reference points, table round trips, output formats."""

import json
import math
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from decimal import Decimal

import numpy as np
import pytest

import spingate.sweep
from spingate.sweep import (OUTPUT_COLUMNS, SweepAxis, SweepBaseline, SweepSpec, Table,
                            _row_inputs, compute_row, emit, emit_csv, emit_jsonl, emit_svg,
                            grid_from_string, parse_csv, quantize, run_sweep)

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


ALL_AXES_GRIDS = {"kappa_ratio": (5.0, 13.0, 30.0), "cooperativity": (0.25, 1.0, 4.0),
                  "detuning": (0.0, 0.5, 2.0), "bandwidth": (0.01, 0.1, 0.5),
                  "eta_in": (0.6, 0.8, 1.0)}


def every_column_spec(axis, **kwargs):
    return SweepSpec(axis=axis, grid=ALL_AXES_GRIDS[axis.value],
                     fixed=SweepBaseline(cooperativity=1.0, detuning=0.1, trials=300),
                     outputs=OUTPUT_COLUMNS, **kwargs)


class TestSharedLayers:
    """Layers whose baseline fields leave the axis out are built once per
    spec; every row keeps the bits it has when built alone."""

    @pytest.mark.parametrize("axis", list(SweepAxis))
    def test_every_axis_is_deterministic_and_row_order_independent(self, axis):
        spec = every_column_spec(axis, seed=42)
        table = run_sweep(spec)
        assert emit_csv(table) == emit_csv(run_sweep(spec))
        # a fresh spec whose shared layers come from its last row
        fresh = every_column_spec(axis, seed=42)
        backwards = [compute_row(fresh, i) for i in reversed(range(len(fresh.grid)))]
        assert backwards[::-1] == list(table.rows)
        # row i alone: no layer shared with another row, seed XOR i kept
        for i, value in enumerate(spec.grid):
            alone = replace(spec, grid=(value,), seed=spec.seed ^ i)
            assert compute_row(alone, 0) == table.rows[i]

    @pytest.mark.parametrize("axis, shared", [
        ("kappa_ratio", ("pulse",)), ("cooperativity", ("pulse",)), ("detuning", ("pulse",)),
        ("bandwidth", ("cavity", "config")), ("eta_in", ("cavity", "pulse"))])
    def test_the_axis_decides_which_layers_rows_share(self, axis, shared):
        spec = every_column_spec(SweepAxis(axis))
        first, second = (_row_inputs(spec, value)[1:] for value in spec.grid[:2])
        for name, a, b in zip(("cavity", "config", "pulse"), first, second):
            assert (a is b) == (name in shared), name

    @pytest.mark.parametrize("axis, pairs", [("bandwidth", 1), ("eta_in", 1), ("detuning", 3)])
    def test_reflection_pairs_per_sweep(self, axis, pairs, monkeypatch):
        calls = []
        original = spingate.sweep.reflection_pair

        def counted(params):
            calls.append(params)
            return original(params)

        monkeypatch.setattr(spingate.sweep, "reflection_pair", counted)
        run_sweep(every_column_spec(SweepAxis(axis)))
        assert len(calls) == pairs

    @pytest.mark.parametrize("axis", list(SweepAxis))
    def test_rows_of_a_built_spec_check_no_baseline_again(self, axis, monkeypatch):
        spec = every_column_spec(axis)
        calls = []
        original = SweepBaseline.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(SweepBaseline, "__post_init__", counted)
        run_sweep(spec)
        assert len(spec.grid) > 1
        assert calls == []

    def test_a_bad_value_on_a_later_row_is_still_rejected(self):
        spec = SweepSpec(axis=SweepAxis.ETA_IN, grid=(0.5, 0.9, 1.5))
        with pytest.raises(ValueError, match="eta_in must lie in"):
            run_sweep(spec)
        spec = SweepSpec(axis=SweepAxis.BANDWIDTH, grid=(0.1, 0.5, math.inf))
        with pytest.raises(ValueError, match="pulse bandwidth"):
            run_sweep(spec)


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

    @pytest.mark.parametrize("axis", list(SweepAxis))
    def test_row_baseline_is_replace_of_the_fixed_baseline(self, axis):
        spec = every_column_spec(axis)
        for value in spec.grid:
            base = _row_inputs(spec, value)[0]
            expected = replace(spec.fixed, **{axis.value: value})
            assert type(base) is type(expected)
            assert base == expected

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

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_svg_of_one_row_has_finite_coordinates(self, eta):
        # one row spans no range of values, and a zero one no range of
        # efficiencies either (the y range always takes in 0); each axis
        # still gets a scale
        table = Table(columns=("axis", "value", "eta_S", "flag"),
                      rows=({"axis": "kappa_ratio", "value": 13.0, "eta_S": eta, "flag": ""},))
        root = ET.fromstring(emit_svg(table))
        coords = []
        for element in root.iter():
            for name, text in element.attrib.items():
                if name in ("x", "y", "x1", "y1", "x2", "y2"):
                    coords.append(float(text))
                elif name == "points":
                    coords += [float(c) for p in text.split() for c in p.split(",")]
        assert len(coords) > 2
        assert all(math.isfinite(c) for c in coords)

    @pytest.mark.parametrize("text, message", [("", "empty CSV"),
                                               ("axis,value\nkappa_ratio\n", "ragged CSV row")],
                             ids=["empty", "ragged"])
    def test_parse_csv_refuses_a_malformed_table(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_csv(text)

    def test_svg_needs_a_sweep_axis(self):
        table = Table(columns=("eta_S",), rows=({"eta_S": 0.5},))
        with pytest.raises(ValueError, match="table has no sweep axis to plot"):
            emit_svg(table)

    def test_svg_refuses_an_efficiency_span_a_float_cannot_hold(self):
        rows = tuple({"axis": "kappa_ratio", "value": v, "eta_S": y, "flag": ""}
                     for v, y in ((1.0, -1e308), (2.0, 1e308)))
        table = Table(columns=("axis", "value", "eta_S", "flag"), rows=rows)
        with pytest.raises(ValueError, match="the efficiency axis, from -1e\\+308 to "
                                             "1e\\+308, is too wide to plot"):
            emit_svg(table)

    def test_svg_refuses_a_lone_point_whose_ulp_overflows(self):
        top = sys.float_info.max
        table = Table(columns=("axis", "value", "eta_S", "flag"),
                      rows=({"axis": "detuning", "value": top, "eta_S": 0.5, "flag": ""},))
        with pytest.raises(ValueError, match="the value axis, from 1.7976931348623157e\\+308 "
                                             "to inf, is too wide to plot"):
            emit_svg(table)

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

    @pytest.mark.parametrize("axis", list(SweepAxis))
    @pytest.mark.parametrize("value", ["x", None, True, Decimal("2"), 10 ** 400],
                             ids=["str", "None", "bool", "Decimal", "huge_int"])
    def test_grid_value_must_be_a_float_the_axis_field_takes(self, axis, value):
        match = f"{axis.value} (must be a real number|is too large in magnitude)"
        with pytest.raises(ValueError, match=match) as in_grid:
            SweepSpec(axis=axis, grid=(value,))
        # the message a baseline field with the same value gets
        with pytest.raises(ValueError) as in_baseline:
            SweepBaseline(**{axis.value: value})
        assert str(in_grid.value) == str(in_baseline.value)

    def test_axis_must_be_a_sweep_axis(self):
        with pytest.raises(ValueError, match="axis must be a SweepAxis, got 'cooperativity'"):
            SweepSpec(axis="cooperativity", grid=(1.0,))

    def test_unknown_outputs_rejected(self):
        with pytest.raises(ValueError):
            SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=(1.0,),
                      outputs=("eta_S", "bogus"))

    def test_stderr_alone_is_the_stderr_beside_the_rate(self):
        def cells(outputs, column):
            spec = SweepSpec(axis=SweepAxis.COOPERATIVITY, grid=(0.5, 1.0, 4.0),
                             fixed=SweepBaseline(trials=500), outputs=outputs, seed=7)
            return [row[column] for row in run_sweep(spec).rows]

        beside = cells(("mc_eta_S",), "mc_stderr")
        assert all(cell is not None for cell in beside)
        assert cells(("mc_stderr",), "mc_stderr") == beside
        assert cells(("mean_attempts", "mc_stderr"), "mc_stderr") == beside
        assert cells(("mean_attempts", "mc_stderr"), "mean_attempts") == \
            cells(("mean_attempts",), "mean_attempts")

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

    def test_huge_range_grid_is_refused_before_it_is_built(self, monkeypatch):
        for text in ("0:1:1e-12", "0:inf:1"):
            with pytest.raises(ValueError, match="more than 1000000 points"):
                grid_from_string(text)
        monkeypatch.setattr(spingate.sweep, "MAX_GRID_POINTS", 10)
        assert len(grid_from_string("1:10:1")) == 10
        with pytest.raises(ValueError, match="more than 10 points"):
            grid_from_string("1:11:1")

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

    @pytest.mark.parametrize("field, value", [
        ("gamma", "x"), ("cooperativity", None), ("detuning", [1]), ("bandwidth", "0.1"),
        ("eta_in", "0.5"), ("gamma", True), ("pulse_center", False)])
    def test_float_fields_must_be_real_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            SweepBaseline(**{field: value})

    def test_float_fields_take_ints_numpy_floats_and_inf(self):
        fixed = SweepBaseline(cooperativity=1, gamma=np.float32(0.5), kappa_ratio=math.inf)
        assert (fixed.cooperativity, fixed.gamma, fixed.kappa_ratio) == (1, 0.5, math.inf)

    def test_numpy_integers_are_integers(self):
        assert SweepBaseline(trials=np.int64(7)).trials == 7
        assert SweepSpec(axis=SweepAxis.KAPPA_RATIO, grid=(1.0,), seed=np.int32(3)).seed == 3

    def test_quantize_matches_cell_format(self):
        value = 0.123456789123456789
        assert quantize(value) == float(format(value, ".9g"))
        assert quantize(None) is None
