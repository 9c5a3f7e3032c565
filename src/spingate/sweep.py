"""Parameter sweeps over the gate efficiencies, with CSV/JSONL/SVG output.

A sweep varies one axis (side-leakage ratio, cooperativity, probe
detuning, pulse bandwidth, or input coupling) over a grid while every
other parameter stays at its baseline: each axis names a baseline field,
and row i is the baseline with that field set to the i-th grid value.
Rows are computed one after another in this process.  Analytic columns
are exact closed forms; Monte Carlo columns carry their binomial standard
error and are reproducible: row i uses its own generator seeded with
``seed XOR i``, so a row's bytes do not depend on the other rows.

``SweepSpec`` checks each grid value once, as ``SweepBaseline`` checks
its float fields, so a value that is not a real number, or an integer too
large for a float, is refused when the spec is built, naming the axis.
``_row_inputs`` builds each row's library inputs in one place: the
baseline, the cavity layer (``CavityParams`` and its reflection pair),
the ``GateConfig`` and the ``PulseSpec``, whichever columns the row
prints, so their range checks reject a value out of range on every sweep.
A row's baseline is a copy of the spec's baseline with the axis field set,
with no check run again.  A layer whose baseline fields leave the sweep
axis out is built once per spec, on its first row, and shared by the
rest: a bandwidth sweep builds one cavity and one config, an ``eta_in``
sweep one cavity and one pulse, and a shared cavity computes its analytic
etas and its ``gaussian_etas`` pole terms once.  Its range checks run on
that first build; a layer the axis does change is still built, and
range-checked, on every row.

The analytic and pulse columns (``eta_H``, ``eta_V``, ``eta_S``,
``pulse_eta_S``) assume a perfectly coupled probe and a perfect detector,
so they do not move along the ``eta_in`` axis or with
``detector_efficiency``; only the Monte Carlo columns see those losses.

The Monte Carlo columns (``mc_eta_S``, its standard error ``mc_stderr``
and ``mean_attempts``; any one of them runs the draws, and asking for
``mc_eta_S`` adds ``mc_stderr``) draw whole gate runs from the
per-attempt law (``gate.sample_runs``): success, recycle and loss
probabilities that no register state changes, truncated at
``max_recycles``.  No state vector is built.  The sampler reads the same
uniforms as a loop of ``gate.run_gate`` calls, so without dephasing the
columns equal what that loop gives for the same seed.  Dephasing flips
phases only, so it changes none of them; no column depends on it.

All numeric cells are quantized to 9 significant digits when the table is
built, which makes emit -> parse -> emit the identity on bytes.
"""

from __future__ import annotations

import enum
import functools
import json
import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .cavity import CavityParams, reflection_pair
from .gate import (_SUCCESS, DegenerateRecycleError, GateConfig, analytic_etas, check_count,
                   sample_runs)
from .gate import run_gate  # noqa: F401  unused; the benchmark tracer wraps sweep.run_gate
from .pulse import PulseSpec, _gaussian_average, _pole_terms
from .pulse import pulse_etas  # noqa: F401  unused; the benchmark tracer wraps sweep.pulse_etas
from .qstate import tensor  # noqa: F401  unused; the benchmark tracer wraps sweep.tensor


class SweepAxis(enum.Enum):
    KAPPA_RATIO = "kappa_ratio"
    COOPERATIVITY = "cooperativity"
    DETUNING = "detuning"
    BANDWIDTH = "bandwidth"
    ETA_IN = "eta_in"


OUTPUT_COLUMNS = ("eta_H", "eta_V", "eta_S", "mc_eta_S", "mc_stderr",
                  "pulse_eta_S", "mean_attempts")
# a start:stop:step grid of more points is refused before it is built
MAX_GRID_POINTS = 10 ** 6
_FLAG_DEGENERATE = "eta_v_degenerate"


def quantize(value: Optional[float]) -> Optional[float]:
    """Round a float through the 9-significant-digit cell format."""
    if value is None:
        return None
    return float(format(value, ".9g"))


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".9g")


@dataclass(frozen=True)
class SweepBaseline:
    """Fixed system and gate parameters a sweep varies around."""

    cooperativity: float = 0.25
    kappa_ratio: float = 13.0
    gamma: float = 0.1
    detuning: float = 0.0
    trion_offset: float = 0.0
    eta_in: float = 1.0
    detector_efficiency: float = 1.0
    dephasing: float = 0.0
    max_recycles: int = 50
    bandwidth: float = 0.1
    pulse_center: float = 0.0
    trials: int = 10_000

    def __post_init__(self) -> None:
        # a config file may hold any JSON value; a string, list, null or
        # bool must not reach the physics as a float.  The ranges are
        # checked by the library types each row builds.
        for name in _FLOAT_FIELDS:
            _check_real(name, getattr(self, name))
        check_count("trials", self.trials, 1)


def _check_real(name: str, value) -> None:
    """Reject a value of float field ``name`` that is not a real number, or
    that is an integer too large for a float; a plain float skips the
    slower ABC check."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise ValueError(f"{name} is too large in magnitude for a float") from None


_FLOAT_FIELDS = tuple(f.name for f in fields(SweepBaseline) if f.type == "float")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: the axis, its grid, the baseline, and requested columns."""

    axis: SweepAxis
    grid: tuple[float, ...]
    fixed: SweepBaseline = SweepBaseline()
    outputs: tuple[str, ...] = ("eta_H", "eta_V", "eta_S")
    seed: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.axis, SweepAxis):
            raise ValueError(f"axis must be a SweepAxis, got {self.axis!r}")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        # each row's baseline is ``fixed`` with the axis field set to a grid
        # value, so the values get the check a baseline field gets, here once
        axis = self.axis.value
        for value in self.grid:
            _check_real(axis, value)
        if any(math.isnan(v) for v in self.grid):
            raise ValueError("grid values must not be NaN")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")
        unknown = set(self.outputs) - set(OUTPUT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown outputs: {sorted(unknown)}")
        check_count("seed", self.seed, 0)
        # mc_eta_S always reports its standard error
        outputs = [c for c in OUTPUT_COLUMNS
                   if c in self.outputs or (c == "mc_stderr" and "mc_eta_S" in self.outputs)]
        object.__setattr__(self, "outputs", tuple(outputs))

    @property
    def columns(self) -> tuple[str, ...]:
        return ("axis", "value") + self.outputs + ("flag",)


@dataclass(frozen=True)
class Table:
    """Rows of named cells; the unit all emitters and parsers work on."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...]


def grid_from_string(text: str) -> tuple[float, ...]:
    """Parse 'start:stop:step' (inclusive of stop, within float slack) or a
    comma-separated list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("range grid must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        span = (stop - start) / step + 1e-9
        if span >= MAX_GRID_POINTS:  # an infinite span too; NaN fails below
            raise ValueError(f"range grid has more than {MAX_GRID_POINTS} points")
        count = int(math.floor(span)) + 1
        if count < 1:
            raise ValueError("empty grid range")
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in text.split(","))


# The baseline fields each layer of a row reads.  The cavity layer is the
# CavityParams with its reflection pair, analytic etas and gaussian_etas pole
# terms.  A layer whose fields leave the axis out is the same on every row.
# The config holds the cavity's pair, so its fields include the cavity's:
# a config is shared only where its cavity is.
_CAVITY_FIELDS = frozenset(("cooperativity", "kappa_ratio", "gamma", "detuning", "trion_offset"))
_CONFIG_FIELDS = _CAVITY_FIELDS | {"eta_in", "detector_efficiency", "max_recycles", "dephasing"}
_PULSE_FIELDS = frozenset(("bandwidth", "pulse_center"))
_ANALYTIC = ("eta_H", "eta_V", "eta_S")
_MONTE_CARLO = ("mc_eta_S", "mc_stderr", "mean_attempts")
_EFFICIENCY = frozenset((*_ANALYTIC, "mc_eta_S", "pulse_eta_S"))  # the columns an SVG plots


class _Cavity:
    """A row's cavity layer: its ``CavityParams`` and reflection pair, with
    the analytic cells and the ``gaussian_etas`` pole terms each computed
    on its first read and kept, so rows that share the layer share them."""

    def __init__(self, base: SweepBaseline) -> None:
        self.params = CavityParams.from_cooperativity(
            base.cooperativity, kappa_ratio=base.kappa_ratio, gamma=base.gamma,
            probe_detuning=base.detuning, trion_offset=base.trion_offset)
        self.pair = reflection_pair(self.params)

    @functools.cached_property
    def analytic(self) -> tuple[tuple, str]:
        """The quantized ``eta_H``, ``eta_V`` and ``eta_S`` cells and the row
        flag: a degenerate recycle leaves ``eta_S`` empty and flags the row."""
        pair = self.pair
        try:
            etas = analytic_etas(pair)
            values, flag = (etas.eta_h, etas.eta_v, etas.eta_s), ""
        except DegenerateRecycleError:
            values, flag = (abs(pair.d) ** 2, abs(pair.s) ** 2, None), _FLAG_DEGENERATE
        return tuple(map(quantize, values)), flag

    @functools.cached_property
    def terms(self) -> tuple[tuple[complex, complex, complex], ...]:
        """``_pole_terms(self.params)``: the part of ``gaussian_etas`` no pulse changes."""
        return _pole_terms(self.params)


def _row_inputs(spec: SweepSpec, value: float
                ) -> tuple[SweepBaseline, _Cavity, GateConfig, PulseSpec]:
    """The baseline of the row at ``value`` and its layers.  The baseline is
    a copy of ``spec.fixed`` with the axis field set to ``value``; both were
    checked when the spec was built, so no check runs again here.  The
    first row of a spec keeps, in the spec, the layers whose fields leave
    its axis out; every row builds the others in order (cavity, config,
    pulse), so its first failing range check is the one it meets alone."""
    axis = spec.axis.value
    base = object.__new__(type(spec.fixed))
    attrs = base.__dict__
    attrs.update(spec.fixed.__dict__)
    attrs[axis] = value
    kept = spec.__dict__.get("_kept_layers")
    cavity, config, pulse = kept or (None, None, None)
    if cavity is None:
        cavity = _Cavity(base)
    if config is None:
        config = GateConfig(pair=cavity.pair, eta_in=base.eta_in,
                            detector_efficiency=base.detector_efficiency,
                            max_recycles=base.max_recycles,
                            dephasing_per_attempt=base.dephasing)
    if pulse is None:
        pulse = PulseSpec(delta=base.bandwidth, center=base.pulse_center)
    if kept is None:
        spec.__dict__["_kept_layers"] = tuple(
            None if axis in names else layer for names, layer in
            zip((_CAVITY_FIELDS, _CONFIG_FIELDS, _PULSE_FIELDS), (cavity, config, pulse)))
    return base, cavity, config, pulse


def _monte_carlo(config: GateConfig, trials: int, rng) -> tuple[float, float, float]:
    outcome, attempts = sample_runs(config, trials, rng)
    rate = np.count_nonzero(outcome == _SUCCESS) / trials
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return rate, stderr, int(attempts.sum()) / trials


def compute_row(spec: SweepSpec, index: int) -> dict:
    """One grid point; independent of every other row."""
    value = spec.grid[index]
    base, cavity, config, pulse = _row_inputs(spec, value)
    row = {c: None for c in spec.columns}
    row["axis"] = spec.axis.value
    row["value"] = quantize(value)
    row["flag"] = ""
    wants = set(spec.outputs)
    if not wants.isdisjoint(_ANALYTIC):
        cells, row["flag"] = cavity.analytic
        for name, cell in zip(_ANALYTIC, cells):
            if name in wants:
                row[name] = cell
    if not wants.isdisjoint(_MONTE_CARLO):
        rng = np.random.default_rng(spec.seed ^ index)
        mc = _monte_carlo(config, base.trials, rng)
        for name, cell in zip(_MONTE_CARLO, mc):
            if name in wants:
                row[name] = quantize(cell)
    if "pulse_eta_S" in wants:
        try:
            row["pulse_eta_S"] = quantize(
                _gaussian_average(cavity.params, cavity.terms, pulse).eta_s)
        except DegenerateRecycleError:
            row["flag"] = _FLAG_DEGENERATE
    return row


def run_sweep(spec: SweepSpec) -> Table:
    """Compute the whole table, one row after another; deterministic for a
    given spec and seed."""
    rows = tuple(compute_row(spec, i) for i in range(len(spec.grid)))
    return Table(columns=spec.columns, rows=rows)


def emit_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(format_cell(row[c]) for c in table.columns))
    return "\n".join(lines) + "\n"


def parse_csv(text: str) -> Table:
    """Inverse of emit_csv for tables produced by this module."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise ValueError("empty CSV")
    columns = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError("ragged CSV row")
        row = {}
        for name, cell in zip(columns, cells):
            if name in ("axis", "flag", "strategy"):
                row[name] = cell
            else:
                row[name] = None if cell == "" else float(cell)
        rows.append(row)
    return Table(columns=columns, rows=tuple(rows))


def _check_finite(table: Table, columns, reason: str) -> None:
    """Refuse a table with a non-finite number in ``columns``, naming the
    first such cell's row and column and the format's ``reason``."""
    for number, row in enumerate(table.rows, 1):
        for column in columns:
            value = row[column]
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"row {number}, column {column}: {value} {reason}")


def emit_jsonl(table: Table) -> str:
    _check_finite(table, table.columns, "is not valid JSON")
    lines = [json.dumps({c: row[c] for c in table.columns}, allow_nan=False)
             for row in table.rows]
    return "\n".join(lines) + "\n"


_SVG_SIZE = (720, 480)
_SVG_MARGIN = {"left": 72, "right": 168, "top": 28, "bottom": 56}
_SVG_PALETTE = ("#1b6ca8", "#d1495b", "#3a7d44", "#8e5572", "#c07d1a", "#4a4e69")


def _svg_series(table: Table) -> list[str]:
    return [c for c in table.columns
            if c in _EFFICIENCY and any(row[c] is not None for row in table.rows)]


def emit_svg(table: Table) -> str:
    """Minimal line chart: one polyline per efficiency column, labeled axes."""
    if "value" not in table.columns:
        raise ValueError("table has no sweep axis to plot")
    series = _svg_series(table)
    if not series:
        raise ValueError("no plottable columns in table")
    _check_finite(table, ("value", *series), "cannot be plotted")
    xs = [row["value"] for row in table.rows]
    ys = [row[c] for c in series for row in table.rows if row[c] is not None]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys + [0.0]), max(ys)
    # A lone point spans 1.0, or one ulp where 1.0 is below its precision.
    if x_hi == x_lo:
        x_hi = x_lo + max(1.0, math.ulp(x_lo))
    if y_hi == y_lo:
        y_hi = y_lo + max(1.0, math.ulp(y_lo))
    for name, lo, hi in (("value", x_lo, x_hi), ("efficiency", y_lo, y_hi)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"the {name} axis, from {lo} to {hi}, is too wide to plot")
    width, height = _SVG_SIZE
    m = _SVG_MARGIN
    plot_w = width - m["left"] - m["right"]
    plot_h = height - m["top"] - m["bottom"]

    def px(x: float) -> float:
        return m["left"] + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return m["top"] + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">',
             '<rect width="100%" height="100%" fill="white"/>']
    axis_y = m["top"] + plot_h
    parts.append(f'<line x1="{m["left"]}" y1="{axis_y}" x2="{m["left"] + plot_w}" '
                 f'y2="{axis_y}" stroke="black"/>')
    parts.append(f'<line x1="{m["left"]}" y1="{m["top"]}" x2="{m["left"]}" '
                 f'y2="{axis_y}" stroke="black"/>')
    for i in range(6):
        fx = x_lo + (x_hi - x_lo) * i / 5
        fy = y_lo + (y_hi - y_lo) * i / 5
        parts.append(f'<line x1="{px(fx):.2f}" y1="{axis_y}" x2="{px(fx):.2f}" '
                     f'y2="{axis_y + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(fx):.2f}" y="{axis_y + 20}" font-size="11" '
                     f'text-anchor="middle">{fx:.3g}</text>')
        parts.append(f'<line x1="{m["left"] - 5}" y1="{py(fy):.2f}" x2="{m["left"]}" '
                     f'y2="{py(fy):.2f}" stroke="black"/>')
        parts.append(f'<text x="{m["left"] - 8}" y="{py(fy) + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{fy:.3g}</text>')
    axis_name = table.rows[0].get("axis", "value")
    parts.append(f'<text x="{m["left"] + plot_w / 2:.2f}" y="{height - 14}" '
                 f'font-size="13" text-anchor="middle">{axis_name}</text>')
    parts.append(f'<text x="18" y="{m["top"] + plot_h / 2:.2f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{m["top"] + plot_h / 2:.2f})">efficiency</text>')
    for k, name in enumerate(series):
        color = _SVG_PALETTE[k % len(_SVG_PALETTE)]
        points = " ".join(f"{px(row['value']):.2f},{py(row[name]):.2f}"
                          for row in table.rows if row[name] is not None)
        parts.append(f'<polyline id="series-{name}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        ly = m["top"] + 16 + 18 * k
        lx = m["left"] + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-size="12">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_EMITTERS = {"csv": emit_csv, "jsonl": emit_jsonl, "svg": emit_svg}
FORMATS = tuple(_EMITTERS)


def emit(table: Table, fmt: str, out: Optional[str] = None) -> str:
    """Render the table and optionally write it to a file."""
    if fmt not in _EMITTERS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    text = _EMITTERS[fmt](table)
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return text

