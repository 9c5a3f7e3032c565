"""Command-line sweep driver.

Configuration comes from an optional JSON file (--config) mirroring the
sweep fields, with any individual flag overriding the file.  Exit codes:
0 success, 2 invalid configuration, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .sweep import (FORMATS, OUTPUT_COLUMNS, SweepAxis, SweepBaseline, SweepSpec,
                    baseline_from_mapping, emit, grid_from_string, run_sweep)

ENV_OUT_DIR = "SPINGATE_OUT_DIR"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

_BASELINE_FLAGS = {
    "c": "cooperativity",
    "kappa_ratio": "kappa_ratio",
    "gamma": "gamma",
    "detuning": "detuning",
    "trion_offset": "trion_offset",
    "eta_in": "eta_in",
    "detector_eff": "detector_efficiency",
    "dephasing": "dephasing",
    "max_recycles": "max_recycles",
    "bandwidth": "bandwidth",
    "trials": "trials",
}


class ConfigError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingate",
        description="Sweep the heralded entangling gate efficiencies over one "
                    "parameter axis and write CSV, JSON-lines, or an SVG chart.")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file with sweep fields; flags override it")
    parser.add_argument("--axis", choices=[a.value for a in SweepAxis])
    parser.add_argument("--grid", metavar="START:STOP:STEP",
                        help="grid as start:stop:step or comma-separated values")
    parser.add_argument("--c", type=float, help="cooperativity")
    parser.add_argument("--kappa-ratio", type=float, help="kappa / kappa_s")
    parser.add_argument("--gamma", type=float, help="emitter linewidth (units of kappa)")
    parser.add_argument("--detuning", type=float, help="omega_c - omega_probe")
    parser.add_argument("--trion-offset", type=float, help="omega_x - omega_c")
    parser.add_argument("--eta-in", type=float, help="input-coupling amplitude")
    parser.add_argument("--detector-eff", type=float, help="detector efficiency")
    parser.add_argument("--dephasing", type=float,
                        help="Z-error probability per attempt; no current output "
                             "column depends on it")
    parser.add_argument("--max-recycles", type=int)
    parser.add_argument("--bandwidth", type=float,
                        help="pulse bandwidth (units of kappa); the pulse is centred "
                             "on the cavity resonance, so pulse_eta_S does not "
                             "depend on --detuning")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials per row")
    parser.add_argument("--seed", type=int, help="base seed; row i uses seed XOR i")
    parser.add_argument("--outputs", metavar="COLS",
                        help="comma-separated subset of " + ",".join(OUTPUT_COLUMNS))
    parser.add_argument("--format", choices=FORMATS, dest="fmt")
    parser.add_argument("--out", metavar="PATH",
                        help="output path ('-' for stdout); defaults to "
                             f"<axis>_sweep.<ext> under ${ENV_OUT_DIR} or the cwd")
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _assemble(args: argparse.Namespace):
    config = _load_config(args.config) if args.config else {}
    baseline_keys = {f.name for f in fields(SweepBaseline)}
    spec_keys = {"axis", "grid", "outputs", "seed", "format", "out"}
    unknown = set(config) - baseline_keys - spec_keys
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")

    baseline_map = {k: config[k] for k in baseline_keys if k in config}
    for flag, field in _BASELINE_FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            baseline_map[field] = value
    try:
        fixed = baseline_from_mapping(baseline_map)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    axis_name = args.axis or config.get("axis")
    if axis_name is None:
        raise ConfigError("an axis is required (--axis or config 'axis')")
    try:
        axis = SweepAxis(axis_name)
    except ValueError:
        raise ConfigError(f"unknown axis {axis_name!r}") from None

    grid_value = args.grid if args.grid is not None else config.get("grid")
    if grid_value is None:
        raise ConfigError("a grid is required (--grid or config 'grid')")
    try:
        if isinstance(grid_value, str):
            grid = grid_from_string(grid_value)
        else:
            grid = tuple(float(v) for v in grid_value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid: {exc}") from exc

    outputs_value = args.outputs if args.outputs is not None else config.get("outputs")
    if outputs_value is None:
        outputs = ("eta_H", "eta_V", "eta_S")
    elif isinstance(outputs_value, str):
        outputs = tuple(p.strip() for p in outputs_value.split(",") if p.strip())
    else:
        outputs = tuple(outputs_value)

    seed = args.seed if args.seed is not None else config.get("seed", 1)
    try:
        spec = SweepSpec(axis=axis, grid=grid, fixed=fixed, outputs=outputs, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    fmt = args.fmt or config.get("format", "csv")
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    out = args.out if args.out is not None else config.get("out")
    if out is None:
        ext = "jsonl" if fmt == "jsonl" else fmt
        out_dir = os.environ.get(ENV_OUT_DIR, ".")
        out = os.path.join(out_dir, f"{axis.value}_sweep.{ext}")
    return spec, fmt, out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec, fmt, out = _assemble(args)
    except ConfigError as exc:
        print(f"spingate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        table = run_sweep(spec)
    except (ValueError, ArithmeticError) as exc:
        print(f"spingate: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        text = emit(table, fmt, None if out == "-" else out)
        if out == "-":
            sys.stdout.write(text)
    except ValueError as exc:
        print(f"spingate: cannot write {fmt}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"spingate: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
