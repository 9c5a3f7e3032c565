"""Command-line sweep driver.

Configuration comes from an optional JSON file (--config) mirroring the
sweep fields, with any individual flag overriding the file.  Each flag's
argparse destination is its config key (``--c`` sets ``cooperativity``,
``--detector-eff`` sets ``detector_efficiency``, ``--kappa-ratio`` sets
``kappa_ratio``, ...), and the parser records only the flags given, so
flags and file merge in one mapping.  Only ``pulse_center`` has no flag:
a config file alone sets it.  Exit codes: 0 success, 2 invalid
configuration, 3 output I/O error.

The argument parser is built once per process, on the first ``main``
call, and reused: parsing leaves no state in it.  So is the set of flag
tokens that take a value, which lets any such value that starts with "-"
follow its flag as its own word (``--detuning -2e-3``).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

from .sweep import (FORMATS, OUTPUT_COLUMNS, SweepAxis, SweepBaseline, SweepSpec, emit,
                    grid_from_string, run_sweep)

ENV_OUT_DIR = "SPINGATE_OUT_DIR"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spingate", argument_default=argparse.SUPPRESS,
        description="Sweep the heralded entangling gate efficiencies over one "
                    "parameter axis and write CSV, JSON-lines, or an SVG chart.")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file with sweep fields; flags override it")
    parser.add_argument("--axis", choices=[a.value for a in SweepAxis])
    parser.add_argument("--grid", metavar="START:STOP:STEP",
                        help="grid as start:stop:step or comma-separated values")
    parser.add_argument("--c", type=float, dest="cooperativity", metavar="C",
                        help="cooperativity")
    parser.add_argument("--kappa-ratio", type=float, help="kappa / kappa_s")
    parser.add_argument("--gamma", type=float, help="emitter linewidth (units of kappa)")
    parser.add_argument("--detuning", type=float, help="omega_c - omega_probe")
    parser.add_argument("--trion-offset", type=float, help="omega_x - omega_c")
    parser.add_argument("--eta-in", type=float, help="input-coupling amplitude")
    parser.add_argument("--detector-eff", type=float, dest="detector_efficiency",
                        metavar="DETECTOR_EFF", help="detector efficiency")
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
    parser.add_argument("--format", choices=FORMATS)
    parser.add_argument("--out", metavar="PATH",
                        help="output path ('-' for stdout); defaults to "
                             f"<axis>_sweep.<ext> under ${ENV_OUT_DIR} or the cwd")
    return parser


_parser = functools.cache(build_parser)  # main's one parser, built on first use


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


_BASELINE_KEYS = frozenset(f.name for f in fields(SweepBaseline))
_CONFIG_KEYS = _BASELINE_KEYS | {"axis", "grid", "outputs", "seed", "format", "out"}


def _assemble(flags: dict):
    path = flags.pop("config", None)
    config = _load_config(path) if path else {}
    unknown = set(config) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    settings = {**config, **flags}
    fixed = SweepBaseline(**{k: v for k, v in settings.items() if k in _BASELINE_KEYS})

    axis_name = settings.get("axis")
    if axis_name is None:
        raise ConfigError("an axis is required (--axis or config 'axis')")
    try:
        axis = SweepAxis(axis_name)
    except ValueError:
        raise ConfigError(f"unknown axis {axis_name!r}") from None

    grid_value = settings.get("grid")
    if grid_value is None:
        raise ConfigError("a grid is required (--grid or config 'grid')")
    try:
        if isinstance(grid_value, str):
            grid = grid_from_string(grid_value)
        elif isinstance(grid_value, list) and all(type(v) in (int, float) for v in grid_value):
            grid = tuple(float(v) for v in grid_value)  # JSON numbers; a bool is not one
        else:
            raise ValueError(f"expected a string or a list of numbers, got {grid_value!r}")
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for a float
        raise ConfigError(f"bad grid: {exc}") from exc

    outputs_value = settings.get("outputs")
    if outputs_value is None:
        outputs = ("eta_H", "eta_V", "eta_S")
    elif isinstance(outputs_value, str):
        outputs = tuple(p.strip() for p in outputs_value.split(",") if p.strip())
    elif isinstance(outputs_value, list) and all(isinstance(c, str) for c in outputs_value):
        outputs = tuple(outputs_value)
    else:
        raise ConfigError("outputs must be a comma-separated string or a list of "
                          f"column names, got {outputs_value!r}")

    spec = SweepSpec(axis=axis, grid=grid, fixed=fixed, outputs=outputs,
                     seed=settings.get("seed", 1))

    fmt = settings.get("format", "csv")
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    out = settings.get("out")
    if out is None:
        out = os.path.join(os.environ.get(ENV_OUT_DIR, "."), f"{axis.value}_sweep.{fmt}")
    elif not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    return spec, fmt, out


@functools.cache
def _value_flags() -> frozenset:
    """The tokens argparse reads as a flag that takes one value: each long
    option string of such a flag, and each prefix of one that no other
    long option shares (an abbreviation argparse resolves to it)."""
    options = [(option, action.nargs is None) for action in _parser()._actions
               for option in action.option_strings if option.startswith("--")]
    flags = set()
    for option, takes_value in options:
        if takes_value:
            flags.add(option)
            flags.update(option[:k] for k in range(3, len(option))
                         if sum(o.startswith(option[:k]) for o, _ in options) == 1)
    return frozenset(flags)


def _join_grid(argv: list) -> list:
    """``argv`` with each flag that takes a value, or an abbreviation
    argparse resolves to one, and a following value that starts with a
    single "-" joined into one ``FLAG=VALUE`` token.  Otherwise argparse
    reads such a value as an option unless it is a plain negative decimal,
    so ``--grid -2:2:1`` or ``--detuning -2e-3`` would fail where
    ``--grid=-2:2:1`` works.  A lone "-" (``--out -``) is read as a value
    and stays as it is, and so do the tokens after "--", which are never
    options."""
    flags = _value_flags()
    for i, flag in enumerate(argv[:-1]):
        if flag == "--":
            break
        value = argv[i + 1]
        if flag in flags and value.startswith("-") and value[1:2] not in ("", "-"):
            return argv[:i] + [f"{flag}={value}"] + _join_grid(argv[i + 2:])
    return argv


def main(argv=None) -> int:
    args = _parser().parse_args(_join_grid(sys.argv[1:] if argv is None else list(argv)))
    try:  # a ConfigError, a SweepBaseline or SweepSpec check, or a check on a row
        spec, fmt, out = _assemble(vars(args))
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
