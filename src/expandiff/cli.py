"""Command-line front end: declarative experiment configs, presets, CSV output.

Config files are line-oriented ``key = value`` text with ``#`` comments.
``_KEYS`` lists the recognised keys with the parser of each value; key
``a.b`` sets the ``ExperimentConfig`` field ``a_b``.  List values are
whitespace- or comma-separated; numbers may be written as fractions like
``1/50``.  The benchmark tables are fixed custom configs (``_TABLES``).
The CLI checks which keys a config gives (``_KINDS`` declares those each kind
reads); the values are checked by building the library objects of the run.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

from .fem1d import build_mesh, require_count
from .solver import CoefficientLaw, PiecewiseFn, ProblemSpec, SourceTerm
from .studies import (RateTable, _cell_ladder, _ladder, _steps_for, oracle_study,
                      spatial_study, temporal_study, write_csv)

_PRESETS = ("table1", "table2", "table3", "oracle", "custom")


class ConfigError(Exception):
    """Carries every validation problem found in a config, with line numbers."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class ExperimentConfig:
    preset: str = "custom"
    alpha: float | None = None
    final_time: float | None = None
    cells: int | None = None
    steps: int | None = None
    tau_list: list[float] = field(default_factory=list)
    h_list: list[float] = field(default_factory=list)
    coeff_kind: str = "power"
    coeff_scale: float | None = None
    coeff_exponent: float | None = None
    w0_kind: str = "zero"
    w0_a: float | None = None
    w0_b: float | None = None
    w0_mode: int = 1
    w0_smooth: bool | None = None
    source_kind: str = "zero"
    source_exponent: float = 0.0
    source_a: float | None = None
    source_b: float | None = None
    output: str | None = None


def _number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _number_list(text: str) -> list[float]:
    return [_number(tok) for tok in text.replace(",", " ").split()]


def _boolean(text: str) -> bool:
    low = text.lower()
    if low not in ("true", "false", "yes", "no", "1", "0"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return low in ("true", "yes", "1")


_KEYS = {
    "preset": str, "alpha": _number, "final_time": _number, "cells": int, "steps": int,
    "tau_list": _number_list, "h_list": _number_list,
    "coeff.kind": str, "coeff.scale": _number, "coeff.exponent": _number,
    "w0.kind": str, "w0.a": _number, "w0.b": _number, "w0.mode": int, "w0.smooth": _boolean,
    "source.kind": str, "source.exponent": _number, "source.a": _number, "source.b": _number,
    "output": str,
}


# Each kind: the keys it reads, all needed but the defaulted ones, and what it builds.
_KINDS = {
    "coeff.kind": {
        "power": (("coeff.scale", "coeff.exponent"),
                  lambda c: CoefficientLaw.power(c.coeff_scale, c.coeff_exponent)),
        "constant": (("coeff.scale",), lambda c: CoefficientLaw.constant(c.coeff_scale))},
    "w0.kind": {
        "chi": (("w0.a", "w0.b"), lambda c: PiecewiseFn.indicator(c.w0_a, c.w0_b)),
        # w0.smooth = false flags the sine rough, which forces the L2 projection
        "sine": (("w0.mode",), lambda c: PiecewiseFn(
            [0.0, 1.0], [], smooth=c.w0_smooth is not False, sine_mode=c.w0_mode)),
        "zero": ((), lambda c: PiecewiseFn.zero())},
    "source.kind": {
        "chi": (("source.a", "source.b", "source.exponent"), lambda c: SourceTerm.separable(
            PiecewiseFn.indicator(c.source_a, c.source_b), time_exponent=c.source_exponent)),
        "zero": ((), lambda c: SourceTerm.zero())},
}
_DEFAULTED = ("w0.mode", "source.exponent")
_AXES = {"tau_list": "cells", "h_list": "steps"}  # each axis and the count it needs


def parse_config(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Parse and fully validate a config document, solving nothing; raises
    ConfigError with every key problem found (syntax, unknown, unparsable,
    missing or ignored keys) or, if there is none, one line naming the keys
    of each object of the run that the library rejects.  ``overrides`` maps
    keys to values that replace the document's, as the command-line flags
    do, and their errors name the flag ``--key`` instead of a line."""
    cfg = ExperimentConfig()
    errors: list[str] = []
    entries = []  # (where, key or None for a line without '=', value or line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, eq, value = line.partition("=")
            entries.append((f"line {lineno}", key.strip(), value.strip()) if eq
                           else (f"line {lineno}", None, line))
    entries += [(f"--{key}", key, value.strip()) for key, value in (overrides or {}).items()]
    given: dict[str, str] = {}  # each key given, and where it was given last
    for where, key, value in entries:
        if key is None:
            errors.append(f"{where}: expected 'key = value', got {value!r}")
            continue
        if key not in _KEYS:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        given[key] = where
        try:
            if not value:
                raise ValueError("empty value")
            setattr(cfg, key.replace(".", "_"), _KEYS[key](value))
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"{where}: bad value for {key}: {exc}")
    if not given and not errors:
        errors.append("empty config: a preset or a full custom specification is required")
    errors.extend(_check_keys(cfg, given))
    if not errors:
        errors = _check_values(cfg, given)
    if errors:
        raise ConfigError(errors)
    return cfg


def _check_keys(cfg: ExperimentConfig, given: dict[str, str]) -> list[str]:
    if cfg.preset not in _PRESETS:
        return [f"preset must be one of {', '.join(_PRESETS)}; got {cfg.preset!r}"]
    if cfg.preset != "custom":
        return [f"{where}: {key} has no effect with preset {cfg.preset}"
                for key, where in given.items() if key not in ("preset", "alpha", "output")]
    errors = []
    axes = [axis for axis in _AXES if axis in given]
    if len(axes) != 1:
        errors.append("custom run needs exactly one of tau_list (temporal) or h_list (spatial)")
    needs = [("custom run", "alpha"), ("custom run", "final_time")] + [(a, _AXES[a]) for a in axes]
    for kind_key, kinds in _KINDS.items():
        kind = getattr(cfg, kind_key.replace(".", "_"))
        if kind not in kinds:
            errors.append(f"{kind_key} must be one of {', '.join(kinds)}; got {kind!r}")
        else:
            needs += [(f"{kind_key} = {kind}", key) for key in kinds[kind][0]
                      if key not in _DEFAULTED]
    errors += [f"{who} needs {key}" for who, key in needs if key not in given]
    if cfg.w0_kind == "chi" and cfg.w0_smooth:
        errors.append("w0.kind = chi cannot be flagged smooth")
    # a cell count within the tolerance of the step count for a tau
    cells = [1.0 / h if 0.0 < h < math.inf else 0.0 for h in cfg.h_list]
    if not all(2.0 <= n < math.inf and math.isclose(n, round(n), rel_tol=1e-9) for n in cells):
        errors.append(f"h_list entries must be 1/n for integers n >= 2, got {cfg.h_list}")
    return errors


def _check_values(cfg: ExperimentConfig, given: dict[str, str]) -> list[str]:
    """Builds what the run would build, without solving: one line, prefixed
    with its keys, for each object whose values the library rejects."""
    errors: list[str] = []

    def build(keys, make):
        try:
            return make()
        except (ValueError, OverflowError) as exc:
            errors.append(f"{', '.join(keys)}: {exc}")

    if cfg.preset != "custom":  # the order is a preset's one value; its studies have T >= 1
        if cfg.alpha is not None:
            build(["alpha"], lambda: ProblemSpec(cfg.alpha, 1.0, None, None, None))
        return errors
    parts = [build(reads, lambda: make(cfg)) for reads, make in _chosen(cfg)]
    spec = build(["alpha", "final_time"], lambda: ProblemSpec(cfg.alpha, cfg.final_time, *parts))
    if "cells" in given:
        build(["cells"], lambda: build_mesh(cfg.cells))
    if "steps" in given:
        build(["steps"], lambda: require_count(cfg.steps, 1, "steps"))
    if "h_list" in given:
        build(["h_list"], lambda: _cell_ladder([round(1.0 / h) for h in cfg.h_list]))
    if "tau_list" in given and spec:
        build(["tau_list"], lambda: [_steps_for(tau, cfg.final_time)
                                     for tau in _ladder(cfg.tau_list, "tau_list")])
    return errors


# -- experiment construction ---------------------------------------------------


def _chosen(cfg: ExperimentConfig) -> list:
    """(keys read, builder) of the coefficient law, initial datum and source
    that the config's kinds select."""
    return [_KINDS[key][getattr(cfg, key.replace(".", "_"))] for key in _KINDS]


# The benchmark tables as fixed custom configs, each with its default orders.
_TABLES = {
    "table1": ((0.3, 0.7), "final_time = 1\ncells = 128\ntau_list = 1/50 1/100 1/200 1/400 1/800\n"
               "coeff.scale = 1\ncoeff.exponent = 1.01\n"
               "source.kind = chi\nsource.a = 0\nsource.b = 0.5\nsource.exponent = 0.1"),
    "table2": ((0.4, 0.6), "final_time = 1\ncells = 128\ntau_list = 1/50 1/100 1/200 1/400 1/800\n"
               "coeff.scale = 1\ncoeff.exponent = 2.01\nw0.kind = chi\nw0.a = 0.5\nw0.b = 1"),
    "table3": ((0.2, 0.7), "final_time = 2\nsteps = 2000\nh_list = 1/32 1/64 1/128 1/256 1/512\n"
               "coeff.scale = 10\ncoeff.exponent = 1.01\nw0.kind = chi\nw0.a = 0.5\nw0.b = 1\n"
               "source.kind = chi\nsource.a = 0\nsource.b = 0.5\nsource.exponent = 0.1"),
}


def _run_preset(cfg: ExperimentConfig) -> list[RateTable]:
    alphas = (cfg.alpha,) if cfg.alpha is not None else None
    tables: list[RateTable] = []
    if cfg.preset == "oracle":
        for a in alphas or (0.5, 0.8):
            tables.append(oracle_study(
                a, 1.0, 1, final_time=1.0, n_cells=256,
                tau_list=[1 / 50, 1 / 100, 1 / 200, 1 / 400],
                label=f"alpha={a} temporal"))
            tables.append(oracle_study(
                a, 1.0, 1, final_time=1.0, tau=1 / 2000,
                n_cells_list=[16, 32, 64, 128],
                label=f"alpha={a} spatial"))
        return tables
    configs = [cfg]
    if cfg.preset != "custom":
        orders, document = _TABLES[cfg.preset]
        configs = [parse_config(f"preset = custom\nalpha = {a!r}\n{document}")
                   for a in alphas or orders]
    for c in configs:
        spec = ProblemSpec(c.alpha, c.final_time, *(make(c) for _, make in _chosen(c)))
        label = f"alpha={c.alpha}"
        if c.tau_list:
            tables.append(temporal_study(spec, c.cells, c.tau_list, label=label))
        else:
            cells = [round(1.0 / h) for h in c.h_list]
            tables.append(spatial_study(spec, c.final_time / c.steps, cells, label=label))
    return tables


def _format_resolution(r: float) -> str:
    inv = 1.0 / r
    k = round(inv)
    if k >= 1 and abs(inv - k) < 1e-9:
        return f"1/{k}"
    return f"{r:.6g}"


def print_table(table: RateTable, stream=None) -> None:
    """Aligned console block: one error row and one rate row per table."""
    stream = stream or sys.stdout
    axis = "tau" if table.axis == "temporal" else "h"
    cols = [_format_resolution(r) for r in table.resolutions]
    errs = [f"{e:.3E}" for e in table.errors]
    rates = [f"{r:.4f}" for r in table.rates]
    # at least one blank between columns, also for three-digit exponents
    width = max(10, *(len(c) + 2 for c in cols), *(len(v) + 1 for v in errs + rates))
    head = f"{table.label or table.axis:<16}" + "".join(f"{c:>{width}}" for c in cols)
    err_row = f"{'E_' + axis:<16}" + "".join(f"{v:>{width}}" for v in errs)
    rate_row = f"{'rate':<16}" + f"{'':>{width}}" + "".join(f"{v:>{width}}" for v in rates)
    stream.write(head + "\n" + err_row + "\n" + rate_row + "\n")


def run(config: ExperimentConfig) -> int:
    """Execute a validated config: solve, print tables, write the CSV."""
    try:
        tables = _run_preset(config)
    except (ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for tb in tables:
        print_table(tb)
        if config.preset == "oracle":
            print(f"{'':<16}max error vs closed form: {max(tb.errors):.3E}")
    out = config.output or f"{config.preset}.csv"
    try:
        write_csv(tables, out)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expandiff",
        description="Convergence studies for the fractional diffusion solver.")
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--preset", choices=_PRESETS,
                        help="preset name (overrides the config)")
    parser.add_argument("--output", help="CSV output path (overrides the config)")
    parser.add_argument("--alpha", type=float,
                        help="restrict a preset to a single order (overrides the config)")
    args = parser.parse_args(argv)

    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
    elif not args.preset:
        parser.print_usage(sys.stderr)
        print("error: need --config and/or --preset", file=sys.stderr)
        return 1

    flags = {"preset": args.preset, "alpha": args.alpha, "output": args.output}
    try:
        cfg = parse_config(text, {key: str(value) for key, value in flags.items()
                                  if value is not None})
    except ConfigError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
