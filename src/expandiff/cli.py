"""Command-line front end: declarative experiment configs, presets, CSV output.

Config files are line-oriented ``key = value`` text with ``#`` comments.
``_KEYS`` lists the recognised keys with the parser of each value; key
``a.b`` sets the ``ExperimentConfig`` field ``a_b``.  List values are
whitespace- or comma-separated; numbers may be written as fractions like
``1/50``.  The benchmark tables are fixed custom configs (``_TABLES``).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

from .solver import CoefficientLaw, PiecewiseFn, ProblemSpec, SourceTerm
from .studies import (RateTable, oracle_study, spatial_study, temporal_study,
                      write_csv)

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


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config document; raises ConfigError with
    every problem found (not just the first)."""
    cfg = ExperimentConfig()
    errors: list[str] = []
    seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        seen = True
        try:
            if not value:
                raise ValueError("empty value")
            setattr(cfg, key.replace(".", "_"), _KEYS[key](value))
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"line {lineno}: bad value for {key}: {exc}")
    if not seen and not errors:
        errors.append("empty config: a preset or a full custom specification is required")
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _validate(cfg: ExperimentConfig) -> list[str]:
    errors = []
    if cfg.preset not in _PRESETS:
        errors.append(f"preset must be one of {', '.join(_PRESETS)}; got {cfg.preset!r}")
        return errors
    if cfg.alpha is not None and not 0.0 < cfg.alpha <= 1.0:
        errors.append(f"alpha must lie in (0, 1], got {cfg.alpha}")
    if cfg.preset != "custom":
        return errors
    # custom runs are validated in full before any solve starts
    if cfg.final_time is None or cfg.final_time <= 0.0:
        errors.append("custom run needs final_time > 0")
    if cfg.alpha is None:
        errors.append("custom run needs alpha")
    if bool(cfg.tau_list) == bool(cfg.h_list):
        errors.append("custom run needs exactly one of tau_list (temporal) or h_list (spatial)")
    if cfg.tau_list and cfg.cells is None:
        errors.append("temporal custom run needs cells")
    if cfg.h_list and cfg.steps is None:
        errors.append("spatial custom run needs steps")
    if not all(0.0 < tau < math.inf for tau in cfg.tau_list):
        errors.append(f"tau_list entries must be finite and > 0, got {cfg.tau_list}")
    # a cell count within the tolerance of the step count for a tau
    cells = [1.0 / h if 0.0 < h < math.inf else 0.0 for h in cfg.h_list]
    if not all(2.0 <= n < math.inf and math.isclose(n, round(n), rel_tol=1e-9) for n in cells):
        errors.append(f"h_list entries must be 1/n for integers n >= 2, got {cfg.h_list}")
    if cfg.cells is not None and cfg.cells < 2:
        errors.append(f"cells must be >= 2, got {cfg.cells}")
    if cfg.steps is not None and cfg.steps < 1:
        errors.append(f"steps must be >= 1, got {cfg.steps}")
    if cfg.coeff_kind not in ("power", "constant"):
        errors.append(f"coeff.kind must be 'power' or 'constant', got {cfg.coeff_kind!r}")
    if cfg.coeff_scale is None:
        errors.append("custom run needs coeff.scale")
    elif cfg.coeff_scale < 0:
        errors.append(f"coeff.scale must be >= 0, got {cfg.coeff_scale}")
    if cfg.coeff_kind == "power" and cfg.coeff_exponent is None:
        errors.append("coeff.kind = power needs coeff.exponent")
    if cfg.w0_kind not in ("chi", "sine", "zero"):
        errors.append(f"w0.kind must be chi, sine or zero, got {cfg.w0_kind!r}")
    if cfg.w0_kind == "chi":
        if cfg.w0_a is None or cfg.w0_b is None:
            errors.append("w0.kind = chi needs w0.a and w0.b")
        elif not 0.0 <= cfg.w0_a < cfg.w0_b <= 1.0:
            errors.append(f"w0 support needs 0 <= a < b <= 1, got [{cfg.w0_a}, {cfg.w0_b}]")
        if cfg.w0_smooth:
            errors.append("w0.kind = chi cannot be flagged smooth")
    if cfg.w0_kind == "sine" and cfg.w0_mode < 1:
        errors.append(f"w0.mode must be >= 1, got {cfg.w0_mode}")
    if cfg.source_kind not in ("chi", "zero"):
        errors.append(f"source.kind must be chi or zero, got {cfg.source_kind!r}")
    if cfg.source_kind == "chi":
        if cfg.source_a is None or cfg.source_b is None:
            errors.append("source.kind = chi needs source.a and source.b")
        elif not 0.0 <= cfg.source_a < cfg.source_b <= 1.0:
            errors.append(
                f"source support needs 0 <= a < b <= 1, got [{cfg.source_a}, {cfg.source_b}]")
        if cfg.source_exponent < 0:
            errors.append(f"source.exponent must be >= 0, got {cfg.source_exponent}")
    return errors


# -- experiment construction ---------------------------------------------------


def _initial_from(cfg: ExperimentConfig) -> PiecewiseFn:
    if cfg.w0_kind == "zero":
        return PiecewiseFn.zero()
    if cfg.w0_kind == "sine":
        w0 = PiecewiseFn.sine(cfg.w0_mode)
        if cfg.w0_smooth is False:
            # rough-flagged sine: forces the L2 projection of the datum
            w0 = PiecewiseFn(w0.breakpoints, [], smooth=False, sine_mode=cfg.w0_mode)
        return w0
    return PiecewiseFn.indicator(cfg.w0_a, cfg.w0_b)


def _spec_from(cfg: ExperimentConfig) -> ProblemSpec:
    if cfg.coeff_kind == "constant":
        law = CoefficientLaw.constant(cfg.coeff_scale)
    else:
        law = CoefficientLaw.power(cfg.coeff_scale, cfg.coeff_exponent)
    if cfg.source_kind == "zero":
        src = SourceTerm.zero()
    else:
        src = SourceTerm.separable(PiecewiseFn.indicator(cfg.source_a, cfg.source_b),
                                   time_exponent=cfg.source_exponent)
    return ProblemSpec(alpha=cfg.alpha, final_time=cfg.final_time, coefficient=law,
                       initial=_initial_from(cfg), source=src)


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
        spec, label = _spec_from(c), f"alpha={c.alpha}"
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

    overrides = []
    if args.preset:
        overrides.append(f"preset = {args.preset}")
    if args.alpha is not None:
        overrides.append(f"alpha = {args.alpha}")
    if args.output is not None:
        overrides.append(f"output = {args.output}")
    try:
        cfg = parse_config(text + "\n" + "\n".join(overrides))
    except ConfigError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
