"""Command-line front end: declarative experiment configs, presets, CSV output.

Config files are line-oriented ``key = value`` text with ``#`` comments.
Recognised keys: preset, alpha, final_time, cells, steps, tau_list, h_list,
coeff.kind, coeff.scale, coeff.exponent, w0.kind, w0.a, w0.b, w0.mode,
w0.smooth, source.kind, source.exponent, source.a, source.b, output.
List values are whitespace- or comma-separated; numbers may be written as
fractions like ``1/50``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from .solver import CoefficientLaw, PiecewiseFn, ProblemSpec, SourceTerm
from .studies import (RateTable, oracle_study, spatial_study, temporal_study,
                      write_csv)

_PRESETS = ("table1", "table2", "table3", "oracle", "custom")

_KEYS = {
    "preset", "alpha", "final_time", "cells", "steps", "tau_list", "h_list",
    "coeff.kind", "coeff.scale", "coeff.exponent",
    "w0.kind", "w0.a", "w0.b", "w0.mode", "w0.smooth",
    "source.kind", "source.exponent", "source.a", "source.b", "output",
}


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
            _assign(cfg, key, value)
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"line {lineno}: bad value for {key}: {exc}")
    if not seen and not errors:
        errors.append("empty config: a preset or a full custom specification is required")
    errors.extend(_validate(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def _assign(cfg: ExperimentConfig, key: str, value: str) -> None:
    if key == "preset":
        cfg.preset = value
    elif key == "alpha":
        cfg.alpha = _number(value)
    elif key == "final_time":
        cfg.final_time = _number(value)
    elif key == "cells":
        cfg.cells = int(value)
    elif key == "steps":
        cfg.steps = int(value)
    elif key == "tau_list":
        cfg.tau_list = _number_list(value)
    elif key == "h_list":
        cfg.h_list = _number_list(value)
    elif key == "coeff.kind":
        cfg.coeff_kind = value
    elif key == "coeff.scale":
        cfg.coeff_scale = _number(value)
    elif key == "coeff.exponent":
        cfg.coeff_exponent = _number(value)
    elif key == "w0.kind":
        cfg.w0_kind = value
    elif key == "w0.a":
        cfg.w0_a = _number(value)
    elif key == "w0.b":
        cfg.w0_b = _number(value)
    elif key == "w0.mode":
        cfg.w0_mode = int(value)
    elif key == "w0.smooth":
        low = value.lower()
        if low not in ("true", "false", "yes", "no", "1", "0"):
            raise ValueError(f"expected a boolean, got {value!r}")
        cfg.w0_smooth = low in ("true", "yes", "1")
    elif key == "source.kind":
        cfg.source_kind = value
    elif key == "source.exponent":
        cfg.source_exponent = _number(value)
    elif key == "source.a":
        cfg.source_a = _number(value)
    elif key == "source.b":
        cfg.source_b = _number(value)
    elif key == "output":
        cfg.output = value


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


def _spec_from(cfg: ExperimentConfig, alpha: float) -> ProblemSpec:
    if cfg.coeff_kind == "constant":
        law = CoefficientLaw.constant(cfg.coeff_scale)
    else:
        law = CoefficientLaw.power(cfg.coeff_scale, cfg.coeff_exponent)
    if cfg.source_kind == "zero":
        src = SourceTerm.zero()
    else:
        src = SourceTerm.separable(PiecewiseFn.indicator(cfg.source_a, cfg.source_b),
                                   time_exponent=cfg.source_exponent)
    return ProblemSpec(alpha=alpha, final_time=cfg.final_time, coefficient=law,
                       initial=_initial_from(cfg), source=src)


_TABLE_TAUS = [1 / 50, 1 / 100, 1 / 200, 1 / 400, 1 / 800]


def _run_preset(cfg: ExperimentConfig) -> list[RateTable]:
    alphas = (cfg.alpha,) if cfg.alpha is not None else None
    tables: list[RateTable] = []
    if cfg.preset == "table1":
        for a in alphas or (0.3, 0.7):
            spec = ProblemSpec(
                alpha=a, final_time=1.0,
                coefficient=CoefficientLaw.power(1.0, 1.01),
                initial=PiecewiseFn.zero(),
                source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                            time_exponent=0.1))
            tables.append(temporal_study(spec, 128, _TABLE_TAUS, label=f"alpha={a}"))
    elif cfg.preset == "table2":
        for a in alphas or (0.4, 0.6):
            spec = ProblemSpec(
                alpha=a, final_time=1.0,
                coefficient=CoefficientLaw.power(1.0, 2.01),
                initial=PiecewiseFn.indicator(0.5, 1.0),
                source=SourceTerm.zero())
            tables.append(temporal_study(spec, 128, _TABLE_TAUS, label=f"alpha={a}"))
    elif cfg.preset == "table3":
        for a in alphas or (0.2, 0.7):
            spec = ProblemSpec(
                alpha=a, final_time=2.0,
                coefficient=CoefficientLaw.power(10.0, 1.01),
                initial=PiecewiseFn.indicator(0.5, 1.0),
                source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                            time_exponent=0.1))
            tables.append(spatial_study(spec, 1 / 1000, [32, 64, 128, 256, 512],
                                        label=f"alpha={a}"))
    elif cfg.preset == "oracle":
        for a in alphas or (0.5, 0.8):
            tables.append(oracle_study(
                a, 1.0, 1, final_time=1.0, n_cells=256,
                tau_list=[1 / 50, 1 / 100, 1 / 200, 1 / 400],
                label=f"alpha={a} temporal"))
            tables.append(oracle_study(
                a, 1.0, 1, final_time=1.0, tau=1 / 2000,
                n_cells_list=[16, 32, 64, 128],
                label=f"alpha={a} spatial"))
    else:  # custom
        spec = _spec_from(cfg, cfg.alpha)
        if cfg.tau_list:
            tables.append(temporal_study(spec, cfg.cells, cfg.tau_list,
                                         label=f"alpha={cfg.alpha}"))
        else:
            cells = [round(1.0 / h) for h in cfg.h_list]
            tables.append(spatial_study(spec, spec.final_time / cfg.steps, cells,
                                        label=f"alpha={cfg.alpha}"))
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
    if args.output:
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
