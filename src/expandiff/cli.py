"""Command-line front end: declarative experiment configs, presets, CSV output.

Config files are line-oriented ``key = value`` text with ``#`` comments.
``_KEYS`` lists the recognised keys with the parser and the default of each
value; ``parse_config`` returns a dict from each key to its value.  List
values are whitespace- or comma-separated; numbers may be written as
fractions like ``1/50``.  The benchmark tables are fixed custom configs
(``_TABLES``).  The CLI checks which keys a config gives (``_KINDS`` declares
those each kind reads); ``_plan`` checks the values by building the library
objects of the run, and returns its studies.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import partial

from .fem1d import PiecewiseFn, build_mesh, require_count
from .solver import CoefficientLaw, ProblemSpec, SourceTerm
from .studies import (RateTable, _cell_ladder, _ladder, _steps_for, oracle_study,
                      spatial_study, temporal_study, write_csv)

class ConfigError(Exception):
    """Carries every validation problem found in a config, with line numbers."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


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


# Each key: the parser of its value and its default; a key without one (None)
# is needed by whatever reads it.
_KEYS = {
    "preset": (str, "custom"), "alpha": (_number, None), "final_time": (_number, None),
    "cells": (int, None), "steps": (int, None),
    "tau_list": (_number_list, None), "h_list": (_number_list, None),
    "coeff.kind": (str, "power"), "coeff.scale": (_number, None),
    "coeff.exponent": (_number, None),
    "w0.kind": (str, "zero"), "w0.a": (_number, None), "w0.b": (_number, None),
    "w0.mode": (int, 1), "w0.smooth": (_boolean, True),
    "source.kind": (str, "zero"), "source.exponent": (_number, 0.0),
    "source.a": (_number, None), "source.b": (_number, None),
    "output": (str, None),
}


# Each kind: the keys it reads and what it builds from their values, in order.
_KINDS = {
    "coeff.kind": {
        "power": (("coeff.scale", "coeff.exponent"), CoefficientLaw.power),
        "constant": (("coeff.scale",), CoefficientLaw.constant)},
    "w0.kind": {
        "chi": (("w0.a", "w0.b"), PiecewiseFn.indicator),
        # w0.smooth = false flags the sine rough, which forces the L2 projection
        "sine": (("w0.mode", "w0.smooth"), lambda mode, smooth: PiecewiseFn(
            [0.0, 1.0], [], smooth=smooth, sine_mode=mode)),
        "zero": ((), PiecewiseFn.zero)},
    "source.kind": {
        "chi": (("source.a", "source.b", "source.exponent"), lambda a, b, p: SourceTerm.separable(
            PiecewiseFn.indicator(a, b), time_exponent=p)),
        "zero": ((), SourceTerm.zero)},
}
_AXES = {"tau_list": "cells", "h_list": "steps"}  # each axis and the count it reads


def parse_config(text: str, overrides: dict[str, str] | None = None) -> dict:
    """Parse and fully validate a config document, solving nothing, into a dict
    from each key to its value, the defaults filled in.  Raises ConfigError
    with every key problem (syntax, unknown, unparsable, missing or unread
    keys) or, if there is none, one line naming the keys of each object of
    the run that the library rejects.  ``overrides`` maps keys to values that
    replace the document's, as the command-line flags do, and their errors
    name the flag ``--key`` instead of a line."""
    cfg, given, errors = _read(text, overrides)
    if not given and not errors:
        errors.append("empty config: a preset or a full custom specification is required")
    errors.extend(_check_keys(cfg, given))
    if errors:
        raise ConfigError(errors)
    _plan(cfg)
    return cfg


def _read(text: str, overrides: dict[str, str] | None = None) -> tuple[dict, dict, list]:
    """The values of a document's keys and overrides, the defaults filled in;
    each key given and where it was given last; and every syntax, unknown-key
    or unparsable-value problem."""
    cfg = {key: default for key, (_, default) in _KEYS.items()}
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
            cfg[key] = _KEYS[key][0](value)
        except (ValueError, ZeroDivisionError) as exc:
            errors.append(f"{where}: bad value for {key}: {exc}")
    return cfg, given, errors


def _check_keys(cfg: dict, given: dict[str, str]) -> list[str]:
    preset = cfg["preset"]
    if preset not in _PRESETS:
        return [f"preset must be one of {', '.join(_PRESETS)}; got {preset!r}"]
    if preset != "custom":
        return [f"{where}: {key} has no effect with preset {preset}"
                for key, where in given.items() if key not in ("preset", "alpha", "output")]
    errors = []
    axes = [axis for axis in _AXES if axis in given]
    if len(axes) != 1:
        errors.append("custom run needs exactly one of tau_list (temporal) or h_list (spatial)")
    # (what chooses, the keys it reads, the keys only its alternatives read)
    chosen = [("custom run", ("alpha", "final_time"), ())]
    chosen += [(axis, (_AXES[axis],), _AXES.values() if len(axes) == 1 else ()) for axis in axes]
    for kind_key, kinds in _KINDS.items():
        kind = cfg[kind_key]
        if kind not in kinds:
            errors.append(f"{kind_key} must be one of {', '.join(kinds)}; got {kind!r}")
        else:
            chosen.append((f"{kind_key} = {kind}", kinds[kind][0],
                           [key for reads, _ in kinds.values() for key in reads]))
    for what, reads, others in chosen:
        errors += [f"{what} needs {key}" for key in reads
                   if _KEYS[key][1] is None and key not in given]
        errors += [f"{where}: {key} has no effect with {what}"
                   for key, where in given.items() if key in others and key not in reads]
    # a cell count within the tolerance of the step count for a tau
    cells = [1.0 / h if 0.0 < h < math.inf else 0.0 for h in cfg["h_list"] or ()]
    if not all(2.0 <= n < math.inf and math.isclose(n, round(n), rel_tol=1e-9) for n in cells):
        errors.append(f"h_list entries must be 1/n for integers n >= 2, got {cfg['h_list']}")
    return errors


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
_PRESETS = (*_TABLES, "oracle", "custom")


def _plan(cfg: dict) -> list:
    """The studies of a config whose keys passed ``_check_keys``, as calls.
    Builds every library object of the run, solving nothing; raises
    ConfigError with one line, prefixed with its keys, for each object whose
    values the library rejects."""
    errors: list[str] = []

    def build(keys, make):
        try:
            return make()
        except ValueError as exc:
            errors.append(f"{', '.join(keys)}: {exc}")

    preset, alphas = cfg["preset"], [cfg["alpha"]] if cfg["alpha"] is not None else []
    studies, configs = [], [cfg] if preset == "custom" else []
    if preset in _TABLES:  # a fixed document; the order is the preset's one value
        orders, document = _TABLES[preset]
        doc = _read(document)[0]
        configs = [{**doc, "alpha": a} for a in alphas or orders]
    if preset == "oracle":
        for a in alphas or (0.5, 0.8):
            # the order is the oracle's one value; its studies solve to T = 1
            build(["alpha"], lambda: ProblemSpec(a, 1.0, None, None, None))
            studies += [
                partial(oracle_study, a, 1.0, 1, final_time=1.0, n_cells=256,
                        tau_list=[1 / 50, 1 / 100, 1 / 200, 1 / 400], label=f"alpha={a} temporal"),
                partial(oracle_study, a, 1.0, 1, final_time=1.0, tau=1 / 2000,
                        n_cells_list=[16, 32, 64, 128], label=f"alpha={a} spatial")]
    for c in configs:
        parts = [build(reads, lambda: make(*(c[key] for key in reads)))
                 for reads, make in (_KINDS[key][c[key]] for key in _KINDS)]
        spec = build(["alpha", "final_time"] if preset == "custom" else ["alpha"],
                     lambda: ProblemSpec(c["alpha"], c["final_time"], *parts))
        label = f"alpha={c['alpha']}"
        if c["tau_list"] is not None:
            build(["cells"], lambda: build_mesh(c["cells"]))
            if spec:
                build(["tau_list"], lambda: [_steps_for(tau, c["final_time"])
                                             for tau in _ladder(c["tau_list"], "tau_list")])
            studies.append(partial(temporal_study, spec, c["cells"], c["tau_list"], label=label))
        else:
            tau = build(["steps"], lambda: c["final_time"] / require_count(c["steps"], 1, "steps"))
            cells = [round(1.0 / h) for h in c["h_list"]]
            build(["h_list"], lambda: _cell_ladder(cells))
            studies.append(partial(spatial_study, spec, tau, cells, label=label))
    if errors:
        raise ConfigError(errors)
    return studies


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


def run(config: dict) -> int:
    """Execute a validated config: solve, print tables, write the CSV."""
    try:
        tables = [study() for study in _plan(config)]
    except (ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for tb in tables:
        print_table(tb)
        if config["preset"] == "oracle":
            print(f"{'':<16}max error vs closed form: {max(tb.errors):.3E}")
    out = config["output"] or f"{config['preset']}.csv"
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
