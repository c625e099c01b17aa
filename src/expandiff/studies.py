"""Self-convergence studies, closed-form validation and rate tables.

Temporal errors compare final-time states of runs with step tau and tau/2
on the same mesh; spatial errors prolong the coarse final state to the
once-refined mesh and measure the difference there.  Both are exact L2
norms of P1 functions.  Rates are pairwise log2 error ratios; a NaN rate
marks a zero error (no information).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fem1d import Mesh1D, build_mesh, l2_norm, prolong, require_count
from .mittag_leffler import mittag_leffler
from .solver import (CoefficientLaw, PiecewiseFn, ProblemSpec, SourceTerm,
                     solve)

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


@dataclass
class RateTable:
    """Errors over a halving resolution sequence with observed log2 rates."""

    label: str
    axis: str  # "temporal" or "spatial"
    resolutions: list[float]
    errors: list[float]
    rates: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.axis not in ("temporal", "spatial"):
            raise ValueError(f"axis must be 'temporal' or 'spatial', got {self.axis!r}")
        if len(self.resolutions) != len(self.errors):
            raise ValueError("resolutions and errors must have equal length")
        if any(e < 0 for e in self.errors):
            raise ValueError("errors must be nonnegative")
        if not self.rates:
            self.rates = observed_rates(self.errors)
        elif len(self.rates) != max(len(self.errors) - 1, 0):
            raise ValueError("rates length must be len(errors) - 1")


def observed_rates(errors) -> list[float]:
    """Pairwise rates log2(e_k / e_{k+1}); NaN where either error is zero."""
    out = []
    for a, b in zip(errors[:-1], errors[1:]):
        out.append(math.log2(a / b) if a > 0 and b > 0 else math.nan)
    return out


def _check_halving(values, what: str) -> None:
    for a, b in zip(values[:-1], values[1:]):
        if not math.isclose(b, a / 2, rel_tol=1e-9):
            raise ValueError(f"{what} must halve strictly: {a} -> {b}")


def _steps_for(tau: float, final_time: float) -> int:
    steps = final_time / tau if tau > 0.0 else math.nan
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or not math.isclose(steps, n, rel_tol=1e-9):
        raise ValueError(f"step {tau} does not divide the final time {final_time}")
    return n


def temporal_study(spec: ProblemSpec, n_cells: int, tau_list, label: str = "") -> RateTable:
    """E_tau = ||W^L_tau - W^{2L}_{tau/2}|| at the final time on a fixed mesh."""
    taus = [float(t) for t in tau_list]
    if not taus:
        raise ValueError("tau_list must not be empty")
    _check_halving(taus, "tau_list")
    all_taus = taus + [taus[-1] / 2.0]
    finals = [solve(spec, n_cells, _steps_for(t, spec.final_time)).final
              for t in all_taus]
    mesh = build_mesh(n_cells)
    errors = [l2_norm(mesh, a - b) for a, b in zip(finals[:-1], finals[1:])]
    return RateTable(label=label, axis="temporal", resolutions=taus, errors=errors)


def spatial_study(spec: ProblemSpec, tau: float, n_cells_list, label: str = "") -> RateTable:
    """E_h = ||prolong(W_h) - W_{h/2}|| at the final time, on the finer mesh."""
    cells = [require_count(n, 2, "n_cells") for n in n_cells_list]
    if not cells:
        raise ValueError("n_cells_list must not be empty")
    hs = [1.0 / n for n in cells]
    _check_halving(hs, "h_list")
    steps = _steps_for(tau, spec.final_time)
    all_cells = cells + [2 * cells[-1]]
    finals = {n: solve(spec, n, steps).final for n in all_cells}
    errors = []
    for n in cells:
        fine = build_mesh(2 * n)
        diff = prolong(build_mesh(n), finals[n], fine) - finals[2 * n]
        errors.append(l2_norm(fine, diff))
    return RateTable(label=label, axis="spatial", resolutions=hs, errors=errors)


# -- closed-form validation ---------------------------------------------------


def mode_error(mesh: Mesh1D, values: np.ndarray, alpha: float, kappa: float,
               mode: int, t: float) -> float:
    """L2 error of the P1 field against E_alpha(-kappa (j pi)^2 t^alpha) sin(j pi x).

    The squared difference is integrated with the per-element Gauss rule, so
    the interpolation error of the sine is included.
    """
    j = int(mode)
    lam = (j * np.pi) ** 2
    amp = mittag_leffler(alpha, -kappa * lam * float(t) ** alpha)
    nodes = mesh.nodes
    full = np.concatenate(([0.0], values, [0.0]))
    pts = nodes[:-1, None] + 0.5 * mesh.h * (_GAUSS_X[None, :] + 1.0)
    lam1 = (pts - nodes[:-1, None]) / mesh.h
    p1 = full[:-1, None] * (1.0 - lam1) + full[1:, None] * lam1
    diff2 = (p1 - amp * np.sin(j * np.pi * pts)) ** 2
    return float(np.sqrt(0.5 * mesh.h * float((diff2 @ _GAUSS_W).sum())))


def oracle_study(alpha: float, kappa, mode: int, *, final_time: float,
                 n_cells: int | None = None, tau: float | None = None,
                 tau_list=None, n_cells_list=None, label: str = "") -> RateTable:
    """Convergence against the closed-form single-mode solution.

    Pass ``tau_list`` with a fixed ``n_cells`` for the temporal axis, or
    ``n_cells_list`` with a fixed ``tau`` for the spatial axis.  The
    coefficient must be constant; initial datum is the smooth sine mode
    (Ritz-projected), the source is zero.
    """
    exponent = getattr(kappa, "exponent", None)
    if exponent is not None:
        if exponent != 0.0:
            raise ValueError("oracle_study requires a constant coefficient")
        kappa = float(kappa.scale)
    kappa = float(kappa)
    if (tau_list is None) == (n_cells_list is None):
        raise ValueError("pass exactly one of tau_list or n_cells_list")
    spec = ProblemSpec(alpha=alpha, final_time=final_time,
                       coefficient=CoefficientLaw.constant(kappa),
                       initial=PiecewiseFn.sine(mode),
                       source=SourceTerm.zero())
    if tau_list is not None:
        if n_cells is None:
            raise ValueError("temporal oracle study needs a fixed n_cells")
        taus = [float(t) for t in tau_list]
        _check_halving(taus, "tau_list")
        mesh = build_mesh(n_cells)
        errors = []
        for t in taus:
            run = solve(spec, n_cells, _steps_for(t, final_time))
            errors.append(mode_error(mesh, run.final, alpha, kappa, mode, final_time))
        return RateTable(label=label, axis="temporal", resolutions=taus, errors=errors)
    if tau is None:
        raise ValueError("spatial oracle study needs a fixed tau")
    cells = [require_count(n, 2, "n_cells") for n in n_cells_list]
    hs = [1.0 / n for n in cells]
    _check_halving(hs, "h_list")
    steps = _steps_for(tau, final_time)
    errors = []
    for n in cells:
        run = solve(spec, n, steps)
        errors.append(mode_error(build_mesh(n), run.final, alpha, kappa, mode, final_time))
    return RateTable(label=label, axis="spatial", resolutions=hs, errors=errors)


# -- CSV ----------------------------------------------------------------------


def write_csv(tables, path) -> None:
    """Write one or more rate tables as ``resolution,error,rate`` rows.

    Values use 17-significant-digit scientific notation, which round-trips
    float64 exactly; the rate cell is empty on each table's first row.
    """
    if isinstance(tables, RateTable):
        tables = [tables]
    lines = ["resolution,error,rate"]
    for tb in tables:
        for i, (res, err) in enumerate(zip(tb.resolutions, tb.errors)):
            rate = "" if i == 0 else f"{tb.rates[i - 1]:.16e}"
            lines.append(f"{res:.16e},{err:.16e},{rate}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")

