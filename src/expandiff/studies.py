"""Self-convergence studies, closed-form validation and rate tables.

Temporal errors compare final-time states of runs with step tau and tau/2
on the same mesh; spatial errors prolong the coarse final state to the
once-refined mesh and measure the difference there.  Both are exact L2
norms of P1 functions.  Rates are pairwise log2 error ratios; a NaN rate
marks a zero error (no information).  The meshes of a spatial study share
one step size, so ``_final_states`` marches all but the finest together.
Oracle studies share the ladder checks and final states of these studies and
measure each final state against the closed form instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fem1d import (_GAUSS_W, _GAUSS_X, Mesh1D, build_mesh, l2_norm, prolong,
                    require_count)
from .mittag_leffler import exact_solution
from .solver import (CoefficientLaw, PiecewiseFn, ProblemSpec, SourceTerm,
                     solve, solve_meshes)


@dataclass
class RateTable:
    """Errors over a halving resolution sequence with observed log2 rates."""

    label: str
    axis: str  # "temporal" or "spatial"
    resolutions: list[float]
    errors: list[float]
    rates: list[float] = field(init=False)

    def __post_init__(self):
        if self.axis not in ("temporal", "spatial"):
            raise ValueError(f"axis must be 'temporal' or 'spatial', got {self.axis!r}")
        if len(self.resolutions) != len(self.errors):
            raise ValueError("resolutions and errors must have equal length")
        if any(e < 0 for e in self.errors):
            raise ValueError("errors must be nonnegative")
        self.rates = observed_rates(self.errors)


def observed_rates(errors) -> list[float]:
    """Pairwise rates log2(e_k / e_{k+1}); NaN where either error is zero."""
    out = []
    for a, b in zip(errors[:-1], errors[1:]):
        out.append(math.log2(a / b) if a > 0 and b > 0 else math.nan)
    return out


def _ladder(values: list, what: str) -> list:
    """``values``; ValueError if empty or not strictly halving."""
    if not values:
        raise ValueError(f"{what} must not be empty")
    for a, b in zip(values[:-1], values[1:]):
        if not math.isclose(b, a / 2, rel_tol=1e-9):
            raise ValueError(f"{what} must halve strictly: {a} -> {b}")
    return values


def _cell_ladder(n_cells_list) -> tuple[list[int], list[float]]:
    """Cell counts (integers >= 2) and their widths h, which must halve strictly."""
    cells = [require_count(n, 2, "n_cells") for n in n_cells_list]
    return cells, _ladder([1.0 / n for n in cells], "h_list")


def _steps_for(tau: float, final_time: float) -> int:
    steps = final_time / tau if tau > 0.0 else math.nan
    n = round(steps) if math.isfinite(steps) else 0
    if n < 1 or not math.isclose(steps, n, rel_tol=1e-9):
        raise ValueError(f"step {tau} does not divide the final time {final_time}")
    return n


def _final_states(spec: ProblemSpec, cells: list[int], n_steps: int) -> list[np.ndarray]:
    """Final states on meshes of ``cells`` cells (ascending), all with n_steps.

    The coarse meshes march together and the finest alone.  For a halving
    sequence the coarse meshes hold fewer modes together than the finest
    (31 + 63 < 127), so the joint array is freed before the finest solve
    allocates a larger one, and peak memory stays that of the finest solve.
    """
    coarse, finest = cells[:-1], cells[-1:]
    finals = [run.final for run in solve_meshes(spec, coarse, n_steps)] if coarse else []
    return finals + [solve(spec, n, n_steps).final for n in finest]


def _final_states_over_tau(spec: ProblemSpec, n_cells: int, taus) -> list[np.ndarray]:
    """Final states on one mesh, one solve per step in ``taus``."""
    return [solve(spec, n_cells, _steps_for(t, spec.final_time)).final for t in taus]


def temporal_study(spec: ProblemSpec, n_cells: int, tau_list, label: str = "") -> RateTable:
    """E_tau = ||W^L_tau - W^{2L}_{tau/2}|| at the final time on a fixed mesh."""
    taus = _ladder([float(t) for t in tau_list], "tau_list")
    finals = _final_states_over_tau(spec, n_cells, taus + [taus[-1] / 2.0])
    mesh = build_mesh(n_cells)
    errors = [l2_norm(mesh, a - b) for a, b in zip(finals[:-1], finals[1:])]
    return RateTable(label=label, axis="temporal", resolutions=taus, errors=errors)


def spatial_study(spec: ProblemSpec, tau: float, n_cells_list, label: str = "") -> RateTable:
    """E_h = ||prolong(W_h) - W_{h/2}|| at the final time, on the finer mesh."""
    cells, hs = _cell_ladder(n_cells_list)
    steps = _steps_for(tau, spec.final_time)
    finals = _final_states(spec, cells + [2 * cells[-1]], steps)
    errors = []
    for n, coarse, fine_final in zip(cells, finals[:-1], finals[1:]):
        fine = build_mesh(2 * n)
        errors.append(l2_norm(fine, prolong(build_mesh(n), coarse, fine) - fine_final))
    return RateTable(label=label, axis="spatial", resolutions=hs, errors=errors)


# -- closed-form validation ---------------------------------------------------


def mode_error(mesh: Mesh1D, values: np.ndarray, alpha: float, kappa: float,
               mode: int, t: float) -> float:
    """L2 error of the P1 field against the closed form ``exact_solution``.

    The squared difference is integrated with the per-element Gauss rule, so
    the interpolation error of the sine is included.
    """
    if np.shape(values) != (mesh.n_interior,):
        raise ValueError(f"values of shape {np.shape(values)} do not match the mesh "
                         f"with {mesh.n_cells} cells ({mesh.n_interior} interior nodes)")
    nodes = mesh.nodes
    full = np.concatenate(([0.0], values, [0.0]))
    pts = nodes[:-1, None] + 0.5 * mesh.h * (_GAUSS_X[None, :] + 1.0)
    lam1 = (pts - nodes[:-1, None]) / mesh.h
    p1 = full[:-1, None] * (1.0 - lam1) + full[1:, None] * lam1
    diff2 = (p1 - exact_solution(alpha, kappa, mode, pts, t)) ** 2
    return float(np.sqrt(0.5 * mesh.h * float((diff2 @ _GAUSS_W).sum())))


def oracle_study(alpha: float, kappa: float, mode: int, *, final_time: float,
                 n_cells: int | None = None, tau: float | None = None,
                 tau_list=None, n_cells_list=None, label: str = "") -> RateTable:
    """Convergence against the closed-form single-mode solution.

    Pass ``tau_list`` with a fixed ``n_cells`` for the temporal axis, or
    ``n_cells_list`` with a fixed ``tau`` for the spatial axis; any other
    combination of these four raises ValueError.  The
    coefficient is the constant ``kappa``, a nonnegative number; the initial
    datum is the smooth sine mode (Ritz-projected), the source is zero.
    """
    if not (tau_list is None) == (n_cells is None) != (n_cells_list is None) == (tau is None):
        raise ValueError("pass tau_list with n_cells, or n_cells_list with tau, and nothing else")
    spec = ProblemSpec(alpha=alpha, final_time=final_time,
                       coefficient=CoefficientLaw.constant(kappa),
                       initial=PiecewiseFn.sine(mode),
                       source=SourceTerm.zero())
    if tau_list is not None:
        axis, resolutions = "temporal", _ladder([float(t) for t in tau_list], "tau_list")
        meshes = [build_mesh(n_cells)] * len(resolutions)
        finals = _final_states_over_tau(spec, n_cells, resolutions)
    else:
        cells, resolutions = _cell_ladder(n_cells_list)
        axis, meshes = "spatial", [build_mesh(n) for n in cells]
        finals = _final_states(spec, cells, _steps_for(tau, final_time))
    errors = [mode_error(mesh, final, alpha, kappa, mode, final_time)
              for mesh, final in zip(meshes, finals)]
    return RateTable(label=label, axis=axis, resolutions=resolutions, errors=errors)


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

