"""Fully discrete stepper for the fractional diffusion model with
time-dependent diffusivity kappa(t).

Each implicit backward-Euler step solves the tridiagonal system

    (M/tau + d_0 kappa(t_n) S) W^n
        = M W^{n-1}/tau + b(t_n) - kappa(t_n) S sum_{i=1}^{n-1} d_i W^{n-i},

where M and S are the P1 mass and stiffness matrices, b is the load vector
of the source and d_i are the convolution-quadrature weights.  The system
matrix is strictly diagonally dominant for every kappa >= 0, so the
pivot-free Thomas solve is safe.  The scheme admits an equivalent
formulation with the diffusivity frozen at an arbitrary time level and a
correction term moved to the right-hand side; ``step`` exposes it through
``frozen_time`` so the algebraic cancellation can be verified directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cq
from .fem1d import (Mesh1D, PiecewiseFn, TriDiagMatrix, assemble_mass,
                    assemble_stiffness, basis_integrals, build_mesh,
                    l2_project, require_count, ritz_project, solve_tridiag)


@dataclass(frozen=True)
class CoefficientLaw:
    """Diffusivity kappa(t) = scale * t**exponent (constant when exponent = 0).

    Zero scale is admitted for the degenerate no-diffusion case used in
    sanity tests.
    """

    scale: float
    exponent: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.scale < math.inf:
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        if not 0.0 <= self.exponent < math.inf:
            raise ValueError(f"exponent must be finite and >= 0, got {self.exponent}")

    @classmethod
    def constant(cls, value: float) -> "CoefficientLaw":
        return cls(scale=float(value), exponent=0.0)

    @classmethod
    def power(cls, scale: float, exponent: float) -> "CoefficientLaw":
        return cls(scale=float(scale), exponent=float(exponent))

    @property
    def is_constant(self) -> bool:
        return self.exponent == 0.0

    def __call__(self, t: float) -> float:
        if self.exponent == 0.0:
            return self.scale
        return self.scale * float(t) ** self.exponent


@dataclass(frozen=True)
class SourceTerm:
    """Separable source f(x, t) = time_scale * t**time_exponent * g(x), or zero."""

    spatial: PiecewiseFn | None = None
    time_scale: float = 1.0
    time_exponent: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.time_scale):
            raise ValueError(f"time scale must be finite, got {self.time_scale}")
        if not 0.0 <= self.time_exponent < math.inf:
            raise ValueError(
                f"time exponent must be finite and >= 0, got {self.time_exponent}")

    @classmethod
    def zero(cls) -> "SourceTerm":
        return cls(spatial=None)

    @classmethod
    def separable(cls, g: PiecewiseFn, time_exponent: float = 0.0,
                  time_scale: float = 1.0) -> "SourceTerm":
        return cls(spatial=g, time_scale=float(time_scale),
                   time_exponent=float(time_exponent))

    @property
    def is_zero(self) -> bool:
        return self.spatial is None

    def time_factor(self, t: float) -> float:
        if self.is_zero:
            return 0.0
        if self.time_exponent == 0.0:
            return self.time_scale
        return self.time_scale * float(t) ** self.time_exponent


@dataclass(frozen=True)
class ProblemSpec:
    """Order alpha, final time, coefficient law, initial datum and source."""

    alpha: float
    final_time: float
    coefficient: CoefficientLaw
    initial: PiecewiseFn
    source: SourceTerm

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 < self.final_time < math.inf:
            raise ValueError(f"final time must be finite and > 0, got {self.final_time}")


@dataclass
class DiscreteRun:
    """A mesh, a step count and the full trajectory W^0 .. W^L (row-wise)."""

    mesh: Mesh1D
    n_steps: int
    tau: float
    trajectory: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return self.trajectory[-1]

    def state(self, n: int) -> np.ndarray:
        return self.trajectory[n]

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)


def project_initial(spec: ProblemSpec, mesh: Mesh1D) -> np.ndarray:
    """Initial nodal vector: Ritz projection for smooth data, L2 otherwise."""
    w0 = spec.initial
    if w0.smooth and w0.has_derivative:
        return ritz_project(w0, mesh)
    return l2_project(w0, mesh)


def load_vector(source: SourceTerm, mesh: Mesh1D, t: float) -> np.ndarray:
    """b_j(t) = time factor at t times the exact spatial integrals (g, phi_j)."""
    if source.is_zero:
        return np.zeros(mesh.n_interior)
    return source.time_factor(t) * basis_integrals(source.spatial, mesh)


def _advance(spec: ProblemSpec, mass: TriDiagMatrix, stiff: TriDiagMatrix,
             weights: cq.CQWeights, spatial_load: np.ndarray | None,
             trajectory: np.ndarray, n: int, tau: float,
             frozen_time: float | None) -> np.ndarray:
    """Compute W^n from rows 0..n-1 of ``trajectory``."""
    t_n = n * tau
    kap_n = spec.coefficient(t_n)
    d = weights.d
    d_rev = weights.d_reversed
    last = weights.count - 1

    rhs = mass.matvec(trajectory[n - 1]) / tau
    if spatial_load is not None:
        rhs = rhs + spec.source.time_factor(t_n) * spatial_load

    hist = None
    if n > 1:
        # contiguous slice pairing d_{n-1}..d_1 with rows W^1..W^{n-1}
        hist = stiff.matvec(d_rev[last - n + 1:last] @ trajectory[1:n])

    if frozen_time is None:
        if hist is not None:
            rhs = rhs - kap_n * hist
        sys_diag = mass.diag / tau + d[0] * kap_n * stiff.diag
        sys_off = mass.sup / tau + d[0] * kap_n * stiff.sup
    else:
        # literal frozen-coefficient form: both the implicit part and the
        # right-hand correction carry kappa(t_m); the difference cancels
        # algebraically against the m-free form above.
        kap_m = spec.coefficient(float(frozen_time))
        if hist is not None:
            rhs = rhs - kap_m * hist + (kap_m - kap_n) * hist
        lead = d[0] * kap_m - d[0] * (kap_m - kap_n)
        sys_diag = mass.diag / tau + lead * stiff.diag
        sys_off = mass.sup / tau + lead * stiff.sup

    system = TriDiagMatrix(sub=sys_off, diag=sys_diag, sup=sys_off)
    return solve_tridiag(system, rhs)


def step(run: DiscreteRun, spec: ProblemSpec, weights: cq.CQWeights, n: int,
         frozen_time: float | None = None) -> np.ndarray:
    """One implicit step: W^n from the states W^0 .. W^{n-1} stored in ``run``.

    Returns the new state without writing it into the trajectory.  With
    ``frozen_time`` the diffusivity of the implicit operator is frozen at
    that time level and the correction term moved to the right-hand side.
    """
    if not 1 <= n <= run.n_steps:
        raise ValueError(f"step index must lie in 1..{run.n_steps}, got {n}")
    if weights.count < n:
        raise ValueError(f"need at least {n} weights, have {weights.count}")
    spatial = None
    if not spec.source.is_zero:
        spatial = basis_integrals(spec.source.spatial, run.mesh)
    return _advance(spec, assemble_mass(run.mesh), assemble_stiffness(run.mesh),
                    weights, spatial, run.trajectory, n, run.tau, frozen_time)


def solve(spec: ProblemSpec, n_cells: int, n_steps: int) -> DiscreteRun:
    """Full trajectory of the scheme on a fresh mesh with tau = T / n_steps.

    Deterministic: identical inputs produce bitwise-identical trajectories.
    The source's spatial integrals are computed once and reused across steps.
    """
    n_steps = require_count(n_steps, 1, "n_steps")
    mesh = build_mesh(n_cells)
    tau = spec.final_time / n_steps
    weights = cq.generate(spec.alpha, tau, n_steps + 1)
    mass = assemble_mass(mesh)
    stiff = assemble_stiffness(mesh)
    spatial = None
    if not spec.source.is_zero:
        spatial = basis_integrals(spec.source.spatial, mesh)

    trajectory = np.zeros((n_steps + 1, mesh.n_interior))
    trajectory[0] = project_initial(spec, mesh)
    run = DiscreteRun(mesh=mesh, n_steps=n_steps, tau=tau, trajectory=trajectory)
    for n in range(1, n_steps + 1):
        trajectory[n] = _advance(spec, mass, stiff, weights, spatial,
                                 trajectory, n, tau, None)
    return run
