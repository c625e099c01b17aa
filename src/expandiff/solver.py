"""Fully discrete stepper for the fractional diffusion model with
time-dependent diffusivity kappa(t).

Each implicit backward-Euler step solves

    (M/tau + d_0 kappa(t_n) S) W^n
        = M W^{n-1}/tau + b(t_n) - kappa(t_n) S sum_{i=1}^{n-1} d_i W^{n-i},

where M and S are the P1 mass and stiffness matrices, b is the load vector
of the source and d_i are the convolution-quadrature weights.  M and S are
diagonal in the discrete sine basis, so the stepper advances sine
coefficients by one division per mode and transforms the stored rows back
to nodal values at the end.  kappa(t_n) and the source's time factor are
evaluated once per solve, for all steps.  Once the stored history outgrows
the cache, steps go in blocks of 64 whose history of earlier blocks is one
matrix product (see ``_march``).  The scheme admits an equivalent
formulation with the diffusivity frozen at an arbitrary time level and a
correction term moved to the right-hand side; ``step`` exposes it through
``frozen_time`` so the algebraic cancellation can be verified directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cq
from .fem1d import (Mesh1D, PiecewiseFn, basis_integrals, build_mesh,
                    l2_project, mode_eigenvalues, require_count, ritz_project,
                    sine_transform)


def _power_law(law: str, scale: float, exponent: float, t):
    """scale * t**exponent at a time or an array of times; ValueError naming
    the law and the first t at which t**exponent overflows."""
    with np.errstate(over="ignore"):
        power = np.power(t, exponent)
    overflowed = np.asarray(t)[np.isinf(power)]
    if overflowed.size:
        raise ValueError(f"{law} {scale} * t**{exponent} overflows at t = {overflowed.flat[0]}")
    return scale * power


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

    def __call__(self, t):
        """kappa(t) at a time, or elementwise at an array of times."""
        return _power_law("coefficient", self.scale, self.exponent, t)


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

    def time_factor(self, t):
        """Time factor at a time or an array of times; 0.0 for the zero source."""
        if self.is_zero:
            return 0.0
        return _power_law("source time factor", self.time_scale, self.time_exponent, t)


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


def _march(run: DiscreteRun, spec: ProblemSpec, weights: cq.CQWeights, first: int,
           frozen_time: float | None = None) -> None:
    """Fill rows ``first`` .. of ``run.trajectory``, which hold sine
    coefficients, by the implicit scheme from the rows before them.

    Steps go in blocks of B: the history of the rows before a block comes
    from one matrix product for all B steps (``cq.history_sum`` over a
    range), and each step adds the at most B - 1 rows of its own block.
    B = 64 once the n_steps x M coefficient history outgrows 2**18 doubles
    (2 MB, the L2 cache of the 2-vCPU Xeon it was measured on), and B = 1
    below that: a history the cache holds gains nothing from the product,
    and at such shapes the product's second BLAS thread costs CPU time
    while the step loop runs.
    """
    coeffs = run.trajectory
    n_rows, n_modes = coeffs.shape
    kappa = spec.coefficient(run.times)
    f = spec.source.time_factor(run.times)
    # the frozen form puts kappa(t_m) in the implicit part and in a right-hand
    # correction; their difference cancels algebraically against kappa(t_n)
    implicit = kappa if frozen_time is None else spec.coefficient(float(frozen_time))
    hist_factor = -implicit + (implicit - kappa)
    lead = implicit - (implicit - kappa)

    lam_m, lam_s = mode_eigenvalues(run.mesh)
    lam_m_tau, d0_lam_s = lam_m / run.tau, weights.d[0] * lam_s
    load = None
    if not spec.source.is_zero:
        load = sine_transform(basis_integrals(spec.source.spatial, run.mesh))
    block = 1 if (n_rows - 1) * n_modes <= 2 ** 18 else 64
    for n0 in range(first, n_rows, block):
        n1 = min(n0 + block, n_rows)
        far = cq.history_sum(weights, coeffs[1:n0], range(n0, n1), exclude_current=True)
        for n in range(n0, n1):
            hist = far[n - n0]
            if n > n0:  # rows n0 .. n-1 of this block, as the history from origin n0
                hist = hist + cq.history_sum(weights, coeffs[n0:n], n - n0 + 1,
                                             exclude_current=True)
            rhs = lam_m_tau * coeffs[n - 1] + hist_factor[n] * (lam_s * hist)
            if load is not None:
                rhs += f[n] * load
            coeffs[n] = rhs / (lam_m_tau + lead[n] * d0_lam_s)


def step(run: DiscreteRun, spec: ProblemSpec, weights: cq.CQWeights, n: int,
         frozen_time: float | None = None) -> np.ndarray:
    """One implicit step: W^n from the states W^0 .. W^{n-1} stored in ``run``.

    Returns the new state without writing it into the trajectory.  With
    ``frozen_time`` the diffusivity of the implicit operator is frozen at
    that time level and the correction term moved to the right-hand side.
    """
    if not 1 <= n <= run.n_steps:
        raise ValueError(f"step index must lie in 1..{run.n_steps}, got {n}")
    coeffs = np.empty((n + 1, run.mesh.n_interior))
    coeffs[:n] = sine_transform(run.trajectory[:n])
    head = DiscreteRun(mesh=run.mesh, n_steps=n, tau=run.tau, trajectory=coeffs)
    _march(head, spec, weights, n, frozen_time)
    return 2.0 / run.mesh.n_cells * sine_transform(coeffs[n])


def solve(spec: ProblemSpec, n_cells: int, n_steps: int) -> DiscreteRun:
    """Full trajectory of the scheme on a fresh mesh with tau = T / n_steps.

    Deterministic: identical inputs produce bitwise-identical trajectories.
    Raises ValueError when any state comes out non-finite.
    """
    n_steps = require_count(n_steps, 1, "n_steps")
    mesh = build_mesh(n_cells)
    tau = spec.final_time / n_steps
    weights = cq.generate(spec.alpha, tau, n_steps + 1)

    # rows hold sine coefficients while stepping, nodal values afterwards
    trajectory = np.empty((n_steps + 1, mesh.n_interior))
    trajectory[0] = sine_transform(project_initial(spec, mesh))
    run = DiscreteRun(mesh=mesh, n_steps=n_steps, tau=tau, trajectory=trajectory)
    # overflow surfaces once, as the ValueError below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        _march(run, spec, weights, 1)
        for start in range(0, n_steps + 1, 16):  # blocks bound the transform's scratch
            block = trajectory[start:start + 16]
            block[:] = 2.0 / mesh.n_cells * sine_transform(block)
            if not np.isfinite(block).all():
                raise ValueError(f"solve produced non-finite states "
                                 f"(n_cells={mesh.n_cells}, n_steps={n_steps})")
    return run
