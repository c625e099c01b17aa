"""Fully discrete stepper for the fractional diffusion model with
time-dependent diffusivity kappa(t).

Each implicit backward-Euler step solves

    (M/tau + d_0 kappa(t_n) S) W^n
        = M W^{n-1}/tau + b(t_n) - kappa(t_n) S sum_{i=1}^{n-1} d_i W^{n-i},

where M and S are the P1 mass and stiffness matrices, b is the load vector
of the source and d_i are the convolution-quadrature weights.  M and S are
diagonal in the discrete sine basis, so the stepper advances sine
coefficients: per mode, a step combines the previous coefficient, the
history sum and the source with factors computed for 64 steps at a time.
Modes never couple, so ``solve_meshes`` marches several meshes that share
the step size at once, their modes side by side in one coefficient array;
``solve`` is its one-mesh case.  A run holds its mesh's coefficients, and
rows are transformed back to nodal values when they are read.  Once the stored
history outgrows the cache, each chunk of 64 steps takes the history of
earlier chunks from one matrix product (see ``_march``).  The scheme admits
an equivalent formulation with the diffusivity frozen at an arbitrary time
level and a correction term moved to the right-hand side; ``step`` exposes
it through ``frozen_time`` so the algebraic cancellation can be verified
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

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


class DiscreteRun:
    """A mesh, a step count and the trajectory W^0 .. W^L (row-wise).

    A run built from nodal rows (``trajectory=``) holds that array itself, so
    writes into it are what ``step`` reads later.  ``solve_meshes`` builds its
    runs from the sine coefficients of the rows (``coefficients=``), each a
    view of its mesh's columns in the array of the joint march, which
    therefore lives as long as any of its runs does.  Nodal rows
    are transformed on read: ``final`` and ``state(n)`` transform one row, and
    the first read of ``trajectory`` transforms every row and keeps them.
    The three agree bitwise.  Reading a row whose nodal values overflow
    raises the ValueError of a non-finite solve.
    """

    def __init__(self, mesh: Mesh1D, n_steps: int, tau: float,
                 trajectory: np.ndarray | None = None, *,
                 coefficients: np.ndarray | None = None):
        if (trajectory is None) == (coefficients is None):
            raise ValueError("pass exactly one of trajectory and coefficients")
        self.mesh, self.n_steps, self.tau = mesh, n_steps, tau
        self._rows = coefficients if trajectory is None else trajectory
        self._modal = trajectory is None

    @property
    def trajectory(self) -> np.ndarray:
        if self._modal:
            nodal = np.empty_like(self._rows)
            for start in range(0, nodal.shape[0], 16):  # blocks bound the FFT's buffers
                nodal[start:start + 16] = self._nodal(self._rows[start:start + 16])
            self._rows, self._modal = nodal, False
        return self._rows

    @property
    def final(self) -> np.ndarray:
        return self._row(-1)

    def state(self, n: int) -> np.ndarray:
        return self._row(n)

    def _row(self, n: int) -> np.ndarray:
        return self._nodal(self._rows[n]) if self._modal else self._rows[n]

    def _nodal(self, coeffs: np.ndarray) -> np.ndarray:
        # overflow surfaces once, as the ValueError, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            values = 2.0 / self.mesh.n_cells * sine_transform(coeffs)
        _require_finite(values, self.mesh, self.n_steps)
        return values


def _require_finite(values: np.ndarray, mesh: Mesh1D, n_steps: int) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"solve produced non-finite states "
                         f"(n_cells={mesh.n_cells}, n_steps={n_steps})")


def project_initial(spec: ProblemSpec, mesh: Mesh1D) -> np.ndarray:
    """Initial nodal vector: Ritz projection for smooth data, L2 otherwise."""
    w0 = spec.initial
    if w0.smooth and w0.has_derivative:
        return ritz_project(w0, mesh)
    return l2_project(w0, mesh)


def _march(coeffs: np.ndarray, meshes: list[Mesh1D], tau: float, spec: ProblemSpec,
           weights: cq.CQWeights, first: int, frozen_time: float | None = None) -> None:
    """Fill rows ``first`` .. of ``coeffs``, the sine coefficients of W^0 ..,
    by the implicit scheme from the rows before them.

    The columns of ``coeffs`` hold the modes of each mesh in ``meshes`` side
    by side, in order.  Modes never couple, so one march advances meshes that
    share the step size as if they were one mesh with their eigenvalues and
    loads concatenated.  Steps go in chunks of 64.  Per chunk the scheme's
    coefficients become (chunk x M) arrays, so that step n is, per mode,

        W^n = carry_n W^{n-1} + hist_n sum_{i=1}^{n-1} d_i W^{n-i} + part_n,

    with inv = 1/(lam_M/tau + d_0 kappa lam_S), carry = lam_M/tau inv,
    hist = -kappa lam_S inv and part = f(t_n) b inv.  Once the n_steps x M
    coefficient history outgrows 2**18 doubles (2 MB, the L2 cache of the
    2-vCPU Xeon it was measured on), a chunk is also a block: the history of
    the rows before it is one matrix product for all its steps
    (``cq.history_sum`` over a range) and goes into ``part``, and each step
    sums only the rows of its own block.  Below that each step sums all
    earlier rows: a history the cache holds gains nothing from the product,
    and at such shapes the product's second BLAS thread costs CPU time while
    the step loop runs.  M counts the columns of all meshes.  Raises
    ValueError, naming the mesh, as soon as a chunk holds a non-finite
    coefficient.
    """
    n_rows, n_modes = coeffs.shape
    if weights.count < n_rows - 1:
        raise ValueError(f"need at least {n_rows - 1} weights, have {weights.count}")
    times = tau * np.arange(n_rows)
    kappa = spec.coefficient(times)
    f = spec.source.time_factor(times)
    # the frozen form puts kappa(t_m) in the implicit part and in a right-hand
    # correction; their difference cancels algebraically against kappa(t_n)
    implicit = kappa if frozen_time is None else spec.coefficient(float(frozen_time))
    hist_factor = -implicit + (implicit - kappa)
    lead = implicit - (implicit - kappa)

    lam_m, lam_s = (np.concatenate(lams) for lams in zip(*map(mode_eigenvalues, meshes)))
    lam_m_tau, d0_lam_s = lam_m / tau, weights.d[0] * lam_s
    load = None
    if not spec.source.is_zero:
        load = np.concatenate([sine_transform(basis_integrals(spec.source.spatial, mesh))
                               for mesh in meshes])
    columns = _columns(meshes)
    blocked = (n_rows - 1) * n_modes > 2 ** 18
    hist = np.empty(n_modes)
    for n0 in range(first, n_rows, 64):
        n1 = min(n0 + 64, n_rows)
        inv = 1.0 / (lam_m_tau + lead[n0:n1, None] * d0_lam_s)
        carry = lam_m_tau * inv
        hist_c = hist_factor[n0:n1, None] * lam_s * inv
        part = None if load is None else f[n0:n1, None] * load * inv
        origin = 1
        if blocked:  # rows 1 .. n0-1 as one product; the steps sum from row n0
            far = hist_c * cq.history_sum(weights, coeffs[1:n0], range(n0, n1),
                                          exclude_current=True)
            part = far if part is None else part + far
            origin = n0
        rows = zip(range(n0, n1), coeffs[n0 - 1:n1 - 1], coeffs[n0:n1], carry, hist_c)
        for k, (n, prev, row, c, h) in enumerate(rows):
            np.dot(weights.history_window(n - origin + 1), coeffs[origin:n], out=hist)
            hist *= h
            np.multiply(c, prev, out=row)
            row += hist
            if part is not None:
                row += part[k]
        for mesh, cols in zip(meshes, columns):
            _require_finite(coeffs[n0:n1, cols], mesh, n_rows - 1)


def _columns(meshes: list[Mesh1D]) -> list[slice]:
    """The column slices of each mesh's modes in a joint coefficient array."""
    ends = list(accumulate((mesh.n_interior for mesh in meshes), initial=0))
    return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


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
    _march(coeffs, [run.mesh], run.tau, spec, weights, n, frozen_time)
    return 2.0 / run.mesh.n_cells * sine_transform(coeffs[n])


def solve_meshes(spec: ProblemSpec, cells, n_steps: int) -> list[DiscreteRun]:
    """The scheme's runs on fresh meshes of ``cells`` cells, all with
    tau = T / n_steps, from one march.

    The sine coefficients of all meshes sit side by side in the columns of
    one array, and each run holds a view of its own columns; the array lives
    as long as any of its runs does.  Each run agrees with ``solve`` of its
    mesh to rounding.  Deterministic: identical inputs produce
    bitwise-identical trajectories.  Raises ValueError when a coefficient or
    a final state comes out non-finite, or when the coefficients or weights
    cannot be allocated; any other row whose nodal values overflow raises
    when read.
    """
    n_steps = require_count(n_steps, 1, "n_steps")
    meshes = [build_mesh(n) for n in cells]
    if not meshes:
        raise ValueError("cells must not be empty")
    tau = spec.final_time / n_steps
    columns = _columns(meshes)
    shape = (n_steps + 1, columns[-1].stop)
    try:  # numpy refuses a shape beyond the address space with ValueError
        coeffs = np.empty(shape)
    except (MemoryError, ValueError):
        raise _unallocated("coefficients", 8 * shape[0] * shape[1], meshes, n_steps) from None
    try:
        weights = cq.generate(spec.alpha, tau, n_steps + 1)
    except MemoryError:
        raise _unallocated("weights", 8 * shape[0], meshes, n_steps) from None

    runs = [DiscreteRun(mesh=mesh, n_steps=n_steps, tau=tau, coefficients=coeffs[:, cols])
            for mesh, cols in zip(meshes, columns)]
    # overflow surfaces once, as the ValueError of _require_finite, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for mesh, cols in zip(meshes, columns):
            coeffs[0, cols] = sine_transform(project_initial(spec, mesh))
        _march(coeffs, meshes, tau, spec, weights, 1)
    for run in runs:
        run._row(-1)  # raises now if the final nodal row overflows
    return runs


def _unallocated(what: str, nbytes: int, meshes: list[Mesh1D], n_steps: int) -> ValueError:
    cells = ", ".join(f"{mesh.n_cells:.6g}" for mesh in meshes)
    return ValueError(f"cannot allocate {nbytes:.3g} bytes for the {what} "
                      f"(n_cells={cells}, n_steps={n_steps:.6g})")


def solve(spec: ProblemSpec, n_cells: int, n_steps: int) -> DiscreteRun:
    """The scheme's run on a fresh mesh with tau = T / n_steps: ``solve_meshes``
    of one mesh, with the same guarantees and errors."""
    return solve_meshes(spec, [n_cells], n_steps)[0]
