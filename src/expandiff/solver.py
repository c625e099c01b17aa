"""Fully discrete stepper for the fractional diffusion model with
time-dependent diffusivity kappa(t).

Each implicit backward-Euler step solves

    (M/tau + d_0 kappa(t_n) S) W^n
        = M W^{n-1}/tau + b(t_n) - kappa(t_n) S sum_{i=1}^{n-1} d_i W^{n-i},

where M and S are the P1 mass and stiffness matrices, b is the load vector
of the source and d_i are the convolution-quadrature weights.  M and S are
diagonal in the discrete sine basis, so the stepper advances sine
coefficients, and time enters only through kappa(t_n) and the source's
f(t_n).  The stepper marches the increments W^n - W^{n-1}, whose history
weights G_i are the partial sums of the d_i, and the mass term joins the
step's divisor.  Divided by the stiffness eigenvalue, a step is one dot and
one division, with or without a source: chunks of 64 steps carry kappa(t_n)
and f(t_n) in their weight block and run in sub-blocks of 8 to 64 steps,
fewer the more modes march, and a running total sums the increments once
per chunk.  The march runs on W^0 and the load divided by a power of two
that brings them near 1, so small states do not fall into the slow
subnormal numbers (see ``_march``).
``solve`` keeps every row of one mesh's march in a run of sine coefficients,
transforms its final row back to nodal values once, and any other row when it
is read.  ``final_states``, which every study reads, keeps no rows: for each
of several step counts it marches several meshes at once, for modes never
couple, their modes side by side in one coefficient array.  Both pay one
set-up for all counts (see ``_joint_march``).  A march that keeps no rows
still grows its memory by 24 bytes per step, for three arrays of N + 1
numbers: the weights Gamma and its two time factors, kappa(t_n) and f(t_n).
A march works in a buffer of two halves of Q + 1 + 64 rows, where Q running
sums, from a sum of Q exponentials of the weights, carry the history older
than the previous chunk.  Chunks alternate between the halves, so the
previous chunk stays where it was written: a chunk takes its history from
before it in one product with the half it reads, folds that half into the
other's sums in one more, and each later sub-block takes the history of the
chunk's earlier rows in one more, so N steps cost O(N Q M) work, not
O(N^2 M) (see ``_march``).  That buffer, the weight block and each step's
operands are the march's plan: after a march returns, one idle plan of
O((2 Q + 130) M) numbers remains, whatever N, and the next march of the same
shape reuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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


def _as_float(value):
    """float(value), but a bool as it is, for the constructors to refuse."""
    return value if isinstance(value, (bool, np.bool_)) else float(value)


@dataclass(frozen=True)
class CoefficientLaw:
    """Diffusivity kappa(t) = scale * t**exponent (constant when exponent = 0).

    Zero scale is admitted for the degenerate no-diffusion case used in
    sanity tests.
    """

    scale: float
    exponent: float = 0.0

    def __post_init__(self):
        if isinstance(self.scale, (bool, np.bool_)) or not 0.0 <= self.scale < math.inf:
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        if isinstance(self.exponent, (bool, np.bool_)) or not 0.0 <= self.exponent < math.inf:
            raise ValueError(f"exponent must be finite and >= 0, got {self.exponent}")

    @classmethod
    def constant(cls, value: float) -> "CoefficientLaw":
        return cls(scale=_as_float(value), exponent=0.0)

    @classmethod
    def power(cls, scale: float, exponent: float) -> "CoefficientLaw":
        return cls(scale=_as_float(scale), exponent=_as_float(exponent))

    def __call__(self, t):
        """kappa(t) at a time, or elementwise at an array of times."""
        return _power_law("coefficient", self.scale, self.exponent, t)


@dataclass(frozen=True)
class SourceTerm:
    """Separable source f(x, t) = t**time_exponent * g(x), or zero."""

    spatial: PiecewiseFn | None = None
    time_exponent: float = 0.0

    def __post_init__(self):
        if (isinstance(self.time_exponent, (bool, np.bool_))
                or not 0.0 <= self.time_exponent < math.inf):
            raise ValueError(
                f"time exponent must be finite and >= 0, got {self.time_exponent}")

    @classmethod
    def zero(cls) -> "SourceTerm":
        return cls(spatial=None)

    @classmethod
    def separable(cls, g: PiecewiseFn, time_exponent: float = 0.0) -> "SourceTerm":
        return cls(spatial=g, time_exponent=_as_float(time_exponent))

    @property
    def is_zero(self) -> bool:
        return self.spatial is None

    def time_factor(self, t):
        """Time factor at a time or an array of times; zero for the zero source."""
        if self.is_zero:
            return np.zeros(np.shape(t))[()]
        return _power_law("source time factor", 1.0, self.time_exponent, t)


@dataclass(frozen=True)
class ProblemSpec:
    """Order alpha, final time, coefficient law, initial datum and source."""

    alpha: float
    final_time: float
    coefficient: CoefficientLaw
    initial: PiecewiseFn
    source: SourceTerm

    def __post_init__(self):
        if isinstance(self.alpha, (bool, np.bool_)) or not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if isinstance(self.final_time, (bool, np.bool_)) or not 0.0 < self.final_time < math.inf:
            raise ValueError(f"final time must be finite and > 0, got {self.final_time}")


class DiscreteRun:
    """A mesh, the step tau and the trajectory W^0 .. W^L, held as the sine
    coefficients of L + 1 >= 2 rows of ``mesh.n_interior`` values, else
    ValueError.  The numbers are not checked, and NaN propagates.

    ``solve`` builds the run and transforms its final row to nodal values
    once; ``final`` and ``state(n_steps)`` return copies of that row.  Other
    rows are transformed on read: ``state(n)`` one row, ``trajectory`` every
    row on each read, and all of them agree bitwise.  Reading a row whose
    nodal values overflow raises the ValueError of a non-finite solve.
    """

    def __init__(self, mesh: Mesh1D, tau: float, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape[1:] != (mesh.n_interior,) or len(coefficients) < 2:
            raise ValueError(f"rows of shape {coefficients.shape} are not >= 2 rows of "
                             f"n_interior={mesh.n_interior} values")
        self.mesh, self.n_steps, self.tau = mesh, len(coefficients) - 1, tau
        self._coeffs = coefficients

    @property
    def trajectory(self) -> np.ndarray:
        nodal = np.empty_like(self._coeffs)
        for start in range(0, nodal.shape[0], 16):  # blocks bound the FFT's buffers
            nodal[start:start + 16] = _nodal(self._coeffs[start:start + 16], self.mesh,
                                             self.n_steps)
        return nodal

    @cached_property
    def _final(self) -> np.ndarray:  # not kept if it raises
        return _nodal(self._coeffs[self.n_steps], self.mesh, self.n_steps)

    @property
    def final(self) -> np.ndarray:
        return self._final.copy()

    def state(self, n: int) -> np.ndarray:
        """W^n for a step index n in 0 .. n_steps, else ValueError."""
        if type(n) is bool or not (isinstance(n, (int, np.integer)) and 0 <= n <= self.n_steps):
            raise ValueError(f"n must be an integer in 0..{self.n_steps}, got {n!r}")
        return self.final if n == self.n_steps else _nodal(self._coeffs[n], self.mesh,
                                                           self.n_steps)


def _nodal(coeffs: np.ndarray, mesh: Mesh1D, n_steps: int) -> np.ndarray:
    """Nodal values of rows of sine coefficients on ``mesh``; ValueError if
    they overflow."""
    # overflow surfaces once, as the ValueError, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        values = 2.0 / mesh.n_cells * sine_transform(coeffs)
    _require_finite(values, mesh, n_steps)
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


_LAGS = abs(np.arange(2 * cq.CHUNK, -cq.CHUNK, -1))  # lags 128 .. 0 .. 63: see _march
_NO_SUMS = np.empty((cq.CHUNK + 1, 0)), np.empty((0, cq.CHUNK + 1))  # see _march
_IDLE = []  # the slot for at most one idle march plan, (key, plan): see _march


def _march(w0: np.ndarray, meshes: list[Mesh1D], spec: ProblemSpec, gammas: np.ndarray,
           tau: float, modes: tuple, fit: tuple | None,
           out: np.ndarray | None = None) -> np.ndarray:
    """March the sine coefficients of W^0 .. W^{n_rows-1}, n_rows = the
    length of the weights ``gammas`` of order ``spec.alpha``
    (``cq.partial_sums``), by the implicit scheme with the step ``tau`` from
    ``w0``, the row of W^0; return the last row, and copy rows 1 .. into
    ``out`` if one is given.

    The columns hold the modes of each mesh in ``meshes`` side by side, in
    order, and ``modes`` holds their joint lam_M, lam_S and load b / lam_S
    (``_modes``).  Modes never couple, so one march advances meshes that
    share the step size as if they were one mesh with their eigenvalues and
    loads concatenated.  The march steps the increments e_1 = W^1 and
    e_n = W^n - W^{n-1}: divided by lam_S, step n is, per mode,

        (rho + G_0 kappa_n) e_n = sum_{l=1}^{n-1} -kappa_n G_{n-l} e_l
                                  + f(t_n) b / lam_S  (+ rho W^0 at n = 1)

    with rho = lam_M / (tau lam_S) and G_i = tau^(alpha-1) Gamma_i, the
    partial sums of the weights d, formed from ``gammas`` at the lags
    0 .. 128 that the march reads; W^n = e_1 + .. + e_n.  It is the scheme's
    step, rho (W^n - W^{n-1}) + kappa_n sum_{i=0}^{n-1} d_i W^{n-i} = f(t_n)
    b / lam_S, with the history summed by parts.  kappa_n and f(t_n) are its
    only arrays of n_rows numbers.  The scheme is linear, so the march
    divides W^0 and the load by the power of two 2**e that puts the larger of
    their largest magnitudes in [0.5, 1), or by 1 when both are zero, and
    multiplies the rows it copies out and returns by it.  That is exact for
    normal numbers, and keeps states near 1e-300 out of the subnormal
    numbers, which cost some 25 times more; a solution that decays into
    subnormals by itself still pays, and so, at alpha = 1, do increments
    that decay exponentially while the state settles.  Steps go in chunks of
    64 from n = 1.
    Rows before the previous chunk meet lags > 64 only, where
    G_i = tau^(alpha-1) sum_q c_q e^{-(i-65) x_q}, from ``fit``, the rates
    and dimensionless amplitudes of ``cq.exponentials`` for this count or
    any larger one (None for runs of up to 128 steps), so they
    reach the chunk from n0 as Q running sums per mode,
    -c_q sum_j e^{-(n0-65-j) x_q} e_j.  ``work`` holds two halves of
    Q + 1 + 64 rows, whatever n_rows, each the sums, the load b / lam_S (zero
    without a source) and a slot for a chunk of increments.  Chunk i reads
    half i mod 2, whose slot holds the previous chunk, and writes its
    increments into the other half's slot, so no row moves between chunks;
    W^0 starts in the last row of the first half's slot.  Row k of each
    chunk's weight block, for step n0 + k, holds kappa_n e^{-k x_q} on the
    sums, f(t_n) on the load, kappa_n times -G at the lag of each row of the
    previous and the current chunk and 1 on the step's own row.  One product
    of the block's left part with the half the chunk reads puts each step's
    older history and source into its row before the chunk starts; in the
    first chunk it ends at the load, and rho W^0 joins row 0 after it.  Then
    one more product, of that half with the fold, a Q x (Q + 1 + 64) matrix
    set once per march, writes the next chunk's sums into the other half:
    the old sums times e^{-64 x_q} plus the previous chunk, always 64 rows,
    with weight 0 on the load.  Both halves' sums start at zero, for the
    second chunk has no fold before it.

    A chunk runs in sub-blocks of b steps, where b follows from M, the
    columns of all meshes, alone: the largest power of two in [8, 64] with
    b M <= 2**14, or 8, so that the rows a sub-block re-reads stay in cache;
    b = 64, one sub-block per chunk, up to M = 256.  Before each later
    sub-block, one product of the block's lag weights with the chunk's
    earlier rows adds their history to the sub-block's rows, and one
    product of the b pairs (G_0 kappa_n, 1) with the rows 1 and rho gives
    its divisors rho + G_0 kappa_n, exactly.  A step's dot, with weight 1 on
    its own row, reads at most b rows and gives the right-hand side, so a
    step is two array operations: the dot and the division.  Each step's
    operands are sliced once per plan, its rows once per half.  The running
    total, W at the end of the chunk before, takes each chunk's increments
    in one sum, and the rows copied out are the total plus the chunk's
    cumulative sums, so their last row is the total's bits.

    The buffers and the operands are a plan (``_plan``), keyed by M, Q, b
    and the rows of the longest chunk.  A march takes the idle plan from the
    module's slot, which holds at most one; if its key differs, the march
    drops it before making its own, so one plan is alive per running march.
    It puts its plan back only when it returns normally, so after a march one
    idle plan of O((2 Q + 130) M) numbers remains, whatever n_rows, and the
    next march of the same shape reuses it.  The take is atomic, so
    concurrent marches never share buffers, and a march that raises drops
    its plan.  The march writes every entry it reads, and returns no view
    into the plan.

    A run of up to 128 steps has no rows before its previous chunk, so Q = 0
    and it reads no ``fit``.  Raises ValueError, naming the mesh, as soon as
    the running total holds a non-finite coefficient, which a non-finite
    increment makes it do, and when the two arrays of n_rows time factors or
    a new plan cannot be allocated.
    """
    n_rows, n_modes, alpha = gammas.size, w0.size, spec.alpha
    lam_m, lam_s, load = modes
    rho = lam_m / (tau * lam_s)
    try:  # kappa(t_n) and f(t_n) on one array of times, which goes once both are made
        kappa, f = (law(times) for times in [tau * np.arange(n_rows)]
                    for law in (spec.coefficient, spec.source.time_factor))
    except MemoryError:
        raise _unallocated("time factors", 16 * n_rows, meshes, n_rows - 1) from None
    chunk = cq.CHUNK
    sub = chunk  # steps per sub-block: its rows hold at most 2**14 numbers, or 8 rows
    while sub > 8 and sub * n_modes > 2 ** 14:
        sub //= 2
    powers, fold = _NO_SUMS
    if n_rows - 1 > 2 * chunk:  # some chunk meets rows before its previous chunk
        x, c = fit
        powers = np.exp(-np.arange(chunk + 1.0)[:, None] * x)  # e^{-k x_q}, k = 0 .. 64
        # the fold reads a half: e^{-64 x_q} on its sum q, 0 on its load and
        # -c_q e^{-(63-j) x_q} on row j of its slot
        fold = np.zeros((x.size, x.size + 1 + chunk))
        np.multiply(-tau ** (alpha - 1.0) * c[:, None], powers[chunk - 1::-1].T,
                    out=fold[:, -chunk:])
        np.fill_diagonal(fold, powers[chunk])
    q = len(fold)
    here = q + chunk + 1  # the rows of a half
    span = min(chunk, n_rows - 1)  # the rows of the longest chunk
    key = n_modes, q, sub, span
    try:
        idle, plan = _IDLE.pop()  # atomic: no other march can take the same plan
    except IndexError:
        idle = None
    if idle != key:
        plan = None  # the idle plan goes before a new one is made
        try:  # numpy refuses a shape beyond the address space with ValueError
            plan = _plan(*key)
        except (MemoryError, ValueError):
            raise _unallocated("coefficients", 8 * 2 * here * n_modes, meshes,
                               n_rows - 1) from None
    work, block, own, pairs, unit_rho, den, part, hist, total, steps = plan
    work[0, q], work[0, -1] = load, w0
    ends = work[0, q::chunk]  # the load and W^0, times 2**-e, which puts their peak in [0.5, 1)
    e = math.frexp(np.abs(ends).max())[1]
    np.ldexp(ends, -e, out=ends)
    work[1, q] = work[0, q]  # each half's own load row
    work[:, :q] = 0.0  # the running sums, scaled by -c_q like the weights
    total.fill(0.0)
    pairs[:, 1] = unit_rho[0] = 1.0  # (G_0 kappa_n, 1) times the rows 1 and rho
    unit_rho[1] = rho
    # column j of the weight block meets row j of the half the chunk reads
    # and, from column here on, row q + 1 + j - here of the half it writes;
    # from the load's column q on it scales a Toeplitz view of -G, at lag
    # |here + k - j| for step k (a lag beyond the run is never read), and
    # column here + k meets the step's own row
    d = -tau ** (alpha - 1.0) * np.take(gammas, _LAGS, mode="clip")  # -G_i
    lags = np.ndarray((chunk, 2 * chunk + 1), buffer=d, offset=d.itemsize * (chunk - 1),
                      strides=(-d.itemsize, d.itemsize))
    d0 = -d[2 * chunk]  # lag 0
    divide = np.divide  # the step loop's call, looked up once
    reach = 0  # the previous chunk's rows in the chunk's product: none in the first
    for n0 in range(1, n_rows, chunk):
        n1 = min(n0 + chunk, n_rows)
        r, side = n1 - n0, n0 // chunk % 2  # chunk i reads half i % 2, writes the other
        old, new, half_steps = work[side], work[1 - side], steps[1 - side]
        weight, rows = block[:r], new[q + 1:q + 1 + r]
        np.multiply(kappa[n0:n1, None], powers[:r], out=weight[:, :q])
        weight[:, q] = f[n0:n1]
        np.multiply(kappa[n0:n1, None], lags[:r, chunk + 1 - reach:chunk + 1 + r],
                    out=weight[:, here - reach:here + r])
        own[:r] = 1.0
        np.matmul(weight[:, :q + 1 + reach], old[:q + 1 + reach], out=rows)
        if not reach:  # W^0 enters the first step alone
            rows[0] += rho * old[-1]
        if reach and n1 < n_rows:  # a later chunk meets these rows through the sums
            np.matmul(fold, old, out=new[:q])
        for s0 in range(0, r, sub):
            s1 = min(s0 + sub, r)
            if s0:  # the chunk's earlier rows enter in one product
                rows[s0:s1] += np.matmul(weight[s0:s1, here:here + s0], rows[:s0],
                                         out=part[:s1 - s0])
            np.multiply(d0, kappa[n0 + s0:n0 + s1], out=pairs[:s1 - s0, 0])
            np.matmul(pairs[:s1 - s0], unit_rho, out=den[:s1 - s0])
            for dot, block_rows, dk, row in half_steps[s0:s1]:
                dot(block_rows, hist)  # bare calls, out by position: no lookup or dispatch
                divide(hist, dk, row)
        if out is not None:  # W^n: the total before the chunk plus the chunk's increments
            kept = out[n0:n1]
            np.cumsum(rows[:-1], axis=0, out=kept[:-1])
            kept[:-1] += total
        total += np.add.reduce(rows, axis=0, out=hist)
        if not np.isfinite(total).all():  # name the first mesh at fault
            for mesh, cols in zip(meshes, _columns(meshes)):
                _require_finite(total[cols], mesh, n_rows - 1)
        if out is not None:  # the total's own bits: at M = 1 add.reduce sums pairwise, cumsum not
            kept[-1] = total
            np.ldexp(kept, e, out=kept)
        reach = chunk
    _IDLE[:] = [(key, plan)]  # one assignment: the slot never holds two plans
    return np.ldexp(total, e)


def _plan(n_modes: int, q: int, sub: int, span: int) -> tuple:
    """A march's buffers for ``n_modes`` columns, ``q`` running sums,
    sub-blocks of ``sub`` steps and chunks of at most ``span`` steps, and
    each step's operands, sliced once (see ``_march``): ``work`` is two
    halves of q + 1 + 64 rows, and ``steps`` one list of operands for the
    slot of each, which share the weight block's bound dots and the divisor
    rows.  Every entry is written by the march before it is read."""
    chunk = cq.CHUNK
    here = q + chunk + 1  # the rows of a half: the sums, the load and a chunk's slot
    work = np.empty((2, here, n_modes))
    block = np.empty((chunk, here + chunk))
    own = block.reshape(-1)[here::here + chunk + 1]  # the diagonal: weight 1
    pairs = np.empty((min(sub, span), 2))  # a sub-block's (G_0 kappa_n, 1)
    unit_rho = np.empty((2, n_modes))  # the rows 1 and rho
    den = np.empty((min(sub, span), n_modes))  # a sub-block's divisors
    part = np.empty_like(den)  # a sub-block's history from the chunk's earlier rows
    hist = np.empty(n_modes)
    total = np.empty(n_modes)  # the running total of the increments
    # step k's operands: its weights' bound dot and its rows, from the first
    # row of its sub-block to its own row; its divisor; its own row.  The
    # dots and divisors serve both halves, each of which has its own rows
    first = [k - k % sub for k in range(span)]
    dots = [block[k, here + s0:here + k + 1].dot for k, s0 in enumerate(first)]
    divisors = [den[k % sub] for k in range(span)]
    steps = tuple(list(zip(dots, [rows[s0:k + 1] for k, s0 in enumerate(first)], divisors,
                           rows[:span]))
                  for rows in work[:, q + 1:])
    return work, block, own, pairs, unit_rho, den, part, hist, total, steps


def _modes(meshes: list[Mesh1D], spec: ProblemSpec):
    """The meshes' joint eigenvalues lam_M and lam_S and load b / lam_S."""
    lam_m, lam_s = (np.concatenate(lams) for lams in zip(*map(mode_eigenvalues, meshes)))
    load = np.zeros_like(lam_s) if spec.source.is_zero else np.concatenate(
        [sine_transform(basis_integrals(spec.source.spatial, mesh)) for mesh in meshes]) / lam_s
    return lam_m, lam_s, load


def _columns(meshes: list[Mesh1D]) -> list[slice]:
    """The column slices of each mesh's modes in a joint coefficient array."""
    ends = list(accumulate((mesh.n_interior for mesh in meshes), initial=0))
    return [slice(a, b) for a, b in zip(ends[:-1], ends[1:])]


def final_states(spec: ProblemSpec, cells, counts) -> list[np.ndarray]:
    """The final state on a fresh mesh of each of ``cells`` cells, in order,
    for each step count n in ``counts``, in order, with tau = T / n, as one
    flat list: the meshes of the first count, then of the next.  One march
    per count advances all meshes and keeps no rows, though the weights g
    and two time factors, arrays of n + 1 numbers, grow its memory by 24
    bytes per step.  Each state agrees with ``solve(spec, m, n).final`` of
    its mesh of m cells to rounding, and bitwise for one mesh and one count.
    Deterministic.  Raises ValueError as ``_joint_march`` does."""
    _, marches = _joint_march(spec, cells, counts, keep=False)
    return [final for finals in marches for final in finals]


def _joint_march(spec: ProblemSpec, cells, counts, keep: bool):
    """The meshes of ``cells`` cells and, for each step count n in
    ``counts``, their joint march with tau = T / n: the sine coefficients of
    every row if ``keep``, which takes one count, else each mesh's final
    state.  The marches share one set-up: the meshes, the sine coefficients
    of W^0, the eigenvalues and the load; the weights Gamma of the largest
    count (``cq.partial_sums``), whose prefix Gamma[:n + 1] is bitwise each
    march's own; and, if that count exceeds 128 steps, one sum of
    exponentials, built for it, whose amplitudes each march scales by its
    own tau^(alpha-1).  So a march gives the bits of a set-up of its own if
    it has at most 128 steps or the largest count, and the same to rounding
    otherwise.  ValueError for no cells or no counts, for a step T / n that
    underflows to 0 or whose tau^(alpha-1) overflows, when a coefficient or
    a final state comes out non-finite, or when the rows kept, the march's
    buffer, its two time factors or the weights Gamma cannot be allocated."""
    counts = [require_count(n, 1, "n_steps") for n in counts]
    meshes = [build_mesh(n) for n in cells]
    if not meshes:
        raise ValueError("cells must not be empty")
    if not counts:
        raise ValueError("counts must not be empty")
    columns = _columns(meshes)
    largest = max(counts)
    if not spec.final_time / largest > 0.0:
        raise ValueError(f"the step T / n underflows to 0 (n_steps={largest}, "
                         f"final_time={spec.final_time})")
    try:  # the largest tau^(alpha-1) of all marches, at the smallest step
        (spec.final_time / largest) ** (spec.alpha - 1.0)
    except OverflowError:
        raise ValueError(f"the weight tau^(alpha-1) overflows at the step T / n "
                         f"(n_steps={largest}, final_time={spec.final_time})") from None
    rows = _coefficients(largest + 1 if keep else 1, columns[-1].stop, meshes, largest)
    try:
        gammas = cq.partial_sums(spec.alpha, largest + 1)
    except MemoryError:
        raise _unallocated("weights", 8 * (largest + 1), meshes, largest) from None
    marches = []
    # overflow surfaces once, as the ValueError of _require_finite, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for mesh, cols in zip(meshes, columns):
            rows[0, cols] = sine_transform(project_initial(spec, mesh))
        modes = _modes(meshes, spec)
        fit = cq.exponentials(spec.alpha, gammas) if largest > 2 * cq.CHUNK else None
        for n in counts:
            final = _march(rows[0], meshes, spec, gammas[:n + 1], spec.final_time / n, modes,
                           fit, out=rows if keep else None)
            marches.append(rows if keep else [_nodal(final[cols], mesh, n)
                                              for mesh, cols in zip(meshes, columns)])
    return meshes, marches


def _coefficients(n_rows: int, n_modes: int, meshes: list[Mesh1D], n_steps: int) -> np.ndarray:
    """An array for ``n_rows`` rows of the meshes' joint sine coefficients;
    ValueError if it cannot be allocated."""
    try:  # numpy refuses a shape beyond the address space with ValueError
        return np.empty((n_rows, n_modes))
    except (MemoryError, ValueError):
        raise _unallocated("coefficients", 8 * n_rows * n_modes, meshes, n_steps) from None


def _unallocated(what: str, nbytes: int, meshes: list[Mesh1D], n_steps: int) -> ValueError:
    cells = ", ".join(f"{mesh.n_cells:.6g}" for mesh in meshes)
    return ValueError(f"cannot allocate {nbytes:.3g} bytes for the {what} "
                      f"(n_cells={cells}, n_steps={n_steps:.6g})")


def solve(spec: ProblemSpec, n_cells: int, n_steps: int) -> DiscreteRun:
    """The scheme's run on a fresh mesh with tau = T / n_steps, every row kept.

    Deterministic: identical inputs produce bitwise-identical trajectories.
    Transforms the final row to nodal values once.  Raises ValueError when a
    coefficient or the final state comes out non-finite, or when the rows,
    two time factors or weights g cannot be allocated; any other row whose
    nodal values overflow raises when read.
    """
    (mesh,), (coeffs,) = _joint_march(spec, [n_cells], [n_steps], keep=True)
    run = DiscreteRun(mesh, spec.final_time / (len(coeffs) - 1), coeffs)
    run._final  # raises now if the final nodal row overflows
    return run
