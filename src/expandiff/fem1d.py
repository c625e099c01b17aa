"""Piecewise-linear finite elements on uniform meshes of (0, 1).

Homogeneous Dirichlet conditions are enforced by elimination, so every
nodal vector has length ``n_cells - 1``, one value per interior node.  On the
uniform mesh the mass and stiffness matrices are diagonal in the discrete
sine basis (``mode_eigenvalues``, ``sine_transform``), where the L2
projection, the L2 norm and the time stepper work; their tridiagonal forms
and the Thomas solve remain only as direct references.  The Ritz projection
is the nodal interpolant of the datum minus that of the line through its end values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# 4-point Gauss-Legendre rule on [-1, 1]: exact through degree 7,
# which makes quadrature error negligible against the P1 error scales.
# numpy's leggauss(4), bit for bit, without importing numpy.polynomial; the
# closed forms differ from it in the last bit
_GAUSS_X = np.array([-0.8611363115940526, -0.33998104358485626,
                     0.33998104358485626, 0.8611363115940526])
_GAUSS_W = np.array([0.34785484513745357, 0.6521451548625464,
                     0.6521451548625464, 0.34785484513745357])


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of (0, 1) into ``n_cells`` elements of width ``h = 1 / n_cells``;
    ``build_mesh`` checks the count, the field is not checked: NaN propagates."""

    n_cells: int

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def n_interior(self) -> int:
        return self.n_cells - 1

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.n_cells)

    @property
    def nodes(self) -> np.ndarray:
        """All node coordinates 0, h, 2h, ..., 1 (boundary included)."""
        x = self.h * np.arange(self.n_cells + 1)
        x[-1] = 1.0
        return x


def require_count(value, minimum: int, name: str) -> int:
    """``value`` as an int; ValueError unless it is an integer >= ``minimum``
    that a float holds, and not a bool."""
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be an integer >= {minimum} that a float holds") from None
    if isinstance(value, (bool, np.bool_)) or not (number.is_integer() and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def build_mesh(n_cells: int) -> Mesh1D:
    """Uniform mesh with ``n_cells >= 2`` elements on (0, 1)."""
    n = require_count(n_cells, 2, "n_cells")
    return Mesh1D(n_cells=n)


@dataclass(frozen=True)
class TriDiagMatrix:
    """Symmetric-by-construction tridiagonal operator on interior nodes."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        n = self.diag.size
        if self.sub.size != n - 1 or self.sup.size != n - 1:
            raise ValueError("off-diagonal arrays must have length n - 1")

    @property
    def n(self) -> int:
        return self.diag.size

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"vector length {v.shape} does not match matrix size {self.n}")
        out = self.diag * v
        if self.n > 1:
            out[:-1] += self.sup * v[1:]
            out[1:] += self.sub * v[:-1]
        return out


class PiecewiseFn:
    """Spatial data on [0, 1]: piecewise constants or a smooth sine mode.

    Piecewise constants (one value per piece, e.g. characteristic functions
    chi_[a,b]) are integrated against the hat basis exactly, splitting
    elements at the breakpoints.  A sine mode sin(m pi x) takes no values,
    carries the ``smooth`` flag and is integrated with the per-element
    Gauss rule; the flag also selects the Ritz projection for initial data.
    """

    def __init__(self, breakpoints, values, *, smooth=False, sine_mode=None):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.size < 2 or np.any(np.diff(bp) < 0) or bp[0] < 0.0 or bp[-1] > 1.0:
            raise ValueError("breakpoints must be sorted within [0, 1]")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        self.breakpoints = bp
        self.sine_mode = None if sine_mode is None else require_count(sine_mode, 1, "sine mode")
        self.smooth = bool(smooth)
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (0 if self.is_sine else bp.size - 1,):
            raise ValueError(f"values must be one number per piece, none for a sine: {values!r}")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "PiecewiseFn":
        return cls([0.0, 1.0], [0.0])

    @classmethod
    def indicator(cls, a: float, b: float) -> "PiecewiseFn":
        """Characteristic function chi_[a, b]."""
        if not 0.0 <= a < b <= 1.0:
            raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
        bp = [0.0, a, b, 1.0]
        vals = [0.0, 1.0, 0.0]
        keep = [i for i in range(3) if bp[i] < bp[i + 1]]
        return cls([bp[i] for i in keep] + [1.0], [vals[i] for i in keep])

    @classmethod
    def sine(cls, mode: int, smooth: bool = True) -> "PiecewiseFn":
        """sin(mode * pi * x); ``smooth=False`` flags it rough, which forces
        the L2 projection."""
        return cls([0.0, 1.0], [], smooth=smooth, sine_mode=mode)

    # -- evaluation --------------------------------------------------------

    @property
    def is_sine(self) -> bool:
        return self.sine_mode is not None

    @property
    def has_derivative(self) -> bool:
        """True when the datum is continuous on [0, 1] (a sine mode or a single
        piece), so that it lies in H1 and has a Ritz projection."""
        return self.is_sine or self.values.size == 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.is_sine:
            return np.sin(self.sine_mode * np.pi * x)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                      0, self.values.size - 1)
        return self.values[idx]


# -- assembly ---------------------------------------------------------------


def assemble_mass(mesh: Mesh1D) -> TriDiagMatrix:
    """Consistent P1 mass matrix on interior nodes: diag 2h/3, off-diag h/6."""
    m = mesh.n_interior
    return TriDiagMatrix(sub=np.full(m - 1, mesh.h / 6.0),
                         diag=np.full(m, 2.0 * mesh.h / 3.0),
                         sup=np.full(m - 1, mesh.h / 6.0))


def assemble_stiffness(mesh: Mesh1D) -> TriDiagMatrix:
    """P1 stiffness matrix on interior nodes: diag 2/h, off-diag -1/h."""
    m = mesh.n_interior
    return TriDiagMatrix(sub=np.full(m - 1, -1.0 / mesh.h),
                         diag=np.full(m, 2.0 / mesh.h),
                         sup=np.full(m - 1, -1.0 / mesh.h))


def mode_eigenvalues(mesh: Mesh1D) -> tuple[np.ndarray, np.ndarray]:
    """Mass and stiffness eigenvalues h/3 (2 + cos k pi h) and 2/h (1 - cos k pi h)
    of the sine modes sin(k pi x_j), k = 1 .. n_cells - 1."""
    c = np.cos(np.pi * np.arange(1, mesh.n_cells) / mesh.n_cells)
    return mesh.h / 3.0 * (2.0 + c), 2.0 / mesh.h * (1.0 - c)


def sine_transform(rows: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I along the last axis, X_k = sum_j x_j sin(pi j k / (m + 1)),
    from the real FFT of the odd extension; applied twice it is (m + 1)/2 times
    the identity."""
    m = rows.shape[-1]
    ext = np.zeros(rows.shape[:-1] + (2 * m + 2,))
    ext[..., 1:m + 1] = rows
    ext[..., m + 2:] = -rows[..., ::-1]
    return -0.5 * np.fft.rfft(ext)[..., 1:m + 1].imag


def basis_integrals(g: PiecewiseFn, mesh: Mesh1D) -> np.ndarray:
    """b_j = integral of g * phi_j for every interior hat function phi_j.

    Elements are split at the breakpoints of g and the 4-point Gauss rule
    runs on every piece.  Piecewise constants are integrated exactly; sine
    data carries the quadrature error of the rule.
    """
    n, h = mesh.n_cells, mesh.h
    nodes = mesh.nodes
    pts = np.union1d(nodes, g.breakpoints)
    mid = 0.5 * (pts[:-1] + pts[1:])
    half = 0.5 * (pts[1:] - pts[:-1])
    k = np.minimum((mid / h).astype(int), n - 1)   # element of each piece
    x = mid[:, None] + half[:, None] * _GAUSS_X
    lam = (x - nodes[k, None]) / h                 # phi_{k+1} on element k
    vals = g(x) * (half[:, None] * _GAUSS_W)
    right = (vals * lam).sum(axis=1)
    left = (vals * (1.0 - lam)).sum(axis=1)
    full = np.bincount(np.concatenate((k, k + 1)),
                       weights=np.concatenate((left, right)), minlength=n + 1)
    return full[1:-1]


# -- projections and solves --------------------------------------------------


def l2_project(g: PiecewiseFn, mesh: Mesh1D) -> np.ndarray:
    """L2-orthogonal projection onto the interior P1 space, the c with M c = (g, phi_j),
    as c = S(S b * 2h/lam_M) for S = sine_transform; this order keeps intermediates in range."""
    scale = 2.0 * mesh.h / mode_eigenvalues(mesh)[0]
    return sine_transform(sine_transform(basis_integrals(g, mesh)) * scale)


def ritz_project(g: PiecewiseFn, mesh: Mesh1D) -> np.ndarray:
    """Energy (Ritz) projection, the c with S c = (g', phi_j'), in closed form.

    The hat derivatives are +-1/h, so (g', phi_j') = (2 g_j - g_{j-1} - g_{j+1})/h
    from the nodal values alone, and S annihilates the nodal values of lines:
    c is the interpolant of g(x) - g(0)(1 - x) - g(1)x at the interior nodes.
    """
    if not g.has_derivative:
        raise ValueError("Ritz projection needs derivative data; got non-smooth input")
    x = mesh.nodes
    v = g(x)
    return (v - v[0] * (1.0 - x) - v[-1] * x)[1:-1]


def solve_tridiag(A: TriDiagMatrix, rhs: np.ndarray) -> np.ndarray:
    """Thomas elimination without pivoting; raises on a zero pivot."""
    rhs = np.asarray(rhs, dtype=float)
    n = A.n
    if rhs.shape != (n,):
        raise ValueError(f"rhs length {rhs.shape} does not match matrix size {n}")
    cp = np.empty(n)
    dp = np.empty(n)
    piv = A.diag[0]
    if piv == 0.0:
        raise np.linalg.LinAlgError("zero pivot in tridiagonal elimination")
    cp[0] = A.sup[0] / piv if n > 1 else 0.0
    dp[0] = rhs[0] / piv
    for i in range(1, n):
        piv = A.diag[i] - A.sub[i - 1] * cp[i - 1]
        if piv == 0.0:
            raise np.linalg.LinAlgError("zero pivot in tridiagonal elimination")
        if i < n - 1:
            cp[i] = A.sup[i] / piv
        dp[i] = (rhs[i] - A.sub[i - 1] * dp[i - 1]) / piv
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def l2_norm(mesh: Mesh1D, v: np.ndarray) -> float:
    """Exact L2 norm sqrt(v' M v) of the P1 function with interior values v,
    as sqrt(2h sum_k lam_M,k (S v)_k^2) for S = sine_transform; NaN propagates."""
    v = np.asarray(v, dtype=float)
    if v.shape != (mesh.n_interior,):
        raise ValueError(f"vector shape {v.shape} does not match {mesh.n_interior} interior nodes")
    return float(np.sqrt(2.0 * mesh.h * (mode_eigenvalues(mesh)[0] @ sine_transform(v) ** 2)))


def prolong(mesh_coarse: Mesh1D, v_coarse: np.ndarray, mesh_fine: Mesh1D) -> np.ndarray:
    """Exact P1 transfer to the once-refined mesh: the function is unchanged; NaN propagates."""
    if mesh_fine.n_cells != 2 * mesh_coarse.n_cells:
        raise ValueError(
            f"meshes are not nested: {mesh_fine.n_cells} != 2 * {mesh_coarse.n_cells}")
    v = np.asarray(v_coarse, dtype=float)
    if v.shape != (mesh_coarse.n_interior,):
        raise ValueError("coarse vector length does not match coarse mesh")
    full = np.concatenate(([0.0], v, [0.0]))
    out = np.empty(mesh_fine.n_interior)
    out[1::2] = v                                # shared nodes
    out[0::2] = 0.5 * (full[:-1] + full[1:])     # element midpoints
    return out
