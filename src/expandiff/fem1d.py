"""Piecewise-linear finite elements on uniform meshes of (0, 1).

Homogeneous Dirichlet conditions are enforced by elimination, so every
nodal vector in this module has length ``n_cells - 1`` (interior nodes
only).  Mass and stiffness matrices are symmetric tridiagonal; the
projections solve them with the Thomas algorithm, which needs no pivoting
because every system assembled here is strictly diagonally dominant.  On
the uniform mesh both matrices are diagonal in the discrete sine basis
(``mode_eigenvalues``, ``sine_transform``), which the time stepper uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

# 4-point Gauss-Legendre rule on [-1, 1]: exact through degree 7,
# which makes quadrature error negligible against the P1 error scales.
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of (0, 1) into ``n_cells`` elements of width ``h``."""

    n_cells: int
    h: float

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
    that a float holds."""
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be an integer >= {minimum} that a float holds") from None
    if not (number.is_integer() and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def build_mesh(n_cells: int) -> Mesh1D:
    """Uniform mesh with ``n_cells >= 2`` elements on (0, 1)."""
    n = require_count(n_cells, 2, "n_cells")
    return Mesh1D(n_cells=n, h=1.0 / n)


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
    """Spatial data on [0, 1]: piecewise polynomials or a smooth sine mode.

    Piecewise polynomials (degree <= 3 per piece, e.g. characteristic
    functions chi_[a,b]) are integrated against the hat basis exactly,
    splitting elements at the breakpoints.  Sine modes carry the
    ``smooth`` flag and are integrated with the per-element Gauss rule;
    the flag also selects the Ritz projection for initial data.
    """

    def __init__(self, breakpoints, coeffs, *, smooth=False, sine_mode=None, amplitude=1.0):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.size < 2 or np.any(np.diff(bp) < 0) or bp[0] < 0.0 or bp[-1] > 1.0:
            raise ValueError("breakpoints must be sorted within [0, 1]")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        self.breakpoints = bp
        self.sine_mode = None if sine_mode is None else require_count(sine_mode, 1, "sine mode")
        self.amplitude = float(amplitude)
        self.smooth = bool(smooth)
        self.coeffs = []
        if sine_mode is None:
            self.coeffs = [np.atleast_1d(np.asarray(c, dtype=float)) for c in coeffs]
            if len(self.coeffs) != bp.size - 1:
                raise ValueError("need one coefficient array per subinterval")
            if any(c.size > 4 for c in self.coeffs):
                raise ValueError("piece degree must be <= 3")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "PiecewiseFn":
        return cls([0.0, 1.0], [[0.0]])

    @classmethod
    def indicator(cls, a: float, b: float) -> "PiecewiseFn":
        """Characteristic function chi_[a, b]."""
        if not 0.0 <= a < b <= 1.0:
            raise ValueError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
        bp = [0.0, a, b, 1.0]
        vals = [0.0, 1.0, 0.0]
        keep = [i for i in range(3) if bp[i] < bp[i + 1]]
        return cls([bp[i] for i in keep] + [1.0], [[vals[i]] for i in keep])

    @classmethod
    def sine(cls, mode: int, amplitude: float = 1.0) -> "PiecewiseFn":
        """amplitude * sin(mode * pi * x), flagged smooth."""
        return cls([0.0, 1.0], [], smooth=True, sine_mode=mode, amplitude=amplitude)

    # -- evaluation --------------------------------------------------------

    @property
    def is_sine(self) -> bool:
        return self.sine_mode is not None

    @property
    def has_derivative(self) -> bool:
        """True when a classical derivative is available on all of (0, 1)."""
        return self.is_sine or len(self.coeffs) == 1

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.is_sine:
            return self.amplitude * np.sin(self.sine_mode * np.pi * x)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1,
                      0, len(self.coeffs) - 1)
        out = np.zeros_like(x)
        for i, c in enumerate(self.coeffs):
            mask = idx == i
            if np.any(mask):
                out[mask] = npoly.polyval(x[mask], c)
        return out

    def derivative(self, x):
        if not self.has_derivative:
            raise ValueError("function has no derivative data (not smooth)")
        x = np.asarray(x, dtype=float)
        if self.is_sine:
            w = self.sine_mode * np.pi
            return self.amplitude * w * np.cos(w * x)
        return npoly.polyval(x, npoly.polyder(self.coeffs[0]))

    # -- algebra -----------------------------------------------------------

    def __mul__(self, scalar):
        s = float(scalar)
        if self.is_sine:
            return PiecewiseFn.sine(self.sine_mode, self.amplitude * s)
        return PiecewiseFn(self.breakpoints, [c * s for c in self.coeffs], smooth=self.smooth)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, PiecewiseFn) or self.is_sine or other.is_sine:
            return NotImplemented
        bp = np.union1d(self.breakpoints, other.breakpoints)
        mids = 0.5 * (bp[:-1] + bp[1:])
        ia = np.clip(np.searchsorted(self.breakpoints, mids, side="right") - 1,
                     0, len(self.coeffs) - 1)
        ib = np.clip(np.searchsorted(other.breakpoints, mids, side="right") - 1,
                     0, len(other.coeffs) - 1)
        pieces = []
        for a, b in zip(ia, ib):
            ca, cb = self.coeffs[a], other.coeffs[b]
            n = max(ca.size, cb.size)
            c = np.zeros(n)
            c[:ca.size] += ca
            c[:cb.size] += cb
            pieces.append(c)
        return PiecewiseFn(bp, pieces, smooth=self.smooth and other.smooth)


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
    runs on every piece.  Piecewise data has degree <= 3, so the rule is
    exact for it; sine data carries the quadrature error of the rule.
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
    """L2-orthogonal projection onto the interior P1 space: solve M c = (g, phi_j)."""
    return solve_tridiag(assemble_mass(mesh), basis_integrals(g, mesh))


def ritz_project(g: PiecewiseFn, mesh: Mesh1D) -> np.ndarray:
    """Energy (Ritz) projection: solve S c = (g', phi_j').

    In one dimension with P1 elements this coincides with nodal
    interpolation of g at the interior nodes.
    """
    if not g.has_derivative:
        raise ValueError("Ritz projection needs derivative data; got non-smooth input")
    n, h = mesh.n_cells, mesh.h
    nodes = mesh.nodes
    pts = nodes[:-1, None] + 0.5 * h * (_GAUSS_X[None, :] + 1.0)
    elem = 0.5 * h * (g.derivative(pts) @ _GAUSS_W)  # integral of g' per element
    b = (elem[:-1] - elem[1:]) / h
    return solve_tridiag(assemble_stiffness(mesh), b)


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
    """Exact L2 norm of the P1 function with interior values v: sqrt(v' M v)."""
    v = np.asarray(v, dtype=float)
    q = float(v @ assemble_mass(mesh).matvec(v))
    return float(np.sqrt(max(q, 0.0)))


def prolong(mesh_coarse: Mesh1D, v_coarse: np.ndarray, mesh_fine: Mesh1D) -> np.ndarray:
    """Exact P1 transfer to the once-refined mesh; the function is unchanged."""
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
