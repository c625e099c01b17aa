import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from expandiff import (PiecewiseFn, basis_integrals, build_mesh, l2_norm,
                       l2_project, prolong, ritz_project)
from expandiff.fem1d import (_GAUSS_W, _GAUSS_X, TriDiagMatrix, assemble_mass,
                             assemble_stiffness, mode_eigenvalues, sine_transform,
                             solve_tridiag)
from direct_reference import dense_mass_stiffness


# -- mesh ---------------------------------------------------------------------


def test_build_mesh_smallest():
    mesh = build_mesh(2)
    assert mesh.h == 0.5
    assert mesh.n_interior == 1
    np.testing.assert_allclose(mesh.interior_nodes, [0.5])


def test_build_mesh_128():
    mesh = build_mesh(128)
    assert mesh.n_interior == 127
    assert mesh.h == 1.0 / 128


def test_build_mesh_nodes():
    mesh = build_mesh(4)
    np.testing.assert_allclose(mesh.interior_nodes, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_mesh_width_consistency():
    ulp = np.finfo(float).eps
    for n in range(2, 4097):
        assert abs((1.0 / n) * n - 1.0) <= 4 * ulp


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_build_mesh_rejects_small(bad):
    with pytest.raises(ValueError):
        build_mesh(bad)


@pytest.mark.parametrize("bad", [2.5, np.inf, np.nan])
def test_build_mesh_rejects_non_integer(bad):
    with pytest.raises(ValueError, match="n_cells must be an integer"):
        build_mesh(bad)


# -- assembly -----------------------------------------------------------------


def test_mass_smallest():
    M = assemble_mass(build_mesh(2))
    np.testing.assert_allclose(M.diag, [1.0 / 3.0])
    assert M.sub.size == 0


def test_mass_entries_n4():
    M = assemble_mass(build_mesh(4))
    np.testing.assert_allclose(M.diag, 1.0 / 6.0)
    np.testing.assert_allclose(M.sub, 1.0 / 24.0)
    np.testing.assert_allclose(M.sup, 1.0 / 24.0)


@pytest.mark.parametrize("n", [4, 16, 129])
def test_mass_row_sums_equal_h(n):
    mesh = build_mesh(n)
    M = assemble_mass(mesh)
    sums = M.matvec(np.ones(mesh.n_interior))
    # rows away from the boundary integrate the full hat support
    np.testing.assert_allclose(sums[1:-1], mesh.h, rtol=1e-14)


def test_stiffness_entries():
    S2 = assemble_stiffness(build_mesh(2))
    np.testing.assert_allclose(S2.diag, [4.0])
    S4 = assemble_stiffness(build_mesh(4))
    np.testing.assert_allclose(S4.diag, 8.0)
    np.testing.assert_allclose(S4.sub, -4.0)


def test_matrices_symmetric_and_positive_definite():
    # The leading elimination pivots of the unit-scale mass and stiffness
    # stencils do not depend on the mesh size, so one length-4095 pivot
    # recurrence certifies positive definiteness for every n_cells <= 4096.
    for diag, off in ((2.0 / 3.0, 1.0 / 6.0), (2.0, -1.0)):
        piv = diag
        for _ in range(4095):
            assert piv > 0
            piv = diag - off * off / piv
        assert piv > 0
    M = assemble_mass(build_mesh(17))
    S = assemble_stiffness(build_mesh(17))
    np.testing.assert_array_equal(M.sub, M.sup)
    np.testing.assert_array_equal(S.sub, S.sup)


def test_stiffness_poisson_solve_exact_at_nodes():
    # -u'' = 1 with u = x(1-x)/2: P1 is nodally exact for constant loads
    mesh = build_mesh(4)
    S = assemble_stiffness(mesh)
    load = np.full(3, mesh.h)
    x = solve_tridiag(S, load)
    np.testing.assert_allclose(x, [0.09375, 0.125, 0.09375], atol=1e-13)


def test_stiffness_applied_to_parabola_interpolant():
    # S @ interpolant of x(1-x) equals the load of the constant 2 exactly
    mesh = build_mesh(64)
    S = assemble_stiffness(mesh)
    u = mesh.interior_nodes * (1.0 - mesh.interior_nodes)
    np.testing.assert_allclose(S.matvec(u), 2.0 * mesh.h, rtol=1e-11)


# -- piecewise functions ------------------------------------------------------


def test_indicator_values():
    chi = PiecewiseFn.indicator(0.25, 0.75)
    x = np.array([0.1, 0.3, 0.6, 0.9])
    np.testing.assert_allclose(chi(x), [0.0, 1.0, 1.0, 0.0])
    assert not chi.smooth
    assert not chi.has_derivative


def test_indicator_at_domain_edges():
    left = PiecewiseFn.indicator(0.0, 0.5)
    np.testing.assert_allclose(left(np.array([0.0, 0.4, 0.6])), [1, 1, 0])
    right = PiecewiseFn.indicator(0.5, 1.0)
    np.testing.assert_allclose(right(np.array([0.2, 0.7, 1.0])), [0, 1, 1])


def test_indicator_rejects_bad_support():
    with pytest.raises(ValueError):
        PiecewiseFn.indicator(0.7, 0.2)
    with pytest.raises(ValueError):
        PiecewiseFn.indicator(-0.1, 0.5)


def test_polynomial_and_sine_eval():
    # one constant per piece, each piece closed on the left, the last also on the right
    p = PiecewiseFn([0.0, 0.25, 0.5, 1.0], [-1.0, 2.0, 0.5])
    x = np.array([0.0, 0.25, 0.4, 0.5, 1.0])
    np.testing.assert_array_equal(p(x), [-1.0, 2.0, 2.0, 0.5, 0.5])
    s = PiecewiseFn.sine(2)
    np.testing.assert_allclose(3 * s(x), 3 * np.sin(2 * np.pi * x), atol=1e-15)


def test_sine_takes_no_values():
    # values given with a sine mode were ignored: sin(2 pi x) at 0.25 came out 1.0
    for values in ([[5.0]], [5.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="^values must"):
            PiecewiseFn([0.0, 1.0], values, sine_mode=2)


# -- sine basis ---------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 7, 15, 100])
def test_sine_transform_twice_is_scaled_identity(m):
    rng = np.random.default_rng(m)
    rows = rng.standard_normal((3, m))
    np.testing.assert_allclose(sine_transform(sine_transform(rows)),
                               (m + 1) / 2 * rows, atol=1e-12)


def test_sine_transform_matches_dense_sum():
    m = 9
    x = np.random.default_rng(5).standard_normal(m)
    j = np.arange(1, m + 1)
    dense = np.sin(np.pi * np.outer(j, j) / (m + 1)) @ x
    np.testing.assert_allclose(sine_transform(x), dense, atol=1e-13)


@pytest.mark.parametrize("n", [2, 5, 16, 129])
def test_mass_and_stiffness_act_on_sines_by_stated_eigenvalues(n):
    mesh = build_mesh(n)
    M, S = dense_mass_stiffness(mesh)
    lam_m, lam_s = mode_eigenvalues(mesh)
    for k in {1, n // 2, n - 1}:
        v = np.sin(k * np.pi * mesh.interior_nodes)
        c = np.cos(k * np.pi / n)
        stated_m, stated_s = mesh.h / 3 * (2 + c), 2 / mesh.h * (1 - c)
        assert lam_m[k - 1] == pytest.approx(stated_m, rel=1e-14)
        assert lam_s[k - 1] == pytest.approx(stated_s, rel=1e-12)
        np.testing.assert_allclose(M @ v, stated_m * v, atol=1e-14)
        np.testing.assert_allclose(S @ v, stated_s * v, atol=1e-11 * n)


# -- basis integrals ----------------------------------------------------------


def _basis_integrals_exact(g, mesh):
    """Reference: exact antiderivatives of g * phi_j on every subinterval."""
    n, h = mesh.n_cells, mesh.h
    nodes = mesh.nodes
    b = np.zeros(mesh.n_interior)
    pts = np.union1d(nodes, g.breakpoints)
    for a, bb in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + bb)
        k = min(int(mid / h), n - 1)
        piece = np.clip(np.searchsorted(g.breakpoints, mid, side="right") - 1,
                        0, g.values.size - 1)
        p = g.values[piece:piece + 1]
        if k + 1 <= n - 1:
            anti = npoly.polyint(npoly.polymul(p, [-nodes[k] / h, 1.0 / h]))
            b[k] += npoly.polyval(bb, anti) - npoly.polyval(a, anti)
        if k >= 1:
            anti = npoly.polyint(npoly.polymul(p, [nodes[k + 1] / h, -1.0 / h]))
            b[k - 1] += npoly.polyval(bb, anti) - npoly.polyval(a, anti)
    return b


def test_gauss_rule_is_numpy_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert _GAUSS_X.tobytes() == nodes.tobytes()
    assert _GAUSS_W.tobytes() == weights.tobytes()


@pytest.mark.parametrize("n", [2, 3, 7, 1024])
def test_basis_integrals_match_exact_antiderivatives(n):
    rng = np.random.default_rng(n)
    mesh = build_mesh(n)
    data = [PiecewiseFn.indicator(0.0, 0.5), PiecewiseFn.indicator(0.5, 1.0),
            PiecewiseFn.indicator(0.2, 0.7), PiecewiseFn.indicator(1 / 3, 0.9)]
    for pieces in (1, 4, 9):
        inner = np.sort(rng.uniform(0.0, 1.0, pieces - 1))
        data.append(PiecewiseFn(np.concatenate(([0.0], inner, [1.0])),
                                rng.standard_normal(pieces)))
    for g in data:
        np.testing.assert_allclose(basis_integrals(g, mesh),
                                   _basis_integrals_exact(g, mesh), rtol=0, atol=1e-12)


# -- projections --------------------------------------------------------------


def test_l2_project_zero():
    np.testing.assert_array_equal(l2_project(PiecewiseFn.zero(), build_mesh(16)), 0.0)


def test_l2_project_constant_against_dense_solve():
    # The projection of 1 onto the zero-boundary P1 space overshoots near
    # the boundary and the mismatch decays like (2 - sqrt(3))^k per node,
    # so mid-mesh nodes reproduce 1 to machine precision on fine meshes.
    mesh = build_mesh(128)
    c = l2_project(PiecewiseFn([0.0, 1.0], [1.0]), mesh)
    m = mesh.n_interior
    M = np.zeros((m, m))
    idx = np.arange(m)
    M[idx, idx] = 2 * mesh.h / 3
    M[idx[:-1], idx[:-1] + 1] = mesh.h / 6
    M[idx[1:], idx[1:] - 1] = mesh.h / 6
    dense = np.linalg.solve(M, np.full(m, mesh.h))
    np.testing.assert_allclose(c, dense, atol=1e-12)
    assert np.all(np.abs(c[40:-40] - 1.0) <= 1e-12)
    ratio = abs(c[1] - 1.0) / abs(c[0] - 1.0)
    assert ratio == pytest.approx(2.0 - np.sqrt(3.0), rel=2e-2)


def test_l2_project_right_half_indicator_smallest_mesh():
    c = l2_project(PiecewiseFn.indicator(0.5, 1.0), build_mesh(2))
    np.testing.assert_allclose(c, [0.75], rtol=1e-14)


def test_l2_project_handles_breakpoints_inside_elements():
    # support edges off the grid: compare against dense assembly with quadrature
    mesh = build_mesh(6)
    chi = PiecewiseFn.indicator(0.2, 0.7)
    b = basis_integrals(chi, mesh)
    xs = np.linspace(0, 1, 200001)
    hat = lambda j: np.clip(1 - np.abs(xs - (j + 1) * mesh.h) / mesh.h, 0, None)
    for j in range(mesh.n_interior):
        # trapezoid reference carries O(dx) error at the jump points
        ref = np.trapezoid(chi(xs) * hat(j), xs)
        assert b[j] == pytest.approx(ref, abs=5e-6)
    # the first entry is exactly integrable by hand: overlap [0.2, 1/3]
    assert b[0] == pytest.approx(3.0 * (1.0 / 3.0 - 0.2) ** 2, rel=1e-13)


class _P1Function:
    """The P1 function with the given interior nodal values, with what
    ``basis_integrals`` reads of a datum: breakpoints and pointwise values."""

    def __init__(self, mesh, values):
        self.breakpoints = mesh.nodes
        self._full = np.concatenate(([0.0], values, [0.0]))

    def __call__(self, x):
        return np.interp(x, self.breakpoints, self._full)


@pytest.mark.parametrize("n", [5, 16, 33])
def test_l2_project_is_a_projection(n):
    rng = np.random.default_rng(42 + n)
    mesh = build_mesh(n)
    c = rng.standard_normal(mesh.n_interior)
    g = _P1Function(mesh, c)
    c1 = l2_project(g, mesh)
    np.testing.assert_allclose(c1, c, atol=1e-12)
    c2 = l2_project(_P1Function(mesh, c1), mesh)
    np.testing.assert_allclose(c2, c1, atol=1e-12)


@pytest.mark.parametrize("n", [8, 32, 256])
def test_ritz_equals_interpolation_for_sine(n):
    mesh = build_mesh(n)
    c = ritz_project(PiecewiseFn.sine(1), mesh)
    np.testing.assert_allclose(c, np.sin(np.pi * mesh.interior_nodes), atol=1e-10)


def test_ritz_zero():
    np.testing.assert_allclose(ritz_project(PiecewiseFn.zero(), build_mesh(8)),
                               0.0, atol=1e-15)


_RITZ_DATA = {  # each datum and a factor that scales both sides
    **{f"sine{k}": (PiecewiseFn.sine(k), 1.5) for k in range(1, 6)},
    "constant": (PiecewiseFn([0.0, 1.0], [-2.5], smooth=True), 1.0),
}


@pytest.mark.parametrize("n", [2, 3, 17, 256])
@pytest.mark.parametrize("name", list(_RITZ_DATA))
def test_ritz_closed_form_matches_stiffness_solve(name, n):
    # direct reference: S c = (g', phi_j') = (2 g_j - g_{j-1} - g_{j+1}) / h,
    # from exact nodal values that need not vanish at 0 or 1
    (g, factor), mesh = _RITZ_DATA[name], build_mesh(n)
    v = factor * g(mesh.nodes)
    b = (2.0 * v[1:-1] - v[:-2] - v[2:]) / mesh.h
    direct = np.linalg.solve(dense_mass_stiffness(mesh)[1], b)
    np.testing.assert_allclose(factor * ritz_project(g, mesh), direct, rtol=0, atol=1e-12)


def test_ritz_rejects_data_without_derivative():
    with pytest.raises(ValueError):
        ritz_project(PiecewiseFn.indicator(0.25, 0.5), build_mesh(8))


# -- tridiagonal solves -------------------------------------------------------


def test_solve_1x1():
    A = TriDiagMatrix(sub=np.array([]), diag=np.array([4.0]), sup=np.array([]))
    np.testing.assert_allclose(solve_tridiag(A, np.array([2.0])), [0.5])


def test_solve_zero_rhs():
    M = assemble_mass(build_mesh(9))
    np.testing.assert_array_equal(solve_tridiag(M, np.zeros(8)), 0.0)


def test_solve_zero_pivot_raises():
    A = TriDiagMatrix(sub=np.array([1.0]), diag=np.array([0.0, 2.0]),
                      sup=np.array([1.0]))
    with pytest.raises(np.linalg.LinAlgError):
        solve_tridiag(A, np.ones(2))


def test_solve_random_diagonally_dominant_residuals():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        sub = rng.standard_normal(n - 1)
        sup = rng.standard_normal(n - 1)
        diag = np.zeros(n)
        diag[:-1] += np.abs(sup)
        diag[1:] += np.abs(sub)
        diag += rng.uniform(0.5, 2.0, n)
        diag *= rng.choice([-1.0, 1.0], n)
        A = TriDiagMatrix(sub=sub, diag=diag, sup=sup)
        rhs = rng.standard_normal(n)
        x = solve_tridiag(A, rhs)
        res = np.abs(A.matvec(x) - rhs).max()
        row = np.abs(diag)  # absolute row sums: the infinity norm of A
        row[:-1] += np.abs(sup)
        row[1:] += np.abs(sub)
        bound = 1e-10 * (row.max() * np.abs(x).max() + np.abs(rhs).max())
        assert res <= bound


# -- norms and transfer -------------------------------------------------------


def test_l2_norm_zero_and_single_hat():
    assert l2_norm(build_mesh(8), np.zeros(7)) == 0.0
    assert l2_norm(build_mesh(2), np.array([1.0])) == pytest.approx(np.sqrt(1 / 3), rel=1e-14)


def test_l2_norm_sine_interpolant():
    mesh = build_mesh(256)
    v = np.sin(np.pi * mesh.interior_nodes)
    assert abs(l2_norm(mesh, v) - 1 / np.sqrt(2)) < 1e-4


_FAST_PATH_DATA = {
    "chi": PiecewiseFn.indicator(0.5, 1.0),
    "chi-off-grid": PiecewiseFn.indicator(0.2, 0.7),
    "rough-sine": PiecewiseFn.sine(3, smooth=False),
}


@pytest.mark.parametrize("n", [2, 3, 17, 256, 1024])
@pytest.mark.parametrize("name", list(_FAST_PATH_DATA))
def test_sine_basis_projection_and_norm_match_tridiagonal_reference(name, n):
    # direct references: the dense solve of M c = b and sqrt(v' M v)
    g, mesh = _FAST_PATH_DATA[name], build_mesh(n)
    M = dense_mass_stiffness(mesh)[0]
    direct = np.linalg.solve(M, basis_integrals(g, mesh))
    c = l2_project(g, mesh)
    assert np.abs(c - direct).max() <= 1e-14 * np.abs(direct).max()
    assert l2_norm(mesh, c) == pytest.approx(np.sqrt(c @ M @ c), rel=1e-14, abs=0)
    with pytest.raises(ValueError):
        l2_norm(mesh, np.ones(n))
    with pytest.raises(ValueError):
        l2_norm(mesh, np.ones((2, n - 1)))


def test_prolong_hat():
    coarse, fine = build_mesh(2), build_mesh(4)
    np.testing.assert_allclose(prolong(coarse, np.array([1.0]), fine),
                               [0.5, 1.0, 0.5])


def test_prolong_zero():
    np.testing.assert_array_equal(
        prolong(build_mesh(4), np.zeros(3), build_mesh(8)), 0.0)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_prolong_preserves_l2_norm(n):
    rng = np.random.default_rng(n)
    coarse, fine = build_mesh(n), build_mesh(2 * n)
    v = rng.standard_normal(coarse.n_interior)
    a = l2_norm(coarse, v)
    b = l2_norm(fine, prolong(coarse, v, fine))
    assert abs(a - b) <= 1e-13 * max(1.0, a)


def test_prolong_rejects_non_nested():
    with pytest.raises(ValueError):
        prolong(build_mesh(4), np.zeros(3), build_mesh(12))


# -- construction validation ----------------------------------------------------


def test_tridiag_rejects_mismatched_bands():
    with pytest.raises(ValueError):
        TriDiagMatrix(sub=np.zeros(3), diag=np.zeros(3), sup=np.zeros(2))


def test_matvec_rejects_wrong_length():
    M = assemble_mass(build_mesh(8))
    with pytest.raises(ValueError):
        M.matvec(np.zeros(5))


@pytest.mark.parametrize("make, argument", [
    (lambda: PiecewiseFn([0, 1], [math.nan]), "values"),
], ids=["nan-values"])
def test_piecewise_rejects_non_finite_data(make, argument):
    # NaN data used to surface only in a later solve, as "non-finite states"
    with pytest.raises(ValueError, match=f"{argument} must be finite"):
        make()


def test_piecewise_breakpoint_validation():
    with pytest.raises(ValueError):
        PiecewiseFn([0.0, 0.6, 0.4, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        PiecewiseFn([0.1, 1.0], [1.0])
    with pytest.raises(ValueError, match="^values must"):  # one number per piece
        PiecewiseFn([0.0, 1.0], [[1.0]])
    with pytest.raises(ValueError, match="^values must"):
        PiecewiseFn([0.0, 0.5, 1.0], [1.0])
    with pytest.raises(ValueError):
        PiecewiseFn.sine(0)
    with pytest.raises(ValueError, match="sine mode"):  # was sin(pi x)
        PiecewiseFn.sine(1.5)
    with pytest.raises(ValueError, match="sine mode"):  # was sin(1.5 pi x), not 0 at x = 1
        PiecewiseFn([0.0, 1.0], [], sine_mode=1.5)
