"""The direct references for the tests of fast paths: the dense P1 mass and
stiffness matrices, the scheme in the sine basis with the full history sum
at every step, the L2 error against the closed form with the hat values
formed from the mesh's nodes, and the Mittag-Leffler sweep with every array
formed on every call."""

import math

import numpy as np

from expandiff import basis_integrals, build_mesh, generate_weights, project_initial
from expandiff.fem1d import _GAUSS_W, _GAUSS_X, mode_eigenvalues, sine_transform
from expandiff.mittag_leffler import (_ALPHA_MIN, _EXP_PHI, _PHI, _SERIES_BELOW, _W,
                                     _W_ABOVE, _W_NEAR, _decay, exact_solution)


def dense_mass_stiffness(mesh):
    """The P1 mass and stiffness matrices on the interior nodes as dense
    arrays: 2h/3 and h/6, and 2/h and -1/h, on and beside the diagonal."""
    h, m = mesh.h, mesh.n_interior
    beside = np.eye(m, k=1) + np.eye(m, k=-1)
    return 2 * h / 3 * np.eye(m) + h / 6 * beside, 2 / h * np.eye(m) - 1 / h * beside


def direct_history_solve(spec, n_cells, n_steps, frozen_time=None):
    """Reference modal stepper: the direct history sum of rows 1..n-1 at every step,
    with kappa_n as kappa_m - (kappa_m - kappa_n) for m at ``frozen_time`` if given."""
    mesh = build_mesh(n_cells)
    tau = spec.final_time / n_steps
    d = tau ** (spec.alpha - 1.0) * generate_weights(spec.alpha, n_steps + 1).g
    lam_m, lam_s = mode_eigenvalues(mesh)
    load = 0.0
    if not spec.source.is_zero:
        load = sine_transform(basis_integrals(spec.source.spatial, mesh))
    c = np.empty((n_steps + 1, mesh.n_interior))
    c[0] = sine_transform(project_initial(spec, mesh))
    for n in range(1, n_steps + 1):
        t = n * tau
        kap = spec.coefficient(t)
        if frozen_time is not None:
            implicit = spec.coefficient(frozen_time)
            kap = implicit - (implicit - kap)
        hist = d[n - 1:0:-1] @ c[1:n]  # d_{n-1} W^1 + ... + d_1 W^{n-1}
        rhs = lam_m * c[n - 1] / tau + spec.source.time_factor(t) * load - kap * lam_s * hist
        c[n] = rhs / (lam_m / tau + d[0] * kap * lam_s)
    return 2.0 / n_cells * sine_transform(c)


def direct_mode_error(mesh, values, alpha, kappa, mode, t):
    """Reference ``mode_error``: Gauss points and hat values from the nodes on every call."""
    nodes = mesh.nodes
    full = np.concatenate(([0.0], values, [0.0]))
    pts = nodes[:-1, None] + 0.5 * mesh.h * (_GAUSS_X[None, :] + 1.0)
    lam1 = (pts - nodes[:-1, None]) / mesh.h
    p1 = full[:-1, None] * (1.0 - lam1) + full[1:, None] * lam1
    diff2 = (p1 - exact_solution(alpha, kappa, mode, pts, t)) ** 2
    return float(np.sqrt(0.5 * mesh.h * float((diff2 @ _GAUSS_W).sum())))


def direct_mittag_leffler(alpha, z):
    """Reference ``mittag_leffler``: the arrays that depend on alpha alone formed on every call."""
    if not _ALPHA_MIN <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [{_ALPHA_MIN:g}, 1] for the closed form, got {alpha}")
    z = float(z)
    if not z <= 0.0:
        raise ValueError(f"z must be <= 0, got {z}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    x = -z
    if x < _SERIES_BELOW:
        return 1.0 - x / math.gamma(1.0 + alpha) + x * x / math.gamma(1.0 + 2.0 * alpha)

    log_x = math.log(x)
    sin, cos = math.sin(math.pi * alpha), math.cos(math.pi * alpha)
    if alpha <= 0.5:
        beta = min(1.0, 10.0 * alpha)
        e = np.exp(-np.abs(beta * _PHI - log_x))
        # u p(u) pi alpha / sin(alpha pi) = 1 / (u + 2 cos(alpha pi) + 1/u)
        density = e / (1.0 + e * (2.0 * cos + e))
        total = beta * sin * np.dot(_W * density, _decay(beta * _PHI, alpha))
    else:
        a = -cos
        above = np.dot(_W_ABOVE, _decay(np.log(a + sin * _EXP_PHI) + log_x, alpha))
        rho = a / sin
        r = rho * _EXP_PHI ** 2
        # p(u) du pi alpha = 2 rho r / (rho^2 + (1 + r)^2) dphi below a
        below = np.dot(_W_NEAR * 2.0 * rho * r / (rho * rho + (1.0 + r) ** 2),
                       _decay(math.log(a) - np.log1p(1.0 / r) + log_x, alpha))
        total = above + below
    return float(total / (math.pi * alpha))
