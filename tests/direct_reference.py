"""The direct reference for the stepping kernel's tests: the scheme in the
sine basis with the full history sum at every step."""

import numpy as np

from expandiff import basis_integrals, build_mesh, generate_weights, project_initial
from expandiff.fem1d import mode_eigenvalues, sine_transform


def direct_history_solve(spec, n_cells, n_steps, frozen_time=None):
    """Reference modal stepper: the direct history sum of rows 1..n-1 at every step,
    with kappa_n as kappa_m - (kappa_m - kappa_n) for m at ``frozen_time`` if given."""
    mesh = build_mesh(n_cells)
    tau = spec.final_time / n_steps
    d = tau ** (spec.alpha - 1.0) * generate_weights(spec.alpha, tau, n_steps + 1).g
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
