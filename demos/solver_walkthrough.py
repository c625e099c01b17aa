"""One full solve, step by step: the model, the scheme, the trajectory.

The equation is  dW/dt = kappa(t) * Laplacian of the (1-alpha)-order
fractional derivative of W, plus a source, with W = 0 on the boundary.
kappa(t) = 1/a^2(t) is the effective diffusivity of a medium whose scale
factor a(t) changes in time.

Run with:  python demos/solver_walkthrough.py
"""

import numpy as np

from expandiff import (CoefficientLaw, PiecewiseFn, ProblemSpec, SourceTerm,
                       l2_norm, solve)

spec = ProblemSpec(
    alpha=0.6,                                   # anomalous-diffusion order
    final_time=1.0,
    coefficient=CoefficientLaw.power(1.0, 2.01),  # kappa(t) = t^2.01
    initial=PiecewiseFn.indicator(0.5, 1.0),      # rough datum: right half
    source=SourceTerm.zero(),
)

run = solve(spec, n_cells=64, n_steps=200)
mesh = run.mesh
print(f"solved {run.n_steps} steps of tau = {run.tau} on {mesh.n_cells} cells")

# Mass spreads from the right half into the whole interval while decaying;
# print the profile at a few times.
for frac in (0.0, 0.1, 0.5, 1.0):
    n = round(frac * run.n_steps)
    w = run.state(n)
    print(f"t = {n * run.tau:4.2f}:  ||W|| = {l2_norm(mesh, w):.5f}   "
          f"W(1/4) = {w[mesh.n_cells // 4 - 1]:+.5f}   "
          f"W(3/4) = {w[3 * mesh.n_cells // 4 - 1]:+.5f}")

# The diffusivity t^2.01 is tiny at early times, so the initial shape
# barely moves first and relaxes later; compare the profile midpoints.
print("\nkappa at t = 0.1, 0.5, 1.0:",
      spec.coefficient(np.array([0.1, 0.5, 1.0])))

# alpha = 1 with constant kappa is the plain heat equation; a single mode
# then decays like exp(-kappa pi^2 t).
heat = ProblemSpec(alpha=1.0, final_time=0.5,
                   coefficient=CoefficientLaw.constant(1.0),
                   initial=PiecewiseFn.sine(1),
                   source=SourceTerm.zero())
r = solve(heat, 64, 500)
mid = r.final[r.mesh.n_cells // 2 - 1]
print("\nheat-equation check: mode amplitude at T =", f"{mid:.6f}",
      " vs exp(-pi^2/2) =", f"{np.exp(-np.pi ** 2 * 0.5):.6f}")
