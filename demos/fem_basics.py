"""Tour of the P1 building blocks: meshes, the sine basis, projections, transfer.

Run with:  python demos/fem_basics.py
"""

import numpy as np

from expandiff import (PiecewiseFn, build_mesh, l2_norm, l2_project, prolong,
                       ritz_project)
from expandiff.fem1d import mode_eigenvalues, sine_transform

# A uniform mesh stores only its cell count and width; vectors live on the
# interior nodes because the boundary values are eliminated.
mesh = build_mesh(8)
print("mesh:", mesh)
print("interior nodes:", mesh.interior_nodes)

# The mass matrix (2h/3 on the diagonal, h/6 beside it) and the stiffness
# matrix (2/h and -1/h) share the eigenvectors sin(k pi x_j), k = 1 .. n-1:
# in the discrete sine basis both are diagonal.
lam_m, lam_s = mode_eigenvalues(mesh)
print("\nmass eigenvalues:", np.round(lam_m, 4))
print("stiffness eigenvalues:", np.round(lam_s, 2))

# So a solve is one division per mode.  sine_transform applied twice is n/2
# times the identity.  The stiffness matrix solves -u'' = f; for f = 1 the
# P1 solution is nodally exact: u(x) = x(1-x)/2.
load = np.full(mesh.n_interior, mesh.h)
u = 2.0 / mesh.n_cells * sine_transform(sine_transform(load) / lam_s)
exact = mesh.interior_nodes * (1 - mesh.interior_nodes) / 2
print("\nPoisson solve, max nodal error vs x(1-x)/2:", np.abs(u - exact).max())

# L2 projection handles discontinuous data exactly; here the right-half
# characteristic function that the homogeneous benchmark uses as initial
# datum.
chi = PiecewiseFn.indicator(0.5, 1.0)
c = l2_project(chi, mesh)
print("\nL2 projection of chi_(1/2,1]:", np.round(c, 4))
print("its L2 norm:", l2_norm(mesh, c), " (exact function has norm", np.sqrt(0.5), ")")

# For smooth data the Ritz (energy) projection is used instead.  In 1-D it
# is a closed form, the nodal interpolant minus that of the line through the
# datum's boundary values, so for sin(pi x) it is the interpolant itself.
s = ritz_project(PiecewiseFn.sine(1), mesh)
print("\nRitz projection of sin(pi x) minus its interpolant:",
      np.abs(s - np.sin(np.pi * mesh.interior_nodes)).max())

# Prolongation to the refined mesh represents the same P1 function, so the
# L2 norm is preserved exactly.
fine = build_mesh(16)
cf = prolong(mesh, c, fine)
print("\nnorm drift under prolongation:", abs(l2_norm(mesh, c) - l2_norm(fine, cf)))
