"""Solver for anomalous diffusion with a time-dependent diffusivity:
P1 finite elements in space, backward-Euler convolution quadrature for the
fractional history term, plus a Mittag-Leffler validation oracle and a
convergence-study harness."""

from .cq import CQWeights, generate as generate_weights, history_sum
from .fem1d import (Mesh1D, PiecewiseFn, TriDiagMatrix, assemble_mass,
                    assemble_stiffness, basis_integrals, build_mesh, l2_norm,
                    l2_project, prolong, ritz_project, solve_tridiag)
from .mittag_leffler import exact_solution, mittag_leffler
from .solver import (CoefficientLaw, DiscreteRun, ProblemSpec, SourceTerm,
                     project_initial, solve, solve_meshes, step)
from .studies import (RateTable, mode_error, observed_rates, oracle_study,
                      spatial_study, temporal_study, write_csv)

__version__ = "0.1.0"

__all__ = [
    "CQWeights", "generate_weights", "history_sum",
    "Mesh1D", "PiecewiseFn", "TriDiagMatrix", "assemble_mass",
    "assemble_stiffness", "basis_integrals", "build_mesh", "l2_norm",
    "l2_project", "prolong", "ritz_project", "solve_tridiag",
    "exact_solution", "mittag_leffler",
    "CoefficientLaw", "DiscreteRun", "ProblemSpec", "SourceTerm",
    "project_initial", "solve", "solve_meshes", "step",
    "RateTable", "mode_error", "observed_rates", "oracle_study",
    "spatial_study", "temporal_study", "write_csv",
    "__version__",
]
