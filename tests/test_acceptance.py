"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line.

Reference error and rate values are the published benchmark numbers for
this scheme's three standard configurations; self-convergence must
reproduce them within 10% (errors) and +/-0.10 resp. +/-0.05 (rates).

Known limitation, kept as a faithfully failing check: the oracle
spatial-order criterion fixes tau = 1/2000, but the stepper's first-order
temporal error at that step (~1e-5 in L2) exceeds the h = 1/128 spatial
error against the closed form (~3e-6) for every admissible final time, so
the finest-pair observed rate collapses there.  The temporal oracle
criterion and all table reproductions are unaffected.
"""

import time

import numpy as np
import pytest

from expandiff import (CoefficientLaw, PiecewiseFn, ProblemSpec, SourceTerm,
                       build_mesh, generate_weights, l2_norm, oracle_study,
                       prolong, solve, spatial_study, temporal_study)
from direct_reference import direct_history_solve

_TAUS = [1 / 50, 1 / 100, 1 / 200, 1 / 400, 1 / 800]

_TABLE1 = {
    0.3: ([7.038e-4, 3.269e-4, 1.506e-4, 6.899e-5, 3.150e-5],
          [1.1063, 1.1186, 1.1259, 1.1310]),
    0.7: ([2.661e-4, 1.225e-4, 5.646e-5, 2.601e-5, 1.197e-5],
          [1.1186, 1.1180, 1.1183, 1.1192]),
}

_TABLE2 = {
    0.4: ([8.319e-3, 4.193e-3, 1.997e-3, 9.421e-4, 4.534e-4],
          [0.9885, 1.0705, 1.0835, 1.0552]),
    0.6: ([3.802e-3, 1.873e-3, 9.194e-4, 4.542e-4, 2.256e-4],
          [1.0217, 1.0262, 1.0172, 1.0095]),
}

_TABLE3 = {
    0.2: ([9.828e-4, 2.483e-4, 6.224e-5, 1.557e-5, 3.893e-6],
          [1.9848, 1.9962, 1.9990, 1.9998]),
    0.7: ([1.196e-4, 3.341e-5, 8.675e-6, 2.192e-6, 5.494e-7],
          [1.8395, 1.9453, 1.9849, 1.9961]),
}


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))


def _check_against_reference(table, ref_errors, ref_rates, rate_tol,
                             rate_bracket) -> list[str]:
    problems = []
    for got, ref in zip(table.errors, ref_errors):
        if abs(got - ref) > 0.10 * ref:
            problems.append(f"error {got:.4e} off reference {ref:.4e} by >10%")
    for got, ref in zip(table.rates, ref_rates):
        if abs(got - ref) > rate_tol:
            problems.append(f"rate {got:.4f} off reference {ref:.4f} by >{rate_tol}")
    lo, hi = rate_bracket
    for got in table.rates:
        if not lo <= got <= hi:
            problems.append(f"rate {got:.4f} outside [{lo}, {hi}]")
    for a, b in zip(table.errors[:-1], table.errors[1:]):
        if b >= a:
            problems.append("errors do not decay monotonically")
    return problems


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_criterion_1_table1_temporal(alpha):
    start = time.monotonic()
    spec = ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(1.0, 1.01),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))
    table = temporal_study(spec, 128, _TAUS)
    ref_e, ref_r = _TABLE1[alpha]
    problems = _check_against_reference(table, ref_e, ref_r, 0.10, (0.9, 1.25))
    elapsed = time.monotonic() - start
    if elapsed > 120.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 2 min")
    _report(f"criterion 1 (forced run, alpha={alpha})", not problems,
            f"E={table.errors[0]:.3e}.. rates={['%.4f' % r for r in table.rates]}")
    assert not problems, problems


@pytest.mark.parametrize("alpha", [0.4, 0.6])
def test_criterion_2_table2_temporal(alpha):
    start = time.monotonic()
    spec = ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(1.0, 2.01),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.zero())
    table = temporal_study(spec, 128, _TAUS)
    ref_e, ref_r = _TABLE2[alpha]
    problems = _check_against_reference(table, ref_e, ref_r, 0.10, (0.9, 1.25))
    elapsed = time.monotonic() - start
    if elapsed > 120.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 2 min")
    _report(f"criterion 2 (homogeneous run, alpha={alpha})", not problems,
            f"E={table.errors[0]:.3e}.. rates={['%.4f' % r for r in table.rates]}")
    assert not problems, problems


@pytest.mark.parametrize("alpha", [0.2, 0.7])
def test_criterion_3_table3_spatial(alpha):
    start = time.monotonic()
    spec = ProblemSpec(alpha=alpha, final_time=2.0,
                       coefficient=CoefficientLaw.power(10.0, 1.01),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))
    table = spatial_study(spec, 1 / 1000, [32, 64, 128, 256, 512])
    ref_e, ref_r = _TABLE3[alpha]
    problems = _check_against_reference(table, ref_e, ref_r, 0.05, (1.80, 2.05))
    elapsed = time.monotonic() - start
    if elapsed > 300.0:
        problems.append(f"runtime {elapsed:.0f}s exceeds 5 min")
    _report(f"criterion 3 (spatial run, alpha={alpha})", not problems,
            f"E={table.errors[0]:.3e}.. rates={['%.4f' % r for r in table.rates]}")
    assert not problems, problems


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_criterion_4_oracle_temporal(alpha):
    table = oracle_study(alpha, 1.0, 1, final_time=1.0, n_cells=256,
                         tau_list=[1 / 50, 1 / 100, 1 / 200, 1 / 400])
    ok = (all(r >= 0.9 for r in table.rates)
          and all(a > b for a, b in zip(table.errors[:-1], table.errors[1:])))
    _report(f"criterion 4 temporal (alpha={alpha})", ok,
            f"rates={['%.4f' % r for r in table.rates]}")
    assert ok, table.rates


@pytest.mark.parametrize("alpha", [0.5, 0.8])
def test_criterion_4_oracle_spatial(alpha):
    # Faithful to the stated parameters.  This check cannot pass with a
    # first-order time discretization: at tau = 1/2000 the temporal error
    # against the closed form is ~1e-5 while the spatial error at
    # h = 1/128 is ~3e-6, so the last observed rate degenerates.
    table = oracle_study(alpha, 1.0, 1, final_time=1.0, tau=1 / 2000,
                         n_cells_list=[16, 32, 64, 128])
    ok = all(r >= 1.9 for r in table.rates)
    _report(f"criterion 4 spatial (alpha={alpha})", ok,
            f"rates={['%.4f' % r for r in table.rates]}")
    assert ok, table.rates


def test_criterion_5_alpha_one_reduction():
    # independent dense backward-Euler heat stepper, 100 steps
    n, L, kappa = 32, 100, 1.0
    mesh = build_mesh(n)
    spec = ProblemSpec(alpha=1.0, final_time=1.0,
                       coefficient=CoefficientLaw.constant(kappa),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))
    run = solve(spec, n, L)

    h, tau, m = mesh.h, 1.0 / L, n - 1
    M = np.diag(np.full(m, 2 * h / 3)) + np.diag(np.full(m - 1, h / 6), 1) \
        + np.diag(np.full(m - 1, h / 6), -1)
    S = np.diag(np.full(m, 2 / h)) + np.diag(np.full(m - 1, -1 / h), 1) \
        + np.diag(np.full(m - 1, -1 / h), -1)
    x = mesh.interior_nodes
    bsp = np.where(x < 0.5, h, 0.0)
    bsp[np.isclose(x, 0.5)] = h / 2
    w = run.state(0).copy()  # same initial vector, independent stepping
    worst = 0.0
    A = M / tau + kappa * S
    for k in range(1, L + 1):
        t = k * tau
        w = np.linalg.solve(A, M @ w / tau + t ** 0.1 * bsp)
        worst = max(worst, float(np.abs(w - run.state(k)).max()))
    ok = worst <= 1e-12
    _report("criterion 5 (alpha=1 reduction)", ok, f"max nodal diff {worst:.2e}")
    assert ok, worst


def test_criterion_6_property_suite():
    problems = []

    # weight invariants: signs, partial sums, generating-function inverse
    for alpha in (0.3, 0.5, 0.8):
        w = generate_weights(alpha, 512)
        if not (w.g[0] == 1.0 and np.all(w.g[1:] < 0)):
            problems.append(f"weight signs broken at alpha={alpha}")
        partial = np.cumsum(w.g)
        if not (np.all(partial > 0) and np.all(np.diff(partial) <= 0)):
            problems.append(f"partial sums broken at alpha={alpha}")
        inv = np.empty(512)
        inv[0] = 1.0
        for i in range(1, 512):
            inv[i] = inv[i - 1] * (i - alpha) / i
        conv = np.convolve(w.g, inv)[:512]
        conv[0] -= 1.0
        if np.abs(conv).max() > 1e-10:
            problems.append(f"inverse convolution off by {np.abs(conv).max():.2e}")

    # m-independence of the frozen-coefficient formulation
    spec = ProblemSpec(alpha=0.45, final_time=1.0,
                       coefficient=CoefficientLaw.power(0.8, 1.5),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.zero())
    L = 30
    ref = solve(spec, 24, L)
    for frac in (0.0, 0.5, 1.0):
        traj = direct_history_solve(spec, 24, L, frozen_time=frac * 1.0)
        diff = np.abs(traj - ref.trajectory).max()
        if diff > 1e-11:
            problems.append(f"frozen index m at t={frac} differs by {diff:.2e}")

    # linearity / superposition
    law = CoefficientLaw.power(1.0, 1.5)
    g = PiecewiseFn.indicator(0.0, 0.5)
    s1 = ProblemSpec(alpha=0.5, final_time=1.0, coefficient=law,
                     initial=PiecewiseFn.indicator(0.5, 1.0),
                     source=SourceTerm.separable(g, time_exponent=0.1))
    s2 = ProblemSpec(alpha=0.5, final_time=1.0, coefficient=law,
                     initial=PiecewiseFn.indicator(0.0, 0.25),
                     source=SourceTerm.zero())
    a, b = 0.7, -1.3
    combo = ProblemSpec(alpha=0.5, final_time=1.0, coefficient=law,
                        initial=PiecewiseFn([0.0, 0.25, 0.5, 1.0], [b, 0.0, a]),
                        source=SourceTerm.separable(PiecewiseFn([0.0, 0.5, 1.0], [a, 0.0]),
                                                    time_exponent=0.1))
    r1, r2, rc = solve(s1, 32, 40), solve(s2, 32, 40), solve(combo, 32, 40)
    lin = np.abs(rc.trajectory - (a * r1.trajectory + b * r2.trajectory)).max()
    if lin > 1e-11:
        problems.append(f"superposition off by {lin:.2e}")

    # symmetry preservation
    sym = ProblemSpec(alpha=0.4, final_time=1.0,
                      coefficient=CoefficientLaw.power(2.0, 1.01),
                      initial=PiecewiseFn.indicator(0.25, 0.75),
                      source=SourceTerm.separable(PiecewiseFn.indicator(0.375, 0.625),
                                                  time_exponent=0.1))
    rs = solve(sym, 32, 30)
    worst = max(float(np.abs(rs.state(k) - rs.state(k)[::-1]).max())
                for k in range(31))
    if worst > 1e-12:
        problems.append(f"symmetry broken by {worst:.2e}")

    # prolongation preserves the L2 norm
    rng = np.random.default_rng(11)
    for n in (2, 16, 128):
        coarse, fine = build_mesh(n), build_mesh(2 * n)
        v = rng.standard_normal(coarse.n_interior)
        drift = abs(l2_norm(coarse, v) - l2_norm(fine, prolong(coarse, v, fine)))
        if drift > 1e-13 * max(1.0, l2_norm(coarse, v)):
            problems.append(f"prolongation norm drift {drift:.2e} at n={n}")

    # bitwise determinism
    d1 = solve(s1, 32, 40).trajectory
    d2 = solve(s1, 32, 40).trajectory
    if not np.array_equal(d1, d2):
        problems.append("reruns are not bitwise identical")

    _report("criterion 6 (property suite)", not problems)
    assert not problems, problems
