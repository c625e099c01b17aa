import math

import numpy as np
import pytest

from expandiff import (CoefficientLaw, DiscreteRun, PiecewiseFn, ProblemSpec,
                       SourceTerm, assemble_mass, assemble_stiffness,
                       basis_integrals, build_mesh, generate_weights,
                       history_sum, l2_project, project_initial, solve, solve_meshes,
                       step)
from expandiff.fem1d import mode_eigenvalues, sine_transform


def _table2_like(alpha=0.45, scale=0.8, exponent=1.5):
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(scale, exponent),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.zero())


def _forced(alpha=0.35):
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(1.0, 1.01),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))


# -- problem data --------------------------------------------------------------


def test_coefficient_law_values():
    law = CoefficientLaw.power(2.0, 1.01)
    assert law(0.0) == 0.0
    assert law(1.0) == 2.0
    assert law(0.5) == pytest.approx(2.0 * 0.5 ** 1.01, rel=1e-14)
    const = CoefficientLaw.constant(3.0)
    assert const(0.0) == 3.0 and const.exponent == 0.0


def test_coefficient_law_validation():
    with pytest.raises(ValueError):
        CoefficientLaw.power(-1.0, 1.0)
    with pytest.raises(ValueError):
        CoefficientLaw.power(1.0, -0.5)


def test_source_time_factor():
    src = SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5), time_exponent=0.1)
    assert src.time_factor(0.0) == 0.0  # q > 0 vanishes at t = 0
    assert src.time_factor(1.0) == 1.0
    const = SourceTerm.separable(PiecewiseFn.indicator(0.0, 1.0), time_scale=2.5)
    assert const.time_factor(0.0) == 2.5
    assert SourceTerm.zero().time_factor(3.0) == 0.0


def test_problem_spec_rejects_degenerate_time_and_order():
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.5, final_time=0.0,
                    coefficient=CoefficientLaw.constant(1.0),
                    initial=PiecewiseFn.zero(), source=SourceTerm.zero())
    with pytest.raises(ValueError):
        ProblemSpec(alpha=1.5, final_time=1.0,
                    coefficient=CoefficientLaw.constant(1.0),
                    initial=PiecewiseFn.zero(), source=SourceTerm.zero())


@pytest.mark.parametrize("final_time", [math.nan, math.inf])
def test_problem_spec_rejects_non_finite_final_time(final_time):
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.5, final_time=final_time,
                    coefficient=CoefficientLaw.constant(1.0),
                    initial=PiecewiseFn.zero(), source=SourceTerm.zero())


@pytest.mark.parametrize("scale, exponent", [(math.nan, 1.0), (math.inf, 1.0),
                                             (1.0, math.nan), (1.0, math.inf)])
def test_coefficient_law_rejects_non_finite(scale, exponent):
    with pytest.raises(ValueError):
        CoefficientLaw.power(scale, exponent)


@pytest.mark.parametrize("time_scale, time_exponent", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)])
def test_source_term_rejects_non_finite(time_scale, time_exponent):
    with pytest.raises(ValueError):
        SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                             time_exponent=time_exponent, time_scale=time_scale)


# -- projections and loads ------------------------------------------------------


def test_project_initial_rough_uses_l2():
    mesh = build_mesh(16)
    spec = _table2_like()
    np.testing.assert_array_equal(project_initial(spec, mesh),
                                  l2_project(spec.initial, mesh))


def test_project_initial_zero():
    np.testing.assert_array_equal(project_initial(_forced(), build_mesh(8)), 0.0)


def test_project_initial_smooth_interpolates():
    mesh = build_mesh(32)
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(1.0),
                       initial=PiecewiseFn.sine(1), source=SourceTerm.zero())
    np.testing.assert_allclose(project_initial(spec, mesh),
                               np.sin(np.pi * mesh.interior_nodes), atol=1e-10)


def test_load_vector_zero_source():
    src = SourceTerm.zero()
    assert src.is_zero and src.time_factor(1.0) == 0.0


def test_load_vector_half_support_smallest_mesh():
    src = SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5), time_exponent=0.1)
    # b(t) is the time factor at t times the basis integrals of the spatial part
    g = basis_integrals(src.spatial, build_mesh(2))
    np.testing.assert_allclose(src.time_factor(1.0) * g, [0.25], rtol=1e-14)
    np.testing.assert_array_equal(src.time_factor(0.0) * g, 0.0)


# -- stepping ------------------------------------------------------------------


def test_zero_data_stays_zero():
    spec = ProblemSpec(alpha=0.4, final_time=1.0,
                       coefficient=CoefficientLaw.power(1.0, 1.01),
                       initial=PiecewiseFn.zero(), source=SourceTerm.zero())
    run = solve(spec, 16, 20)
    np.testing.assert_array_equal(run.trajectory, 0.0)


def test_vanishing_diffusivity_freezes_state():
    spec = ProblemSpec(alpha=0.6, final_time=1.0,
                       coefficient=CoefficientLaw.constant(0.0),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.zero())
    run = solve(spec, 16, 25)
    for n in range(run.n_steps + 1):
        np.testing.assert_allclose(run.state(n), run.state(0), atol=1e-14)


def test_alpha_one_matches_independent_backward_euler_heat():
    # independently assembled theta = 1 stepper for w_t = kappa * w_xx + f
    n, L, kappa = 16, 40, 2.0
    mesh = build_mesh(n)
    spec = ProblemSpec(alpha=1.0, final_time=1.0,
                       coefficient=CoefficientLaw.constant(kappa),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5)))
    run = solve(spec, n, L)

    tau = 1.0 / L
    h = mesh.h
    m = n - 1
    Md = np.full(m, 2 * h / 3); Mo = np.full(m - 1, h / 6)
    Sd = np.full(m, 2 / h); So = np.full(m - 1, -1 / h)
    x = mesh.interior_nodes
    bsp = np.where(x < 0.5, h, 0.0); bsp[x == 0.5] = h / 2
    w = run.trajectory[0].copy()
    A = np.diag(Md / tau + kappa * Sd)
    A += np.diag(Mo / tau + kappa * So, 1) + np.diag(Mo / tau + kappa * So, -1)
    M = np.diag(Md) + np.diag(Mo, 1) + np.diag(Mo, -1)
    for k in range(1, L + 1):
        w = np.linalg.solve(A, M @ w / tau + bsp)
        assert np.abs(w - run.state(k)).max() <= 1e-12


def test_superposition_over_initial_data_and_source():
    a, b = 0.7, -1.3
    law = CoefficientLaw.power(1.0, 1.5)
    w0_1, w0_2 = PiecewiseFn.indicator(0.5, 1.0), PiecewiseFn.indicator(0.0, 0.25)
    g = PiecewiseFn.indicator(0.0, 0.5)
    spec1 = ProblemSpec(alpha=0.5, final_time=1.0, coefficient=law,
                        initial=w0_1, source=SourceTerm.separable(g, time_exponent=0.1))
    spec2 = ProblemSpec(alpha=0.5, final_time=1.0, coefficient=law,
                        initial=w0_2, source=SourceTerm.zero())
    combo = ProblemSpec(alpha=0.5, final_time=1.0, coefficient=law,
                        initial=a * w0_1 + b * w0_2,
                        source=SourceTerm.separable(g, time_exponent=0.1, time_scale=a))
    r1 = solve(spec1, 32, 40)
    r2 = solve(spec2, 32, 40)
    rc = solve(combo, 32, 40)
    diff = np.abs(rc.trajectory - (a * r1.trajectory + b * r2.trajectory)).max()
    assert diff <= 1e-11


def test_reflection_symmetry_preserved():
    spec = ProblemSpec(alpha=0.4, final_time=1.0,
                       coefficient=CoefficientLaw.power(2.0, 1.01),
                       initial=PiecewiseFn.indicator(0.25, 0.75),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.375, 0.625),
                                                   time_exponent=0.1))
    run = solve(spec, 32, 30)
    for n in range(run.n_steps + 1):
        w = run.state(n)
        assert np.abs(w - w[::-1]).max() <= 1e-12


@pytest.mark.parametrize("m_fraction", [0.0, 0.5, 1.0])
def test_frozen_coefficient_index_cancels(m_fraction):
    # freezing the diffusivity at any time level and moving the correction
    # to the right-hand side must reproduce the direct form
    spec = _table2_like()
    n_cells, L = 24, 30
    ref = solve(spec, n_cells, L)
    tau = spec.final_time / L
    weights = generate_weights(spec.alpha, tau, L + 1)
    t_m = m_fraction * spec.final_time
    mesh = build_mesh(n_cells)
    traj = np.zeros((L + 1, mesh.n_interior))
    traj[0] = project_initial(spec, mesh)
    run = DiscreteRun(mesh=mesh, n_steps=L, tau=tau, trajectory=traj)
    for n in range(1, L + 1):
        traj[n] = step(run, spec, weights, n, frozen_time=t_m)
    assert np.abs(traj - ref.trajectory).max() <= 1e-11


def test_solve_is_bitwise_deterministic():
    spec = _forced()
    r1 = solve(spec, 32, 25)
    r2 = solve(spec, 32, 25)
    assert np.array_equal(r1.trajectory, r2.trajectory)


def test_concurrent_solves_match_serial():
    # distinct solves share no mutable state and may run in parallel
    from concurrent.futures import ThreadPoolExecutor

    specs = [_table2_like(alpha=a) for a in (0.3, 0.45, 0.6, 0.75)]
    serial = [solve(s, 24, 30).trajectory for s in specs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda s: solve(s, 24, 30).trajectory, specs))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_step_by_step_matches_solve():
    spec = _forced(alpha=0.55)
    L = 12
    ref = solve(spec, 16, L)
    weights = generate_weights(spec.alpha, ref.tau, L + 1)
    mesh = build_mesh(16)
    traj = np.zeros((L + 1, mesh.n_interior))
    traj[0] = project_initial(spec, mesh)
    run = DiscreteRun(mesh=mesh, n_steps=L, tau=ref.tau, trajectory=traj)
    for n in range(1, L + 1):
        traj[n] = step(run, spec, weights, n)
    np.testing.assert_allclose(traj, ref.trajectory, atol=1e-14)


def _dense_nodal_solve(spec, n_cells, n_steps):
    """Reference stepper on nodal values: dense solves and the direct history sum."""
    mesh = build_mesh(n_cells)
    tau = spec.final_time / n_steps
    d = generate_weights(spec.alpha, tau, n_steps + 1).d
    M, S = (np.diag(A.diag) + np.diag(A.sup, 1) + np.diag(A.sub, -1)
            for A in (assemble_mass(mesh), assemble_stiffness(mesh)))
    g = basis_integrals(spec.source.spatial, mesh)
    traj = np.zeros((n_steps + 1, mesh.n_interior))
    traj[0] = project_initial(spec, mesh)
    for n in range(1, n_steps + 1):
        t = n * tau
        kap = spec.coefficient(t)
        hist = sum((d[i] * traj[n - i] for i in range(1, n)), np.zeros(mesh.n_interior))
        rhs = M @ traj[n - 1] / tau + spec.source.time_factor(t) * g - kap * S @ hist
        traj[n] = np.linalg.solve(M / tau + d[0] * kap * S, rhs)
    return traj


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("n_cells", [8, 33])
def test_modal_solve_matches_dense_nodal_reference(alpha, n_cells):
    spec = ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(2.0, 1.5),
                       initial=PiecewiseFn.indicator(0.3, 0.8),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))
    run = solve(spec, n_cells, 40)
    ref = _dense_nodal_solve(spec, n_cells, 40)
    assert np.abs(run.trajectory - ref).max() <= 1e-12


def _direct_history_solve(spec, n_cells, n_steps):
    """Reference modal stepper: the direct history sum of rows 1..n-1 at every step."""
    mesh = build_mesh(n_cells)
    tau = spec.final_time / n_steps
    weights = generate_weights(spec.alpha, tau, n_steps + 1)
    lam_m, lam_s = mode_eigenvalues(mesh)
    load = sine_transform(basis_integrals(spec.source.spatial, mesh))
    c = np.empty((n_steps + 1, mesh.n_interior))
    c[0] = sine_transform(project_initial(spec, mesh))
    for n in range(1, n_steps + 1):
        t = n * tau
        kap = spec.coefficient(t)
        hist = history_sum(weights, c[1:n], n, exclude_current=True)
        rhs = lam_m * c[n - 1] / tau + spec.source.time_factor(t) * load - kap * lam_s * hist
        c[n] = rhs / (lam_m / tau + weights.d[0] * kap * lam_s)
    return 2.0 / n_cells * sine_transform(c)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("n_steps", [63, 64, 65, 129, 300])
@pytest.mark.parametrize("blocked", [False, True], ids=["cached", "blocked"])
def test_solve_matches_direct_history_sum(alpha, n_steps, blocked):
    # n_steps * M above 2**18 steps in blocks of 64; these step counts hit a
    # lone partial block, one full block, a one-row last block, a middle
    # block and a partial last block
    n_cells = 2 ** 18 // n_steps + 2 if blocked else 24
    spec = ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(2.0, 1.5),
                       initial=PiecewiseFn.indicator(0.3, 0.8),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))
    run = solve(spec, n_cells, n_steps)
    assert (n_steps * (n_cells - 1) > 2 ** 18) == blocked
    ref = _direct_history_solve(spec, n_cells, n_steps)
    assert np.abs(run.trajectory - ref).max() <= 1e-13 * np.abs(ref).max()


def test_non_finite_solve_raises():
    # one ValueError and no numpy warning, which would fail the suite
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(0.0),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0, 0.5),
                                                   time_scale=1e308))
    with pytest.raises(ValueError, match="non-finite"):
        solve(spec, 16, 50)


def test_solve_raises_when_only_the_nodal_final_state_overflows():
    # every sine coefficient stays finite (the largest is 5.2e307), but the
    # back transform of the last row overflows: reading only .final must not
    # hand out infinities
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(0.0),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0, 0.5),
                                                   time_scale=1e307))
    with pytest.raises(ValueError, match="non-finite"):
        solve(spec, 16, 4).final


@pytest.mark.parametrize("scale", [3e307, 1.7e308])
def test_overflowing_initial_state_raises(scale):
    # the forward transform (3e307) or the L2 projection (1.7e308) of the
    # datum overflows: one ValueError and no numpy warning
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(1.0),
                       initial=scale * PiecewiseFn.indicator(0.0, 0.5),
                       source=SourceTerm.zero())
    with pytest.raises(ValueError, match="non-finite"):
        solve(spec, 16, 8)


def test_reading_an_overflowing_row_raises():
    # a huge initial state that decays: the solve and its final row are
    # finite, but the back transform of row 0 overflows when it is read
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(1.0),
                       initial=1.2e307 * PiecewiseFn.indicator(0.0, 0.5),
                       source=SourceTerm.zero())
    run = solve(spec, 16, 8)
    final = run.final
    assert np.isfinite(final).all()
    with pytest.raises(ValueError, match="non-finite"):
        run.state(0)
    with pytest.raises(ValueError, match="non-finite"):
        run.trajectory
    assert np.array_equal(run.final, final)  # a failed read changes nothing


def test_overflowing_power_laws_raise_value_error():
    with pytest.raises(ValueError, match="coefficient .* overflows at t = 100000.0"):
        CoefficientLaw.power(1.0, 1e6)(1e5)
    src = SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5), time_exponent=1e6)
    with pytest.raises(ValueError, match="source time factor .* overflows at t = 100000.0"):
        src.time_factor(1e5)


def test_step_validates_index_and_weights():
    spec = _forced()
    run = solve(spec, 8, 5)
    weights = generate_weights(spec.alpha, run.tau, 6)
    with pytest.raises(ValueError):
        step(run, spec, weights, 0)
    with pytest.raises(ValueError):
        step(run, spec, weights, 6)
    short = generate_weights(spec.alpha, run.tau, 2)
    with pytest.raises(ValueError):
        step(run, spec, short, 5)


def test_solve_rejects_bad_steps():
    with pytest.raises(ValueError):
        solve(_forced(), 8, 0)
    # counts too large for a float used to raise OverflowError
    with pytest.raises(ValueError, match="n_cells must be an integer"):
        solve(_forced(), 10**400, 4)
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        solve(_forced(), 8, 10**400)


@pytest.mark.parametrize("n_steps", [2.5, math.inf, math.nan])
def test_solve_rejects_non_integer_steps(n_steps):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        solve(_forced(), 8, n_steps)


def test_trajectory_shape_and_times():
    run = solve(_forced(), 8, 5)
    assert run.trajectory.shape == (6, 7)
    assert run.tau == 1 / 5
    np.testing.assert_array_equal(run.final, run.trajectory[-1])


@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("blocked", [False, True], ids=["cached", "blocked"])
def test_rows_read_back_agree_bitwise(n_steps, blocked):
    # final and state(n) transform one row, trajectory all rows in blocks;
    # each is 2/n times the sine transform of the coefficient row; 5 * 2**16
    # cells put n_steps x M above 2**18 at a transform length with small factors
    n_cells = 5 * 2 ** 16 // n_steps if blocked else 24
    rng = np.random.default_rng(n_steps)
    coeffs = rng.standard_normal((n_steps + 1, n_cells - 1))
    expected = 2.0 / n_cells * sine_transform(coeffs)
    run = DiscreteRun(mesh=build_mesh(n_cells), n_steps=n_steps, tau=1.0 / n_steps,
                      coefficients=coeffs.copy())
    assert np.array_equal(run.final, expected[-1])
    for n in range(n_steps + 1):
        assert np.array_equal(run.state(n), expected[n])
    assert np.array_equal(run.trajectory, expected)
    assert np.array_equal(run.final, expected[-1])
    assert np.array_equal(run.state(n_steps // 2), expected[n_steps // 2])
    # a solved run: the pure-Python projection onto 5 * 2**16 cells would
    # dominate the suite, so the one-step solve stays on the cached side
    if blocked and n_steps == 1:
        return
    solved = solve(_forced(), n_cells, n_steps)
    assert (n_steps * (n_cells - 1) > 2 ** 18) == blocked
    rows = [solved.state(n) for n in range(n_steps + 1)]
    final = solved.final
    trajectory = solved.trajectory
    assert np.array_equal(final, trajectory[-1])
    assert all(np.array_equal(row, trajectory[n]) for n, row in enumerate(rows))
    assert np.array_equal(solved.state(n_steps), final)


def test_discrete_run_takes_exactly_one_kind_of_rows():
    mesh = build_mesh(4)
    with pytest.raises(ValueError, match="exactly one"):
        DiscreteRun(mesh=mesh, n_steps=1, tau=1.0)
    with pytest.raises(ValueError, match="exactly one"):
        DiscreteRun(mesh=mesh, n_steps=1, tau=1.0, trajectory=np.zeros((2, 3)),
                    coefficients=np.zeros((2, 3)))


@pytest.mark.parametrize("n_cells, n_steps, calls", [(128, 1600, 0), (300, 1000, 16)])
def test_history_sum_called_once_per_block(monkeypatch, n_cells, n_steps, calls):
    # steps take their weights from the unchecked window; only the far field
    # of a block (n_steps x M above 2**18) goes through the validated sum
    from expandiff import cq

    checked, seen = cq.history_sum, []

    def counted(*args, **kwargs):
        seen.append(args[2])
        return checked(*args, **kwargs)

    monkeypatch.setattr(cq, "history_sum", counted)
    solve(_forced(), n_cells, n_steps)
    assert len(seen) == calls


# -- joint march of several meshes ----------------------------------------------


def _sine_forced(alpha=0.6):
    # a smooth datum (Ritz projection) under a power-law diffusivity and a chi source
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(3.0, 1.01),
                       initial=PiecewiseFn.sine(2),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))


def _chi_forced(alpha=0.35):
    # a discontinuous datum (L2 projection) under the same kind of data
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(2.0, 1.5),
                       initial=PiecewiseFn.indicator(0.3, 0.8),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))


@pytest.mark.parametrize("spec", [_sine_forced(), _chi_forced()], ids=["sine", "chi"])
@pytest.mark.parametrize("cells, n_steps, blocked",
                         [([8, 16, 32], 50, False), ([128, 256, 512], 300, True)],
                         ids=["cached", "blocked"])
def test_joint_march_matches_separate_solves(spec, cells, n_steps, blocked):
    # the joint width decides the 2**18 rule: the blocked case marches three
    # meshes in blocks that each would step alone on the cached side
    runs = solve_meshes(spec, cells, n_steps)
    assert (n_steps * sum(n - 1 for n in cells) > 2 ** 18) == blocked
    assert [run.mesh.n_cells for run in runs] == cells
    for n_cells, run in zip(cells, runs):
        ref = solve(spec, n_cells, n_steps)
        assert (run.n_steps, run.tau) == (ref.n_steps, ref.tau)
        trajectory = ref.trajectory
        tol = 1e-13 * np.abs(trajectory).max()
        assert np.abs(run.final - ref.final).max() <= tol
        for n in (0, 1, n_steps // 2, n_steps):
            assert np.abs(run.state(n) - trajectory[n]).max() <= tol
        assert np.abs(run.trajectory - trajectory).max() <= tol


def test_joint_march_is_bitwise_deterministic():
    first = solve_meshes(_chi_forced(), [8, 16, 32], 40)
    again = solve_meshes(_chi_forced(), [8, 16, 32], 40)
    for a, b in zip(first, again):
        assert np.array_equal(a.trajectory, b.trajectory)


def test_reading_one_joint_run_leaves_the_others_intact():
    # the runs share one coefficient array; a trajectory read replaces only
    # the reading run's view
    coarse, fine = solve_meshes(_forced(), [8, 16], 20)
    final = fine.final
    assert coarse.trajectory.shape == (21, 7)
    assert fine.trajectory.shape == (21, 15)
    assert np.array_equal(fine.final, final)


def test_non_finite_joint_march_raises():
    # one ValueError and no numpy warning, which would fail the suite
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(0.0),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0, 0.5),
                                                   time_scale=1e308))
    with pytest.raises(ValueError, match="non-finite states"):
        solve_meshes(spec, [8, 16], 50)


def test_solve_meshes_rejects_no_meshes():
    with pytest.raises(ValueError, match="cells must not be empty"):
        solve_meshes(_forced(), [], 10)


@pytest.mark.parametrize("cells, n_steps", [([16], 10 ** 15), ([8, 16], 10 ** 15),
                                            ([16], 10 ** 300), ([10 ** 300], 4)])
def test_impossible_allocation_raises_value_error(cells, n_steps):
    # shapes beyond the address space: numpy fails at once, nothing is allocated
    with pytest.raises(ValueError, match=r"cannot allocate \S+ bytes for the coefficients "
                                         r"\(n_cells=.*, n_steps=.*\)"):
        solve_meshes(_forced(), cells, n_steps)


def test_failed_weight_allocation_raises_value_error(monkeypatch):
    from expandiff import cq

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cq, "generate", exhausted)
    with pytest.raises(ValueError, match=r"cannot allocate 88 bytes for the weights "
                                         r"\(n_cells=8, 16, n_steps=10\)"):
        solve_meshes(_forced(), [8, 16], 10)
