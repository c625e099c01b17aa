import math

import numpy as np
import pytest

from expandiff import (CoefficientLaw, DiscreteRun, PiecewiseFn, ProblemSpec,
                       SourceTerm, build_mesh, generate_weights, l2_project,
                       load_vector, project_initial, solve, step)


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
    assert const(0.0) == 3.0 and const.is_constant


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
    np.testing.assert_array_equal(
        load_vector(SourceTerm.zero(), build_mesh(8), 1.0), 0.0)


def test_load_vector_half_support_smallest_mesh():
    src = SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5), time_exponent=0.1)
    b = load_vector(src, build_mesh(2), 1.0)
    np.testing.assert_allclose(b, [0.25], rtol=1e-14)
    np.testing.assert_array_equal(load_vector(src, build_mesh(2), 0.0), 0.0)


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


@pytest.mark.parametrize("n_steps", [2.5, math.inf, math.nan])
def test_solve_rejects_non_integer_steps(n_steps):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        solve(_forced(), 8, n_steps)


def test_trajectory_shape_and_times():
    run = solve(_forced(), 8, 5)
    assert run.trajectory.shape == (6, 7)
    np.testing.assert_allclose(run.times, np.arange(6) / 5)
    np.testing.assert_array_equal(run.final, run.trajectory[-1])
