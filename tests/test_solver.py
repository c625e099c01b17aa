import math
import re
import sys
import threading

import numpy as np
import pytest

from expandiff import (CoefficientLaw, DiscreteRun, PiecewiseFn, ProblemSpec,
                       SourceTerm, basis_integrals, build_mesh, generate_weights,
                       l2_project, project_initial, solve, temporal_study)
from expandiff import cq, solver
from expandiff.fem1d import mode_eigenvalues, sine_transform
from expandiff.solver import final_states
from direct_reference import dense_mass_stiffness, direct_history_solve


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
    # booleans read as 1 and 0, in the constructor and through the factories
    for scale, exponent in [(True, 0.0), (1.0, False), (np.True_, 0.0), (1.0, np.False_)]:
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            CoefficientLaw(scale=scale, exponent=exponent)
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            CoefficientLaw.power(scale, exponent)
    for value in (True, False, np.True_):
        with pytest.raises(ValueError, match="scale must be finite and >= 0"):
            CoefficientLaw.constant(value)


def test_source_time_factor():
    src = SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5), time_exponent=0.1)
    assert src.time_factor(0.0) == 0.0  # q > 0 vanishes at t = 0
    assert src.time_factor(1.0) == 1.0
    const = SourceTerm.separable(PiecewiseFn.indicator(0.0, 1.0))
    assert const.time_factor(0.0) == 1.0  # t**0 is 1, at t = 0 too
    assert SourceTerm.zero().time_factor(3.0) == 0.0
    zero = SourceTerm.zero().time_factor(np.linspace(0.0, 1.0, 5))  # a row of the march's block
    assert np.shape(zero) == (5,) and not np.any(zero)


def test_problem_spec_rejects_degenerate_time_and_order():
    with pytest.raises(ValueError):
        ProblemSpec(alpha=0.5, final_time=0.0,
                    coefficient=CoefficientLaw.constant(1.0),
                    initial=PiecewiseFn.zero(), source=SourceTerm.zero())
    with pytest.raises(ValueError):
        ProblemSpec(alpha=1.5, final_time=1.0,
                    coefficient=CoefficientLaw.constant(1.0),
                    initial=PiecewiseFn.zero(), source=SourceTerm.zero())
    # booleans read as 1 and 0: an all-boolean spec used to solve and exit cleanly
    for alpha, final_time, name in [(True, 1.0, "alpha"), (np.True_, 1.0, "alpha"),
                                    (0.5, True, "final time"), (0.5, np.True_, "final time")]:
        with pytest.raises(ValueError, match=f"^{name} must"):
            ProblemSpec(alpha=alpha, final_time=final_time,
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


@pytest.mark.parametrize("value, time_exponent", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)])
def test_source_term_rejects_non_finite(value, time_exponent):
    with pytest.raises(ValueError):
        SourceTerm.separable(PiecewiseFn([0.0, 0.5, 1.0], [value, 0.0]),
                             time_exponent=time_exponent)


@pytest.mark.parametrize("time_exponent", [True, False,
                                           pytest.param(np.True_, id="np.True_")])
def test_source_term_rejects_boolean_exponent(time_exponent):
    with pytest.raises(ValueError, match="time exponent must be finite"):
        SourceTerm(PiecewiseFn.indicator(0.0, 0.5), time_exponent=time_exponent)
    with pytest.raises(ValueError, match="time exponent must be finite"):
        SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5), time_exponent)


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


def test_stiff_limit_damps_every_state_to_exactly_zero():
    # kappa(t) = t over T = 1e300, the problem of test_cli_zero_errors_write_nan_rate:
    # the first increment, rho W^0 / (rho + G_0 kappa_1), underflows to 0, and
    # each later one meets a history of zeros, so each state after W^0, a sum
    # of zeros, is 0.0 exactly
    spec = ProblemSpec(alpha=0.5, final_time=1e300, coefficient=CoefficientLaw.power(1.0, 1.0),
                       initial=PiecewiseFn.indicator(0.5, 1.0), source=SourceTerm.zero())
    for n_steps in (4, 8, 16):
        run = solve(spec, 16, n_steps)
        assert run.trajectory[0].any()
        np.testing.assert_array_equal(run.trajectory[1:], 0.0)
        np.testing.assert_array_equal(final_states(spec, [16], [n_steps])[0], 0.0)


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
                        initial=PiecewiseFn([0.0, 0.25, 0.5, 1.0], [b, 0.0, a]),  # a w0_1 + b w0_2
                        source=SourceTerm.separable(PiecewiseFn([0.0, 0.5, 1.0], [a, 0.0]),
                                                    time_exponent=0.1))
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
    frozen = direct_history_solve(spec, n_cells, L, frozen_time=m_fraction * spec.final_time)
    assert np.abs(frozen - ref.trajectory).max() <= 1e-11


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


def _dense_nodal_solve(spec, n_cells, n_steps):
    """Reference stepper on nodal values: dense solves and the direct history sum."""
    mesh = build_mesh(n_cells)
    tau = spec.final_time / n_steps
    d = tau ** (spec.alpha - 1.0) * generate_weights(spec.alpha, n_steps + 1).g
    M, S = dense_mass_stiffness(mesh)
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


# the error at 800 steps on 128 cells, measured at 1.805e-3 and 4.68e-4
# (alpha = 0.3), 3.79e-4 and 3.80e-4 (0.5), 1.86e-4 and 3.07e-4 (0.8) for
# p = 1.01 and 2.01: each bound is the larger of its order's two, plus 10 %
_MANUFACTURED_BOUND = {0.3: 2.0e-3, 0.5: 4.2e-4, 0.8: 3.4e-4}


@pytest.mark.parametrize("p", [1.01, 2.01])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_time_dependent_kappa_and_source_meet_a_manufactured_solution(alpha, p):
    # u = sin(pi x)(1 + t^2) solves the model with kappa = t^p and
    # f = sin(pi x) [2t + pi^2 t^p (t^(alpha-1)/Gamma(alpha)
    #                                + 2/Gamma(2+alpha) t^(1+alpha))],
    # three powers of t; the scheme is linear, so the run from u(0) without a
    # source plus each power's run from zero is the run with their sum
    law, sine = CoefficientLaw.power(1.0, p), PiecewiseFn.sine(1)
    counts = [50, 100, 200, 400, 800]
    finals = final_states(ProblemSpec(alpha, 1.0, law, sine, SourceTerm.zero()), [128], counts)
    for c, e in [(2.0, 1.0), (math.pi ** 2 / math.gamma(alpha), p + alpha - 1.0),
                 (2.0 * math.pi ** 2 / math.gamma(2.0 + alpha), p + alpha + 1.0)]:
        spec = ProblemSpec(alpha, 1.0, law, PiecewiseFn.zero(), SourceTerm.separable(sine, e))
        finals = [u + c * v for u, v in zip(finals, final_states(spec, [128], counts))]
    exact = 2.0 * np.sin(np.pi * build_mesh(128).interior_nodes)
    errors = [np.abs(u - exact).max() for u in finals]
    # first order in tau: measured rates 0.897 .. 1.035
    assert all(0.85 <= math.log2(a / b) <= 1.1 for a, b in zip(errors[:-1], errors[1:])), errors
    assert errors[-1] <= _MANUFACTURED_BOUND[alpha], errors


@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("n_steps", [63, 64, 65, 129, 300, 357, 400, 2000])
# few and many modes, under their earlier ids
@pytest.mark.parametrize("many", [False, True], ids=["cached", "blocked"])
def test_solve_matches_direct_history_sum(alpha, n_steps, many):
    # few and many modes: 23, and more than the 2 * 64 rows of the previous
    # and the current chunk, so that the history product and the fold are
    # wider than deep; the step counts hit a lone partial chunk of 64, one
    # full chunk, a one-row last chunk, the first chunk with running sums, a
    # partial last chunk, 4 folds and a last chunk of 37 rows, 5 folds and a
    # last chunk of 16 rows, and about 30 folds.  Many modes split the chunks
    # into sub-blocks of 8 steps up to 129 steps, of 16 from 300 to 400 steps
    # (so the last chunk of 37 rows ends inside its third sub-block), and
    # not at 2000 steps
    n_cells = 2 ** 18 // n_steps + 2 if many else 24
    spec = ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(2.0, 1.5),
                       initial=PiecewiseFn.indicator(0.3, 0.8),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))
    run = solve(spec, n_cells, n_steps)
    assert (n_cells - 1 > 2 * cq.CHUNK) == many
    ref = direct_history_solve(spec, n_cells, n_steps)
    assert np.abs(run.trajectory - ref).max() <= 1e-13 * np.abs(ref).max()


def test_long_march_matches_direct_history_sum():
    # 20,000 steps on 3 modes, Q = 49 running sums through 311 folds: the far
    # field's rounding adds up about once per step, so the deviation grows in
    # proportion to N, and the exponentials' self-check allows i eps relative
    # at lag i.  Measured, it reads 0.019 to 0.032 N eps of the largest state
    # at 2,000 to 60,000 steps (1.3e-13 here at alpha = 0.7, 9.0e-14 at 0.3);
    # N eps / 10 leaves a factor of 3, and a fold whose decay e^{-64 x_q} is
    # off by 1e-10 relative reads 3.8e-9, some 9,000 times more
    n_steps = 20_000
    spec = ProblemSpec(alpha=0.7, final_time=1.0,
                       coefficient=CoefficientLaw.power(2.0, 1.5),
                       initial=PiecewiseFn.indicator(0.3, 0.8),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))
    run = solve(spec, 4, n_steps)
    ref = direct_history_solve(spec, 4, n_steps)
    tolerance = n_steps * np.finfo(float).eps / 10
    assert np.abs(run.trajectory - ref).max() <= tolerance * np.abs(ref).max()


def _random_cases(count=60, seed=16):
    """Seeded draws from the input space the CLI admits, for the randomised
    differential tests of the stepping kernel: one to three meshes of 2-300
    cells, 1-300 steps (the step counts around the 64-step chunks and the
    128-step reach of the window first, then uniform), alpha in (0, 1] with
    alpha = 1 and log-uniform values down to 1e-6, kappa = s * t**p with
    s = 0 allowed and 0 <= p <= 3, chi, sine, rough-flagged sine and zero
    initial data, and zero or scaled chi sources with a time exponent."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        n_steps = [64, 65, 128, 129, 192, 193][k] if k < 6 else int(rng.integers(1, 301))
        alpha = (1.0, 10 ** rng.uniform(-6, -1), rng.uniform(0.05, 1.0))[k % 3]
        scale = 0.0 if rng.random() < 0.1 else 10 ** rng.uniform(-1, 1)
        a, b = np.sort(rng.choice(np.arange(9) / 8, 2, replace=False))
        mode = int(rng.integers(1, 4))
        initial = [PiecewiseFn.indicator(a, b), PiecewiseFn.sine(mode),
                   PiecewiseFn.sine(mode, smooth=False),
                   PiecewiseFn.zero()][k % 4]
        source = SourceTerm.zero()
        if initial.is_sine and initial.smooth or rng.random() < 0.5:
            p, size = rng.uniform(0.0, 2.0), rng.uniform(-2.0, 2.0)
            chi = PiecewiseFn.indicator(b / 2, (1 + b) / 2)
            source = SourceTerm.separable(PiecewiseFn(chi.breakpoints, size * chi.values),
                                          time_exponent=p)
        if initial.sine_mode is None and not initial.values.any() and source.is_zero:
            source = SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5))
        spec = ProblemSpec(alpha=alpha, final_time=10 ** rng.uniform(-0.6, 0.6),
                           coefficient=CoefficientLaw.power(scale, rng.uniform(0.0, 3.0)),
                           initial=initial, source=source)
        cells = sorted({int(n) for n in rng.integers(2, 301, size=int(rng.integers(1, 4)))})
        n = int(rng.integers(1, n_steps + 1))
        if k % 4 == 0 and n > cq.CHUNK:  # one or two steps past the start of a chunk
            n = min((n - 1) // cq.CHUNK * cq.CHUNK + 1 + k // 4 % 2, n_steps)
        cases.append(pytest.param(spec, cells, n_steps, n,
                                  id=f"{k}-a{alpha:.2g}-N{n_steps}-cells{'.'.join(map(str, cells))}"))
    return cases


@pytest.mark.parametrize("spec, cells, n_steps, n", _random_cases())
def test_random_marches_match_direct_history_sum(spec, cells, n_steps, n):
    # every row of one solve per mesh, the final states of one joint march
    # that keeps no rows, and row n of the first mesh's solve read back alone,
    # against the direct history sum, within 1e-12 of the largest state; for
    # one mesh the march that keeps no rows gives the solve's final state bitwise
    refs = [direct_history_solve(spec, n_cells, n_steps) for n_cells in cells]
    runs = [solve(spec, n_cells, n_steps) for n_cells in cells]
    for run, final, ref in zip(runs, final_states(spec, cells, [n_steps]), refs):
        assert np.abs(run.trajectory - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.abs(final - ref[-1]).max() <= 1e-12 * np.abs(ref).max()
        if len(cells) == 1:
            assert np.array_equal(final, run.final)
    assert np.abs(runs[0].state(n) - refs[0][n]).max() <= 1e-12 * np.abs(refs[0]).max()


def test_random_cases_cover_the_far_field():
    cases = [param.values for param in _random_cases()]
    assert sum(n_steps > 128 for _, _, n_steps, _ in cases) >= len(cases) / 3
    assert sum(n > 128 for _, _, _, n in cases) >= 5
    assert sum(n > 64 and n % 64 in (1, 2) for _, _, _, n in cases) >= 5
    assert sum(len(cells) > 1 for _, cells, _, _ in cases) >= len(cases) / 3
    assert {spec.alpha for spec, *_ in cases} >= {1.0}
    assert min(spec.alpha for spec, *_ in cases) < 1e-5


def test_runs_of_up_to_128_steps_build_no_exponentials(monkeypatch):
    # the near field spans two chunks of 64, so only a later chunk needs a
    # far field; a temporal study whose counts are all at most 128 builds none
    monkeypatch.setattr(cq, "exponentials", lambda *args: pytest.fail("built"))
    final_states(_forced(), [8, 16], [128])
    temporal_study(_forced(), 16, [1 / 16, 1 / 32, 1 / 64])  # 16 .. 128 steps
    with pytest.raises(pytest.fail.Exception, match="built"):
        solve(_forced(), 8, 129)


def test_a_temporal_study_fits_once(monkeypatch):
    # six marches of 50 .. 1,600 steps share one sum of exponentials, built
    # for the largest count
    counts, fit = [], cq.exponentials

    def counted(alpha, g):
        counts.append(g.size)
        return fit(alpha, g)

    monkeypatch.setattr(cq, "exponentials", counted)
    temporal_study(_forced(), 16, [1 / 50, 1 / 100, 1 / 200, 1 / 400, 1 / 800])
    assert counts == [1601]


def _table1_shaped(alpha):
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(1.0, 1.01),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))


def _table2_shaped(alpha):
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(1.0, 2.01),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.zero())


@pytest.mark.parametrize("spec", [_table1_shaped(0.3), _table1_shaped(0.7),
                                  _table2_shaped(0.4), _table2_shaped(0.6)],
                         ids=["table1-0.3", "table1-0.7", "table2-0.4", "table2-0.6"])
def test_one_set_up_for_many_counts_matches_separate_marches(spec):
    # a temporal study's marches share the projection, the load, g and the
    # sum of exponentials of the largest count.  Up to 128 steps no march
    # reads the sum, and the largest count reads its own, so those final
    # states are the separate marches' bitwise.  The others read another
    # fit of the same weights: both meet g to 1e-12 relative at every lag
    # (test_cq), an a-priori bound of some 1e-12 of the state; measured, the
    # states differ by at most 1.7e-14 of the largest (table2 at alpha = 0.4,
    # 800 steps), 8.3e-15 on table1.  1e-13 leaves a factor of 6, while
    # amplitudes scaled by the largest count's tau instead of the march's
    # own read 0.1 of the largest state
    counts = [50, 100, 200, 400, 800, 1600]
    for n, final in zip(counts, final_states(spec, [128], counts)):
        (ref,) = final_states(spec, [128], [n])
        if n <= 2 * cq.CHUNK or n == counts[-1]:
            assert np.array_equal(final, ref), n
        else:
            assert np.abs(final - ref).max() <= 1e-13 * np.abs(ref).max(), n


def test_far_field_of_huge_states_stays_finite():
    # the running sums carry c_q, so they grow no faster than the direct sum;
    # unscaled, 4,000 rows of 1e305 overflow them
    unit = _table2_like(exponent=0.0)
    huge = ProblemSpec(alpha=unit.alpha, final_time=1.0, coefficient=unit.coefficient,
                       initial=PiecewiseFn([0.0, 0.5, 1.0], [0.0, 1e305]), source=unit.source)
    final = solve(huge, 16, 4000).final
    assert np.abs(final - 1e305 * solve(unit, 16, 4000).final).max() <= 1e-13 * np.abs(final).max()


@pytest.mark.parametrize("scale", [1e305, 1e-300])
def test_scaled_states_keep_their_headroom(scale):
    # the table2 problem: its history sum outgrows the states by about
    # tau^(alpha-1), 380 here, and rho W^{n-1} outgrows them by up to max rho,
    # about 2000 here, which overflowed from 1e305 states; the march scales
    # W^0 and the load by 2**-e into [0.5, 1), so neither overflows, and at
    # 1e-300 that scaling keeps the small states out of the subnormals
    unit = _table2_like(alpha=0.4, scale=1.0, exponent=2.01)
    scaled = ProblemSpec(alpha=unit.alpha, final_time=1.0, coefficient=unit.coefficient,
                         initial=PiecewiseFn([0.0, 0.5, 1.0], [0.0, scale]), source=unit.source)
    final = final_states(scaled, [128], [20000])[0]
    ref = scale * final_states(unit, [128], [20000])[0]
    assert np.abs(final - ref).max() <= 1e-13 * np.abs(final).max()


def test_non_finite_solve_raises():
    # one ValueError and no numpy warning, which would fail the suite
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(0.0),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn([0.0, 0.5, 1.0], [1e308, 0.0])))
    with pytest.raises(ValueError, match="non-finite"):
        solve(spec, 16, 50)


def test_solve_raises_when_only_the_nodal_final_state_overflows():
    # every sine coefficient stays finite (the largest is 5.2e307), but the
    # back transform of the last row overflows: reading only .final must not
    # hand out infinities
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(0.0),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn([0.0, 0.5, 1.0], [1e307, 0.0])))
    with pytest.raises(ValueError, match="non-finite"):
        solve(spec, 16, 4).final


@pytest.mark.parametrize("scale", [3e307, 1.7e308])
def test_overflowing_initial_state_raises(scale):
    # the forward transform (3e307) or the L2 projection (1.7e308) of the
    # datum overflows: one ValueError and no numpy warning
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(1.0),
                       initial=PiecewiseFn([0.0, 0.5, 1.0], [scale, 0.0]),
                       source=SourceTerm.zero())
    with pytest.raises(ValueError, match="non-finite"):
        solve(spec, 16, 8)


def test_reading_an_overflowing_row_raises():
    # a huge initial state that decays: the solve and its final row are
    # finite, but the back transform of row 0 overflows when it is read
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(1.0),
                       initial=PiecewiseFn([0.0, 0.5, 1.0], [1.2e307, 0.0]),
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


def test_solve_rejects_bad_steps():
    with pytest.raises(ValueError):
        solve(_forced(), 8, 0)
    # counts too large for a float used to raise OverflowError
    with pytest.raises(ValueError, match="n_cells must be an integer"):
        solve(_forced(), 10**400, 4)
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        solve(_forced(), 8, 10**400)
    # tau = T / n underflowed to 0 and leaked a division warning and a ZeroDivisionError
    tiny = ProblemSpec(alpha=0.5, final_time=5e-324, coefficient=CoefficientLaw.constant(1.0),
                       initial=PiecewiseFn.indicator(0.5, 1.0), source=SourceTerm.zero())
    with pytest.raises(ValueError, match=r"underflows to 0 \(n_steps=4, final_time=5e-324\)"):
        solve(tiny, 8, 4)
    with pytest.raises(ValueError, match=r"n_steps=4, final_time=5e-324"):
        final_states(tiny, [8, 16], [1, 4])
    # tau^(alpha-1) overflowed Python's float power with a bare OverflowError;
    # the check runs at the smallest step, before any march
    subnormal = ProblemSpec(alpha=0.01, final_time=1e-310,
                            coefficient=CoefficientLaw.constant(1.0),
                            initial=PiecewiseFn.indicator(0.5, 1.0), source=SourceTerm.zero())
    with pytest.raises(ValueError, match=r"tau\^\(alpha-1\) overflows at the step T / n "
                                         r"\(n_steps=4000, final_time=1e-310\)"):
        solve(subnormal, 8, 4000)
    with pytest.raises(ValueError, match=r"overflows .*\(n_steps=4000, final_time=1e-310\)"):
        final_states(subnormal, [8], [4, 4000])


@pytest.mark.parametrize("n_steps", [2.5, math.inf, math.nan, True,
                                     pytest.param(np.True_, id="np.True_")])
def test_solve_rejects_non_integer_steps(n_steps):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        solve(_forced(), 8, n_steps)


def test_trajectory_shape_and_times():
    run = solve(_forced(), 8, 5)
    assert run.trajectory.shape == (6, 7)
    assert run.tau == 1 / 5
    np.testing.assert_array_equal(run.final, run.trajectory[-1])


@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 130])
# few and many modes, under their earlier ids
@pytest.mark.parametrize("many", [False, True], ids=["cached", "blocked"])
def test_rows_read_back_agree_bitwise(n_steps, many):
    # final and state(n) transform one row, trajectory all rows in blocks;
    # each is 2/n times the sine transform of the coefficient row; 5 * 2**16
    # cells give many modes, over 2 * 64 and so rows of thousands of values,
    # at a transform length with small factors
    n_cells = 5 * 2 ** 16 // n_steps if many else 24
    rng = np.random.default_rng(n_steps)
    coeffs = rng.standard_normal((n_steps + 1, n_cells - 1))
    expected = 2.0 / n_cells * sine_transform(coeffs)
    run = DiscreteRun(mesh=build_mesh(n_cells), tau=1.0 / n_steps, coefficients=coeffs.copy())
    assert np.array_equal(run.final, expected[-1])
    for n in range(n_steps + 1):
        assert np.array_equal(run.state(n), expected[n])
    assert np.array_equal(run.trajectory, expected)
    assert np.array_equal(run.final, expected[-1])
    assert np.array_equal(run.state(n_steps // 2), expected[n_steps // 2])
    # a solved run: the pure-Python projection onto 5 * 2**16 cells would
    # dominate the suite, so the one-step solve stays narrow
    if many and n_steps == 1:
        return
    solved = solve(_forced(), n_cells, n_steps)
    assert (n_cells - 1 > 2 * cq.CHUNK) == many
    rows = [solved.state(n) for n in range(n_steps + 1)]
    final = solved.final
    trajectory = solved.trajectory
    assert np.array_equal(final, trajectory[-1])
    assert all(np.array_equal(row, trajectory[n]) for n, row in enumerate(rows))
    assert np.array_equal(solved.state(n_steps), final)


def test_solve_transforms_the_final_row_once_and_hands_out_copies(monkeypatch):
    transformed, nodal = [], solver._nodal

    def counted(coeffs, *args):
        transformed.append(coeffs.shape)
        return nodal(coeffs, *args)

    monkeypatch.setattr(solver, "_nodal", counted)
    run = solve(_forced(), 16, 70)
    final, last = run.final, run.state(run.n_steps)
    assert transformed == [(15,)]  # solve's overflow check, and no read since
    assert np.array_equal(final, last) and np.array_equal(final, run.trajectory[-1])
    final[:] = last[:] = np.nan  # the run's row stays as solve made it
    assert np.array_equal(run.final, run.trajectory[-1])
    assert np.array_equal(run.state(70), run.trajectory[-1])


def test_discrete_run_takes_exactly_one_kind_of_rows():
    # rows of sine coefficients, one column per interior node: W^0 and at
    # least one step, so the step count is the number of rows less one
    mesh = build_mesh(4)
    for shape in [(3,), (2, 4), (0, 3), (1, 3)]:
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            DiscreteRun(mesh, 1.0, np.zeros(shape))


def test_discrete_run_reads_nested_lists_as_arrays():
    rows = np.random.default_rng(3).standard_normal((3, 3))
    run, ref = DiscreteRun(build_mesh(4), 0.5, rows.tolist()), DiscreteRun(build_mesh(4), 0.5, rows)
    assert run.n_steps == ref.n_steps == 2
    assert np.array_equal(run.trajectory, ref.trajectory)
    assert np.array_equal(run.final, ref.final)


@pytest.mark.parametrize("n", [-1, -9, 9, 1.5, 2.0, None, True, False])
def test_state_takes_only_step_indices(n):
    # a negative index would wrap round to a row counted from the end, and a
    # bool index would select every row or none
    run = solve(_forced(), 8, 8)
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer in 0..8, got {n!r}")):
        run.state(n)
    np.testing.assert_array_equal(run.state(np.int64(8)), run.final)


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
# few and many modes, under their earlier ids
@pytest.mark.parametrize("cells, counts, many",
                         [([8, 16, 32], [50], False), ([128, 256, 512], [300], True),
                          ([256, 512, 1024], [357], True), ([8, 16], [50, 200], False)],
                         ids=["cached", "blocked", "sub-blocked", "grid"])
def test_joint_march_matches_separate_solves(spec, cells, counts, many):
    # the cases with many modes march three meshes for 300 and 357 steps, so
    # their modes share the running sums; the joint march of 1,789 modes
    # takes sub-blocks of 8 steps, through 4 folds and into a last chunk of
    # 37 rows, against separate solves in sub-blocks of 64, 32 and 16 steps.
    # The grid of two meshes and two counts comes back count-major
    assert (min(sum(n - 1 for n in cells), max(counts)) > 2 * cq.CHUNK) == many
    finals = final_states(spec, cells, counts)
    assert [final.shape for final in finals] == [(n - 1,) for n in cells] * len(counts)
    refs = [solve(spec, n_cells, n_steps) for n_steps in counts for n_cells in cells]
    for final, ref in zip(finals, refs):
        tol = 1e-13 * np.abs(ref.trajectory).max()
        assert np.abs(final - ref.final).max() <= tol


def test_joint_march_is_bitwise_deterministic():
    first = final_states(_chi_forced(), [8, 16, 32], [40])
    again = final_states(_chi_forced(), [8, 16, 32], [40])
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_non_finite_joint_march_raises():
    # one ValueError and no numpy warning, which would fail the suite
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.constant(0.0),
                       initial=PiecewiseFn.zero(),
                       source=SourceTerm.separable(PiecewiseFn([0.0, 0.5, 1.0], [1e308, 0.0])))
    with pytest.raises(ValueError, match="non-finite states"):
        final_states(spec, [8, 16], [50])


# -- the reused march plan ----------------------------------------------------------


# a short march of one sub-block, no sums; a wide one in sub-blocks of 16
# with running sums and a short last chunk; a joint march that keeps no rows;
# marches of 4 and 5 chunks with running sums, whose last chunks write the
# first and the second half of the buffer
_PLAN_MARCHES = {
    "short": lambda: [solve(_table2_like(), 32, 100).trajectory],
    "wide": lambda: [solve(_forced(), 600, 300).trajectory],
    "joint": lambda: final_states(_forced(), [8, 16, 32], [200]),
    "four chunks": lambda: final_states(_forced(), [16], [256]),
    "five chunks": lambda: final_states(_forced(), [16], [320]),
}


@pytest.mark.parametrize("march", _PLAN_MARCHES.values(), ids=_PLAN_MARCHES.keys())
def test_poisoned_idle_plan_gives_the_fresh_plan_bits(march):
    # every buffer of the idle plan set to NaN between two marches of its
    # shape: the second march reuses it and writes all it reads
    solver._IDLE.clear()
    fresh = march()
    (_, plan), = solver._IDLE
    for buffer in plan:
        if isinstance(buffer, np.ndarray):
            buffer.fill(np.nan)
    again = march()
    assert solver._IDLE[0][1] is plan  # reused, not rebuilt
    for a, b in zip(fresh, again, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("sub, n_modes", [(8, 2010), (64, 127), (64, 31)])
def test_divisors_of_one_rank_two_product_equal_the_broadcast_sum(sub, n_modes):
    # a sub-block's divisors rho + G_0 kappa_n are the product of its pairs
    # (G_0 kappa_n, 1) with the rows 1 and rho: one rounding per entry, as in
    # the broadcast sum.  Read from the plan after a march of 64 steps, they
    # are the last sub-block's, steps 65 - sub .. 64
    spec = _forced()
    solver._IDLE.clear()
    final_states(spec, [n_modes + 1], [64])
    (key, plan), = solver._IDLE
    assert key == (n_modes, 0, sub, 64)
    work, block, own, pairs, unit_rho, den, part, hist, total, steps = plan
    tau = spec.final_time / 64
    lam_m, lam_s = mode_eigenvalues(build_mesh(n_modes + 1))
    rho = lam_m / (tau * lam_s)
    kappa = spec.coefficient(tau * np.arange(65))[65 - sub:]
    assert np.array_equal(den, tau ** (spec.alpha - 1.0) * kappa[:, None] + rho)


def test_threads_marching_one_shape_give_the_serial_bits():
    # each march takes the idle plan or makes its own, so threads, more than
    # the cores, that march the same shapes at once never share buffers
    shapes = [(_table2_like(), 32, 100), (_forced(), 32, 100), (_forced(), 16, 200)]
    serial = [solve(*shape).trajectory for shape in shapes]
    n_threads, n_runs = 4, 24
    start, results = threading.Barrier(n_threads), [[] for _ in range(n_threads)]

    def worker(k):
        start.wait()
        for i in range(n_runs):
            results[k].append(solve(*shapes[(i + k) % 3]).trajectory)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, within steps
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, runs in enumerate(results):
        assert len(runs) == n_runs
        for i, run in enumerate(runs):
            assert np.array_equal(run, serial[(i + k) % 3])


def test_one_plan_per_shape_and_none_kept_by_a_failed_march(monkeypatch):
    made, plan = [], solver._plan
    monkeypatch.setattr(solver, "_plan", lambda *key: made.append(key) or plan(*key))
    solver._IDLE.clear()
    for _ in range(3):
        solve(_table2_like(), 32, 100)
    assert len(made) == 1
    final_states(_forced(), [32], [100, 100])  # the same shape: 31 modes, 100 steps
    assert len(made) == 1
    solve(_table2_like(), 64, 100)  # more modes
    solve(_table2_like(), 64, 50)  # a shorter chunk
    assert len(made) == 3 and made[1][0] == 63 and made[2][3] == 50
    assert len(solver._IDLE) == 1
    # the far field's Q depends on the count alone: table3's two orders share a plan
    for alpha in (0.2, 0.7):
        final_states(ProblemSpec(alpha=alpha, final_time=2.0,
                                 coefficient=CoefficientLaw.power(10.0, 1.01),
                                 initial=PiecewiseFn.indicator(0.5, 1.0),
                                 source=_forced().source), [32, 64, 128, 256, 512, 1024], [2000])
    assert len(made) == 4 and made[3][:2] == (2010, 35)
    # G_0 kappa and G_1 kappa overflow, so the first chunk's increments are NaN
    overflowing = ProblemSpec(alpha=0.5, final_time=1.0,
                              coefficient=CoefficientLaw.constant(1e308),
                              initial=PiecewiseFn.indicator(0.5, 1.0), source=SourceTerm.zero())
    with pytest.raises(ValueError, match="non-finite states"):
        final_states(overflowing, [8, 16], [50])
    assert solver._IDLE == []
    final_states(_forced(), [8, 16], [50])  # the failed march's shape, made anew
    assert len(made) == 6 and len(solver._IDLE) == 1


def test_final_states_rejects_no_meshes_or_no_counts():
    with pytest.raises(ValueError, match="cells must not be empty"):
        final_states(_forced(), [], [10])
    with pytest.raises(ValueError, match="counts must not be empty"):
        final_states(_forced(), [8], [])


@pytest.mark.parametrize("cells, n_steps", [([16], 10 ** 15), ([8, 16], 10 ** 15),
                                            ([16], 10 ** 300), ([10 ** 300], 4)])
def test_impossible_allocation_raises_value_error(cells, n_steps):
    # shapes beyond the address space: numpy fails at once, nothing is
    # allocated; a solve keeps every row, the joint march of final_states one,
    # so it first fails on the weights
    what, march = "coefficients", lambda: solve(_forced(), cells[0], n_steps)
    if len(cells) > 1:
        what, march = "weights", lambda: final_states(_forced(), cells, [n_steps])
    with pytest.raises(ValueError, match=rf"cannot allocate \S+ bytes for the {what} "
                                         r"\(n_cells=.*, n_steps=.*\)"):
        march()


def test_failed_time_factor_allocation_raises_value_error(monkeypatch):
    # kappa(t_n) is the first of the march's two arrays of n_steps + 1 numbers
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(CoefficientLaw, "__call__", exhausted)
    with pytest.raises(ValueError, match=r"cannot allocate 176 bytes for the time factors "
                                         r"\(n_cells=8, 16, n_steps=10\)"):
        final_states(_forced(), [8, 16], [10])


def test_failed_weight_allocation_raises_value_error(monkeypatch):
    # the march's weights are the partial sums Gamma, made once per call
    made, partial_sums = [], cq.partial_sums

    def counted(alpha, count):
        made.append(count)
        return partial_sums(alpha, count)

    monkeypatch.setattr(cq, "partial_sums", counted)
    final_states(_forced(), [8, 16], [10])
    final_states(_forced(), [8], [5, 20, 10])
    assert made == [11, 21]  # the positive control: one call per final_states

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cq, "partial_sums", exhausted)
    with pytest.raises(ValueError, match=r"cannot allocate 88 bytes for the weights "
                                         r"\(n_cells=8, 16, n_steps=10\)"):
        final_states(_forced(), [8, 16], [10])
