import math
import tracemalloc

import numpy as np
import pytest

from expandiff import (CoefficientLaw, PiecewiseFn, ProblemSpec, RateTable,
                       SourceTerm, build_mesh, l2_norm, mode_error, observed_rates,
                       oracle_study, prolong, ritz_project, solve, spatial_study,
                       temporal_study, write_csv)
from expandiff import solver, studies
from expandiff.solver import final_states
from direct_reference import direct_mode_error
from test_cli import read_csv


def _zero_spec(alpha=0.5):
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(1.0, 1.01),
                       initial=PiecewiseFn.zero(), source=SourceTerm.zero())


def _homogeneous_spec(alpha=0.6):
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(1.0, 2.01),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.zero())


# -- rates and table invariants -------------------------------------------------


def test_observed_rates_basic():
    rates = observed_rates([4.0, 2.0, 0.5])
    assert rates == pytest.approx([1.0, 2.0])


def test_observed_rates_nan_sentinel():
    rates = observed_rates([0.0, 0.0, 1.0])
    assert math.isnan(rates[0]) and math.isnan(rates[1])


def test_rate_table_invariants():
    tb = RateTable(label="x", axis="temporal", resolutions=[0.1, 0.05],
                   errors=[2.0, 1.0])
    assert tb.rates == pytest.approx([1.0])
    with pytest.raises(ValueError):
        RateTable(label="x", axis="diagonal", resolutions=[0.1], errors=[1.0])
    with pytest.raises(ValueError):
        RateTable(label="x", axis="spatial", resolutions=[0.1], errors=[-1.0])
    with pytest.raises(ValueError):
        RateTable(label="x", axis="spatial", resolutions=[0.1, 0.05], errors=[1.0])
    with pytest.raises(TypeError):  # rates are always derived from the errors
        RateTable(label="x", axis="temporal", resolutions=[0.1, 0.05],
                  errors=[2.0, 1.0], rates=[3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rate_table_rejects_non_finite_errors(bad):
    # the rates derived from them were NaN, and write_csv wrote them out
    with pytest.raises(ValueError, match="errors must be finite"):
        RateTable("x", "temporal", [0.1, 0.05, 0.025], [1e-3, bad, 1e-4])


# -- study validation -----------------------------------------------------------


def test_temporal_rejects_non_halving():
    with pytest.raises(ValueError):
        temporal_study(_zero_spec(), 8, [1 / 10, 1 / 30])


def test_temporal_rejects_non_dividing_tau():
    with pytest.raises(ValueError):
        temporal_study(_zero_spec(), 8, [0.3, 0.15])


def test_spatial_rejects_non_halving():
    with pytest.raises(ValueError):
        spatial_study(_zero_spec(), 1 / 10, [8, 24])


@pytest.mark.parametrize("study", [
    lambda: temporal_study(_zero_spec(), 8, [0.0]),
    lambda: temporal_study(_zero_spec(), 8, [1e-320]),
    lambda: temporal_study(_zero_spec(), 8, []),
    lambda: spatial_study(_zero_spec(), 0.125, [0]),
    lambda: spatial_study(_zero_spec(), 0.125, [1e-320]),
    lambda: spatial_study(_zero_spec(), 1e-320, [4]),
    lambda: spatial_study(_zero_spec(), 0.125, []),
    lambda: oracle_study(0.5, 1.0, 1, final_time=1.0, n_cells=8, tau_list=[0.0]),
    lambda: oracle_study(0.5, 1.0, 1, final_time=1.0, tau=0.125, n_cells_list=[0]),
    lambda: oracle_study(0.5, 1.0, 1, final_time=1.0, n_cells=8, tau_list=[]),
    lambda: oracle_study(0.5, 1.0, 1, final_time=1.0, tau=0.125, n_cells_list=[]),
], ids=["tau-zero", "tau-tiny", "tau-empty", "cells-zero", "cells-tiny",
        "spatial-tau-tiny", "cells-empty", "oracle-tau-zero", "oracle-cells-zero",
        "oracle-tau-empty", "oracle-cells-empty"])
def test_degenerate_resolutions_raise_value_error(study):
    # a zero or vanishing step or cell width has no step or cell count, and
    # an empty ladder has no error to report
    with pytest.raises(ValueError):
        study()


def test_oracle_needs_exactly_one_axis():
    with pytest.raises(ValueError):
        oracle_study(0.5, 1.0, 1, final_time=1.0, n_cells=8)
    with pytest.raises(ValueError):
        oracle_study(0.5, 1.0, 1, final_time=1.0, n_cells=8,
                     tau_list=[1 / 4, 1 / 8], n_cells_list=[4, 8])
    with pytest.raises(ValueError):  # tau belongs to the spatial axis
        oracle_study(0.5, 1.0, 1, final_time=1.0, n_cells=8, tau=123.0,
                     tau_list=[1 / 4, 1 / 8])
    with pytest.raises(ValueError):  # n_cells belongs to the temporal axis
        oracle_study(0.5, 1.0, 1, final_time=1.0, n_cells=8, tau=1 / 4,
                     n_cells_list=[4, 8])


@pytest.mark.parametrize("axis", [dict(n_cells=256, tau_list=[1 / 50, 1 / 100, 1 / 200, 1 / 400]),
                                  dict(tau=1 / 50, n_cells_list=[8, 16])],
                         ids=["temporal", "spatial"])
def test_oracle_below_its_range_fails_before_marching(monkeypatch, axis):
    # the closed form rejects alpha = 1e-6, so no march can be of use; at
    # alpha = 0.5 the same watcher sees the axis's one call, so it watches
    # the only way either axis reaches the march
    marches = []
    monkeypatch.setattr(studies, "final_states",
                        lambda *args: marches.append(args) or final_states(*args))
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0.001, 1\]"):
        oracle_study(1e-6, 1.0, 1, final_time=1.0, **axis)
    assert marches == []
    oracle_study(0.5, 1.0, 1, final_time=1.0, **axis)
    assert len(marches) == 1


# -- zero-data studies ------------------------------------------------------------


def test_zero_data_temporal_study():
    tb = temporal_study(_zero_spec(), 8, [1 / 4, 1 / 8, 1 / 16])
    assert tb.errors == [0.0, 0.0, 0.0]
    assert all(math.isnan(r) for r in tb.rates)


def test_zero_data_spatial_study():
    tb = spatial_study(_zero_spec(), 1 / 8, [4, 8])
    assert tb.errors == [0.0, 0.0]
    assert all(math.isnan(r) for r in tb.rates)



def _table3_like(alpha=0.3):
    return ProblemSpec(alpha=alpha, final_time=1.0,
                       coefficient=CoefficientLaw.power(10.0, 1.01),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))


def _traced_peak(run) -> int:
    run()  # first-call allocations (imports, caches) out of the way
    solver._IDLE.clear()  # the traced march makes its own buffers, not the warm-up's
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("study", [
    lambda tau: spatial_study(_table3_like(), tau, [16, 32, 64, 128]),
    lambda tau: oracle_study(0.5, 1.0, 1, final_time=1.0, tau=tau,
                             n_cells_list=[32, 64, 128, 256]),
], ids=["spatial", "oracle"])
def test_spatial_study_memory_does_not_grow_with_steps(study):
    # a study reads final states only, so its march keeps no rows: four times
    # the steps on the same meshes leave the peak where it was (a march that
    # stored every row of the finest mesh grew it by 87 % on the spatial study)
    peaks = [_traced_peak(lambda: study(1 / n_steps)) for n_steps in (256, 1024)]
    assert abs(peaks[1] - peaks[0]) < 0.1 * peaks[0], peaks


@pytest.mark.parametrize("alpha, n_steps", [(0.3, 300), (0.8, 64)])
def test_spatial_study_final_states_match_separate_solves(alpha, n_steps):
    # one march for every mesh, keeping no rows, against a stored solve per
    # mesh: the final states within 1e-13 of the largest, so each error of
    # the study within twice that of the errors of the separate solves
    spec, cells = _table3_like(alpha), [8, 16, 32, 64]
    refs = [solve(spec, n, n_steps).final for n in cells + [2 * cells[-1]]]
    bound = 1e-13 * max(np.abs(ref).max() for ref in refs)
    for final, ref in zip(final_states(spec, cells + [2 * cells[-1]], [n_steps]), refs):
        assert np.abs(final - ref).max() <= bound
    study = spatial_study(spec, 1 / n_steps, cells)
    for n, coarse, fine, error in zip(cells, refs[:-1], refs[1:], study.errors):
        mesh = build_mesh(2 * n)
        assert abs(error - l2_norm(mesh, prolong(build_mesh(n), coarse, mesh) - fine)) <= 2 * bound


# -- small genuine studies --------------------------------------------------------


def test_temporal_errors_decay_monotonically():
    tb = temporal_study(_homogeneous_spec(), 16, [1 / 8, 1 / 16, 1 / 32, 1 / 64])
    assert all(a > b for a, b in zip(tb.errors[:-1], tb.errors[1:]))
    assert all(0.7 <= r <= 1.4 for r in tb.rates)


def test_spatial_errors_decay_at_second_order():
    spec = ProblemSpec(alpha=0.5, final_time=1.0,
                       coefficient=CoefficientLaw.power(10.0, 1.01),
                       initial=PiecewiseFn.indicator(0.5, 1.0),
                       source=SourceTerm.separable(PiecewiseFn.indicator(0.0, 0.5),
                                                   time_exponent=0.1))
    tb = spatial_study(spec, 1 / 400, [16, 32, 64])
    assert all(1.85 <= r <= 2.15 for r in tb.rates)


def test_oracle_reproduces_classical_heat_orders():
    tb = oracle_study(1.0, 1.0, 1, final_time=0.2, n_cells=64,
                      tau_list=[1 / 10, 1 / 20, 1 / 40])
    assert all(0.8 <= r <= 1.15 for r in tb.rates)
    tb = oracle_study(1.0, 1.0, 1, final_time=0.2, tau=1 / 4000,
                      n_cells_list=[4, 8, 16])
    assert all(1.8 <= r <= 2.45 for r in tb.rates)


def test_oracle_regression_bound_half_order():
    tb = oracle_study(0.5, 1.0, 1, final_time=1.0, n_cells=256, tau_list=[1 / 800])
    assert tb.errors[0] < 5e-3
    assert tb.errors[0] == pytest.approx(1.7486e-5, rel=5e-3)  # frozen regression


def test_mode_error_at_initial_time_is_projection_error():
    mesh = build_mesh(16)
    w0 = ritz_project(PiecewiseFn.sine(1), mesh)
    # nodal values are exact at t = 0 ...
    assert np.abs(w0 - np.sin(np.pi * mesh.interior_nodes)).max() <= 1e-10
    # ... so the L2 error is exactly the sine interpolation error
    err = mode_error(mesh, w0, 0.5, 1.0, 1, 0.0)
    ref = np.pi ** 2 * mesh.h ** 2 / np.sqrt(240.0)
    assert err == pytest.approx(ref, rel=1e-3)


@pytest.mark.parametrize("alpha", [0.3, 0.6, 0.95])
@pytest.mark.parametrize("mode", [1, 2, 3])
def test_mode_error_matches_the_direct_reference(mode, alpha):
    # the hat values at the Gauss points are module constants; the direct
    # form rebuilds them from the nodes, so the two differ only by rounding
    spec = ProblemSpec(alpha=alpha, final_time=1.0, coefficient=CoefficientLaw.constant(1.0),
                       initial=PiecewiseFn.sine(mode), source=SourceTerm.zero())
    for n_cells in (8, 16, 32, 64, 128):
        run = solve(spec, n_cells, 40)
        for n in (5, 20, 40):
            args = (run.mesh, run.state(n), alpha, 1.0, mode, n * run.tau)
            assert mode_error(*args) == pytest.approx(direct_mode_error(*args), rel=1e-12, abs=0)


def test_mode_error_rejects_bad_input():
    mesh = build_mesh(8)
    w = np.sin(np.pi * mesh.interior_nodes)
    with pytest.raises(ValueError, match="mode"):
        mode_error(mesh, w, 0.5, 1.0, 0, 1.0)
    with pytest.raises(ValueError, match="mode"):  # was the mode-1 error
        mode_error(mesh, w, 0.5, 1.0, 1.5, 1.0)
    with pytest.raises(ValueError, match="time"):
        mode_error(mesh, w, 0.5, 1.0, 1, -1.0)
    with pytest.raises(ValueError, match="mesh with 8 cells"):
        mode_error(mesh, w[:-1], 0.5, 1.0, 1, 1.0)


def test_oracle_study_temporal_axis():
    tb = oracle_study(0.5, 1.0, 1, final_time=0.5, n_cells=32,
                      tau_list=[1 / 8, 1 / 16])
    assert tb.axis == "temporal"
    assert tb.errors[0] > tb.errors[1] > 0
    assert 0.7 <= tb.rates[0] <= 1.3


# -- CSV --------------------------------------------------------------------------


def _tables_equal(a, b) -> bool:
    if len(a.errors) != len(b.errors):
        return False
    same = np.allclose(a.resolutions, b.resolutions, rtol=0, atol=0)
    same &= np.allclose(a.errors, b.errors, rtol=0, atol=0)
    same &= np.allclose(a.rates, b.rates, rtol=0, atol=0, equal_nan=True)
    return bool(same)


def test_csv_roundtrip_single(tmp_path):
    tb = RateTable(label="demo", axis="temporal",
                   resolutions=[1 / 3, 1 / 6, 1 / 12],
                   errors=[1.0 / 7.0, 0.05000000000000001, 0.0])
    path = tmp_path / "table.csv"
    write_csv([tb], path)
    back = read_csv(path)
    assert len(back) == 1
    assert _tables_equal(tb, back[0])


def test_csv_roundtrip_stacked(tmp_path):
    t1 = RateTable(label="a", axis="temporal", resolutions=[0.5, 0.25],
                   errors=[np.pi / 10, np.pi / 40])
    t2 = RateTable(label="b", axis="spatial", resolutions=[0.125, 0.0625],
                   errors=[1e-3, 2.5e-4])
    path = tmp_path / "stacked.csv"
    write_csv([t1, t2], path)
    back = read_csv(path)
    assert len(back) == 2
    assert _tables_equal(t1, back[0]) and _tables_equal(t2, back[1])


def test_csv_header_and_format(tmp_path):
    tb = RateTable(label="", axis="spatial", resolutions=[0.25], errors=[1e-4])
    path = tmp_path / "t.csv"
    write_csv([tb], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "resolution,error,rate"
    assert lines[1].endswith(",")  # first row carries no rate
    assert "e-" in lines[1]


def test_read_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(path)
