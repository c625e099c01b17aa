import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc, erfcx, rgamma

import expandiff
from expandiff import exact_solution, mittag_leffler
from expandiff.mittag_leffler import _sweep
from direct_reference import direct_mittag_leffler

# Reference values computed once at 60-digit precision with the
# branch-cut integral representation
#   E_a(-x) = sin(a pi)/pi * int_0^inf e^-r r^(a-1) x / (r^2a + 2 x r^a cos(a pi) + x^2) dr,
# cross-checked against the high-precision power series and, for a = 1/2,
# against exp(x^2) erfc(x).
_REFERENCE = {
    (0.3, -0.5): 0.63264900594359902,
    (0.3, -2.5): 0.24498312379478694,
    (0.3, -5.0): 0.13708086902027064,
    (0.3, -8.0): 0.089493095818620724,
    (0.3, -10.5): 0.069383577583258179,
    (0.3, -12.0): 0.061135915996519465,
    (0.3, -20.0): 0.037406226213884453,
    (0.3, -50.0): 0.015228201501814695,
    (0.5, -0.5): 0.61569034419292587,
    (0.5, -2.5): 0.21080636406114358,
    (0.5, -5.0): 0.11070463773306863,
    (0.5, -8.0): 0.069985166200880928,
    (0.5, -10.5): 0.053491899746564117,
    (0.5, -12.0): 0.046854221014893763,
    (0.5, -20.0): 0.028174348741051319,
    (0.5, -50.0): 0.011281536265323773,
    (0.7, -0.5): 0.60514759205956427,
    (0.7, -2.5): 0.16863128667619575,
    (0.7, -5.0): 0.07756935776476981,
    (0.7, -8.0): 0.046069992385362386,
    (0.7, -10.5): 0.034325840247343237,
    (0.7, -12.0): 0.029761168325449357,
    (0.7, -20.0): 0.01739569829160398,
    (0.7, -50.0): 0.0067936656703830939,
    (0.8, -0.5): 0.6030237158628037,
    (0.8, -2.5): 0.14341738258439233,
    (0.8, -5.0): 0.057595384762152244,
    (0.8, -8.0): 0.032273828446835791,
    (0.8, -10.5): 0.023556475429512019,
    (0.8, -12.0): 0.020268165216948834,
    (0.8, -20.0): 0.011617250451432778,
    (0.8, -50.0): 0.0044677761579029923,
    (0.95, -0.5): 0.60461402734213173,
    (0.95, -2.5): 0.098886431223165562,
    (0.95, -5.0): 0.021268437291731121,
    (0.95, -8.0): 0.0089310915218318229,
    (0.95, -10.5): 0.0061029499917340139,
    (0.95, -12.0): 0.0051537977632854272,
    (0.95, -20.0): 0.0028432225780766326,
    (0.95, -50.0): 0.001067234039220843,
}

# Corners where a quadrature is weakest: a small order, whose decay factor
# cuts off sharply, and orders near 1, whose density peaks sharply.  Computed
# once with mpmath at 50 digits by adaptive tanh-sinh quadrature of
#   E_a(-x) = int_0^inf exp(-(u x)^(1/a)) sin(a pi) / (pi a (u^2 + 2 u cos(a pi) + 1)) du,
# split at u = 1/x and at the density's peak; cross-checked against the
# power series summed at 50 extra digits and, for a = 0.2 and x >= 10.5,
# against 80 terms of the asymptotic expansion, all to better than 1e-48.
_REFERENCE_CORNERS = {
    (0.2, -0.5): 0.642964991926139,
    (0.2, -2.5): 0.25981009337060623,
    (0.2, -10.5): 0.07608440679840905,
    (0.2, -50.0): 0.01691371014778602,
    (0.99, -0.5): 0.6060899526314165,
    (0.99, -2.5): 0.08552279959611352,
    (0.99, -10.5): 0.0012489625796911427,
    (0.99, -50.0): 0.0002095764990060077,
    (0.999, -0.5): 0.6064852913369113,
    (0.999, -2.5): 0.0824304858620766,
    (0.999, -10.5): 0.0001497883832487308,
    (0.999, -50.0): 2.0862972463840595e-05,
}

_ORDERS = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]


def _power_series(alpha, z):
    """sum_k z^k / Gamma(alpha k + 1); free of cancellation for |z| <= 1."""
    terms = []
    for k in range(400):
        terms.append(z ** k / math.gamma(alpha * k + 1.0))
        if abs(terms[-1]) < 1e-18 and alpha * k > 1.0:
            return math.fsum(terms)
    raise AssertionError("power series did not converge")


def _asymptotic(alpha, z):
    """-sum_{k=1}^{10} z^-k / Gamma(1 - alpha k); terms at poles of Gamma vanish."""
    return -sum(rgamma(1.0 - alpha * k) / z ** k for k in range(1, 11))


@pytest.mark.parametrize("alpha", [0.2, 0.4, 0.55, 0.9, 1.0])
def test_value_at_zero(alpha):
    assert mittag_leffler(alpha, 0.0) == 1.0


def test_alpha_one_is_exp():
    for z in np.linspace(-30.0, 0.0, 61):
        assert abs(mittag_leffler(1.0, z) - math.exp(z)) <= 1e-12


def test_classical_identities():
    assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(math.e * erfc(1.0), rel=1e-10)


@pytest.mark.parametrize("x", [0.25, 1.0, 2.0, 5.0, np.pi ** 2, 20.0, 50.0])
def test_half_order_matches_scaled_erfc(x):
    # E_{1/2}(-x) = exp(x^2) erfc(x), independent closed form
    assert mittag_leffler(0.5, -x) == pytest.approx(erfcx(x), rel=1e-8)


def test_frozen_reference_table():
    for (alpha, z), ref in _REFERENCE.items():
        assert mittag_leffler(alpha, z) == pytest.approx(ref, abs=1e-8), (alpha, z)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.0])
def test_completely_monotone_profile(alpha):
    zs = np.linspace(-50.0, 0.0, 26)
    vals = np.array([mittag_leffler(alpha, z) for z in zs])
    assert np.all(vals > 0.0)
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= 0.0)  # non-decreasing towards z = 0


def test_frozen_corner_table():
    for (alpha, z), ref in _REFERENCE_CORNERS.items():
        assert mittag_leffler(alpha, z) == pytest.approx(ref, abs=1e-12), (alpha, z)


@pytest.mark.parametrize("alpha", _ORDERS)
def test_matches_power_series(alpha):
    # both sides of the switch to the two-term series at |z| = 1e-6
    for z in np.concatenate([-np.geomspace(1e-10, 1.0, 21), [-0.5, -0.75]]):
        assert mittag_leffler(alpha, z) == pytest.approx(
            _power_series(alpha, z), abs=1e-12), z


@pytest.mark.parametrize("alpha", _ORDERS)
def test_matches_asymptotic_expansion(alpha):
    def omitted(z):
        return max(abs(rgamma(1.0 - alpha * k)) * abs(z) ** -k for k in (11, 12))

    zs = [z for z in -np.geomspace(1.0, 1e8, 33) if omitted(z) <= 1e-13]
    assert len(zs) >= 8
    for z in zs:
        assert mittag_leffler(alpha, z) == pytest.approx(
            _asymptotic(alpha, z), abs=1e-12), z


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 1.0])
def test_extreme_and_invalid_arguments(alpha):
    with pytest.raises(ValueError):
        mittag_leffler(alpha, math.nan)
    assert mittag_leffler(alpha, -math.inf) == 0.0
    for z in (-1e-300, -1e-30):
        assert mittag_leffler(alpha, z) == pytest.approx(1.0, abs=1e-15), z
    for z in (-1e30, -1e300):
        value = mittag_leffler(alpha, z)
        assert 0.0 <= value < 1e-29, z


def test_package_import_leaves_out_heavy_modules():
    # mpmath and scipy (scipy.fft included) cost start-up time and memory on
    # every run, and so does numpy.polynomial, whose one use was the Gauss
    # rule; importing the package and its CLI and one solve must load none
    code = ("import sys, expandiff as xd, expandiff.cli\n"
            "xd.solve(xd.ProblemSpec(0.5, 1.0, xd.CoefficientLaw.constant(1.0),\n"
            "    xd.PiecewiseFn.indicator(0.5, 1.0), xd.SourceTerm.zero()), 16, 4)\n"
            "print([m for m in sys.modules if m.split('.')[0] in ('mpmath', 'scipy')\n"
            "       or m.startswith('numpy.polynomial')])")
    src = str(Path(expandiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


# the orders on both sides of the branch at 1/2, and the sweep's least order
_SWEEP_ORDERS = [1e-3, 0.3, 0.5, float(np.nextafter(0.5, 1.0)), 0.7, 0.95]


def test_cached_sweep_matches_the_direct_sweep_bitwise():
    # the orders interleaved, so every call replaces the cached sweep, then
    # each order's arguments in a row, so every call after its first reuses it
    xs = list(np.logspace(-6, 8, 57)) + [math.inf]
    for x in xs:
        for alpha in _SWEEP_ORDERS:
            assert mittag_leffler(alpha, -x) == direct_mittag_leffler(alpha, -x), (alpha, x)
    for alpha in _SWEEP_ORDERS:
        for x in xs:
            assert mittag_leffler(alpha, -x) == direct_mittag_leffler(alpha, -x), (alpha, x)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_cached_sweep_is_read_only(alpha):
    arrays = [part for part in _sweep(alpha) if isinstance(part, np.ndarray)]
    assert len(arrays) == 2
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_rejects_positive_argument():
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 0.5)


# True used to read as 1
@pytest.mark.parametrize("bad", [0.0, -0.2, 1.2, True, pytest.param(np.True_, id="np.True_")])
def test_rejects_bad_order(bad):
    with pytest.raises(ValueError):
        mittag_leffler(bad, -1.0)


@pytest.mark.parametrize("alpha", [1e-6, 1e-5, 1e-4, 3e-4])
def test_rejects_orders_below_the_resolved_range(alpha):
    # the contracted sweep misses the density there: at 1e-6 it returned
    # 0.0116 for E(-0.3) = 0.769, and at 1e-4 0.7638
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0.001, 1\]"):
        mittag_leffler(alpha, -0.3)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0.001, 1\]"):
        exact_solution(alpha, 1.0, 1, 0.5, 1.0)
    assert mittag_leffler(1e-3, -0.3) == pytest.approx(1 / 1.3, abs=2e-4)  # E -> 1/(1 + x)


# -- single-mode closed form ----------------------------------------------------


def test_exact_solution_initial_time():
    x = np.linspace(0, 1, 11)
    np.testing.assert_allclose(exact_solution(0.6, 1.0, 1, x, 0.0),
                               np.sin(np.pi * x), atol=1e-15)


def test_exact_solution_heat_mode_decay():
    x = np.array([0.25, 0.5])
    got = exact_solution(1.0, 1.0, 1, x, 1.0)
    np.testing.assert_allclose(got, math.exp(-np.pi ** 2) * np.sin(np.pi * x),
                               rtol=1e-12)


def test_exact_solution_half_order():
    got = exact_solution(0.5, 1.0, 1, 0.5, 1.0)
    assert got == pytest.approx(erfcx(np.pi ** 2), rel=1e-8)


def test_exact_solution_higher_mode():
    got = exact_solution(0.8, 2.0, 3, 1.0 / 6.0, 0.5)
    ref = mittag_leffler(0.8, -2.0 * (3 * np.pi) ** 2 * 0.5 ** 0.8)
    assert got == pytest.approx(ref, rel=1e-12)


def test_exact_solution_validation():
    with pytest.raises(ValueError):
        exact_solution(0.5, -1.0, 1, 0.5, 1.0)
    with pytest.raises(ValueError):
        exact_solution(0.5, 1.0, 0, 0.5, 1.0)
    with pytest.raises(ValueError, match="mode"):  # was truncated to mode 1
        exact_solution(0.5, 1.0, 1.9, 0.5, 0.0)
    with pytest.raises(ValueError):
        exact_solution(0.5, 1.0, 1, 0.5, -1.0)
    # booleans read as 1 and 0
    with pytest.raises(ValueError, match="^kappa must be"):
        exact_solution(0.5, True, 1, 0.5, True)
    with pytest.raises(ValueError, match="^t must be"):
        exact_solution(0.5, 1.0, 1, 0.5, np.True_)


@pytest.mark.parametrize("kappa, t, name", [(math.nan, 1.0, "kappa"), (1.0, math.nan, "t")])
def test_exact_solution_rejects_nan_naming_the_argument(kappa, t, name):
    # NaN used to reach mittag_leffler, whose message named its own argument
    with pytest.raises(ValueError, match=f"^{name} must be"):
        exact_solution(0.5, kappa, 1, 0.5, t)
    mesh = expandiff.build_mesh(8)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        expandiff.mode_error(mesh, np.zeros(mesh.n_interior), 0.5, kappa, 1, t)


@pytest.mark.parametrize("kappa, t, amplitude", [
    (math.inf, 1.0, 0.0), (1.0, math.inf, 0.0), (math.inf, 0.0, 1.0), (0.0, math.inf, 1.0)])
def test_exact_solution_infinite_kappa_or_time(kappa, t, amplitude):
    # the limit E_alpha(-inf) = 0, except where the other factor is 0: that
    # product was NaN, and mittag_leffler rejected it
    assert exact_solution(0.5, kappa, 1, 0.5, t) == amplitude
