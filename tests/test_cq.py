import dataclasses
import math

import numpy as np
import pytest
from scipy.special import gamma, gammaln

from expandiff import CQWeights, generate_weights
from expandiff.cq import CHUNK, exponentials, partial_sums


def test_alpha_one_degenerates_to_backward_euler():
    w = generate_weights(1.0, 6)
    np.testing.assert_array_equal(w.g, [1, 0, 0, 0, 0, 0])


def test_weights_hold_g_and_its_count_alone():
    # d_i = tau^(alpha-1) g_i: g depends on alpha alone, and no step is stored
    w = generate_weights(0.5, 7)
    assert [f.name for f in dataclasses.fields(CQWeights)] == ["g"]
    assert w.count == w.g.size == 7


def test_half_order_taylor_coefficients():
    # Taylor coefficients of (1 - z)^(1/2), exact in binary arithmetic
    w = generate_weights(0.5, 5)
    np.testing.assert_array_equal(w.g, [1.0, -0.5, -0.125, -0.0625, -0.0390625])


@pytest.mark.parametrize("alpha", [0.1, 0.35, 0.5, 0.8, 1.0])
def test_shorter_runs_are_bitwise_prefixes(alpha):
    # one cumulative product: a march of n steps may read the first n + 1
    # weights of a longer run with another step, and read its own g bitwise
    longest = generate_weights(alpha, 1601).g
    for n in (0, 1, 50, 64, 65, 128, 129, 200, 800):
        own = generate_weights(alpha, n + 1).g
        np.testing.assert_array_equal(longest[:n + 1], own)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_signs_and_partial_sums(alpha):
    w = generate_weights(alpha, 400)
    assert w.g[0] == 1.0
    assert np.all(w.g[1:] < 0.0)
    partial = np.cumsum(w.g)
    assert np.all(partial > 0.0)
    assert np.all(np.diff(partial) <= 0.0)


def test_partial_sums_vanish():
    w = generate_weights(0.5, 10_001)
    assert np.cumsum(w.g)[-1] <= 1e-2


def test_recurrence_matches_gamma_ratio():
    # g_i = Gamma(i - (1-alpha)) / (Gamma(-(1-alpha)) * Gamma(i + 1))
    for alpha in (0.25, 0.5, 0.85):
        beta = 1.0 - alpha
        w = generate_weights(alpha, 101)
        i = np.arange(1, 101)
        ref = np.exp(gammaln(i - beta) - gammaln(i + 1.0)) / gamma(-beta)
        np.testing.assert_allclose(w.g[1:], ref, rtol=1e-10)


def test_generate_matches_sequential_recurrence():
    # the cumulative product against the loop g_i = g_{i-1} * (i - 2 + alpha) / i
    for alpha in (0.1, 0.35, 0.5, 0.8, 1.0):
        w = generate_weights(alpha, 10_001)
        ref = np.empty(10_001)
        ref[0] = 1.0
        for i in range(1, 10_001):
            ref[i] = ref[i - 1] * (i - 2 + alpha) / i
        np.testing.assert_allclose(w.g, ref, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_convolution_with_inverse_exponent_weights(alpha):
    # coefficients of (1-z)^(1-a) convolved with those of (1-z)^(a-1)
    # must give the identity sequence
    n = 512
    w = generate_weights(alpha, n)
    inv = np.empty(n)
    inv[0] = 1.0
    for i in range(1, n):
        inv[i] = inv[i - 1] * (i - alpha) / i
    conv = np.convolve(w.g, inv)[:n]
    expected = np.zeros(n)
    expected[0] = 1.0
    np.testing.assert_allclose(conv, expected, atol=1e-10)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, 2.0])
def test_generate_rejects_bad_alpha(bad):
    with pytest.raises(ValueError):
        generate_weights(bad, 4)


@pytest.mark.parametrize("count", [0, 2.5, math.nan, math.inf])
def test_generate_rejects_bad_count(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        generate_weights(0.5, count)


# -- history sums -------------------------------------------------------------


def test_history_two_steps_of_ones():
    # d_0 + d_1 = 1/2 and d_1 = -1/2 at alpha = 1/2, tau = 1: the history sum
    # of two unit states with and without its current term
    alpha, tau = 0.5, 1.0
    d = tau ** (alpha - 1.0) * generate_weights(alpha, 8).g
    np.testing.assert_allclose(d[:2] @ np.ones((2, 4)), 0.5 * np.ones(4), rtol=1e-14)
    np.testing.assert_allclose(d[1:2] @ np.ones((1, 4)), -0.5 * np.ones(4), rtol=1e-14)


# -- the march's weights: the partial sums Gamma ------------------------------------


@pytest.mark.parametrize("alpha", [1e-6, 0.1, 0.35, 0.5, 0.8, 1.0])
def test_partial_sums_are_bitwise_prefixes_and_sum_g(alpha):
    # one cumulative product: a march of n steps reads the first n + 1 of a
    # longer run's Gamma bitwise.  g_i = Gamma_i - Gamma_{i-1}
    # = Gamma_{i-1} (alpha - 1) / i, where each recurrence carries up to i
    # rounding errors: the difference meets g_i within i eps of Gamma_i, the
    # ratio within i eps of g_i
    longest = partial_sums(alpha, 1601)
    for n in (0, 1, 50, 64, 65, 128, 129, 200, 800):
        np.testing.assert_array_equal(longest[:n + 1], partial_sums(alpha, n + 1))
    assert longest[0] == 1.0 and np.all(longest > 0.0)
    g = generate_weights(alpha, 1601).g[1:]
    i_eps = np.arange(1, 1601) * np.finfo(float).eps
    assert np.all(np.abs(np.diff(longest) - g) <= i_eps * longest[1:])
    assert np.all(np.abs(longest[:-1] * (alpha - 1.0) / np.arange(1, 1601) - g)
                  <= i_eps * np.abs(g))


def test_partial_sums_match_gamma_ratio():
    # Gamma_i = Gamma(i + alpha) / (Gamma(alpha) Gamma(i + 1)), the Taylor
    # coefficients of (1 - z)^(-alpha)
    for alpha in (0.25, 0.5, 0.85):
        i = np.arange(101)
        ref = np.exp(gammaln(i + alpha) - gammaln(i + 1.0)) / gamma(alpha)
        np.testing.assert_allclose(partial_sums(alpha, 101), ref, rtol=1e-10)
    np.testing.assert_array_equal(partial_sums(1.0, 6), 1.0)


# -- the far field's sum of exponentials -----------------------------------------


_ALPHAS = [1e-6, 0.01, 0.5, 0.999, 0.999999, 1 - 1e-9, 1.0]


@pytest.mark.parametrize("count", [129, 2_001, 20_001])
@pytest.mark.parametrize("alpha", _ALPHAS)
def test_exponentials_match_weights_beyond_the_near_field(alpha, count):
    # Gamma_i = sum_q c_q e^{-(i-65) x_q} at every lag the far field meets;
    # at alpha = 1, where Gamma_i = 1, the sum is one term, x = 0 and c = 1
    gammas = partial_sums(alpha, count)
    x, c = exponentials(alpha, gammas)
    if alpha == 1.0:
        np.testing.assert_array_equal(x, [0.0])
        np.testing.assert_array_equal(c, [1.0])
    assert x.size == c.size <= 50
    assert np.all(x >= 0.0)
    lags = np.arange(CHUNK + 1, count)
    fit = np.exp(-np.outer(lags - CHUNK - 1, x)) @ c
    assert np.abs(fit / gammas[lags] - 1.0).max() <= 1e-12


@pytest.mark.parametrize("count, most", [(129, 24), (2_001, 35), (20_001, 44)])
def test_exponentials_have_one_size_per_count(count, most):
    # the trapezoid nodes end at x = (log count + 40) / 65, beyond which every
    # amplitude is below 1e-17 Gamma_{count-1} for every alpha, so Q depends on
    # the count alone and the orders of one study share a march plan
    sizes = {exponentials(alpha, partial_sums(alpha, count))[0].size
             for alpha in _ALPHAS if alpha != 1.0}
    assert len(sizes) == 1 and sizes.pop() <= most
    # alpha -> 0 needs the most terms: none of them is dead
    gammas = partial_sums(1e-6, count)
    _, c = exponentials(1e-6, gammas)
    assert np.all(c > 1e-17 * gammas[-1])


def _check_lags(count):
    """The lags of the exponentials' self-check for ``count`` weights: 65,
    66, 68, .., 64 + 2**k for 2**k <= count, each capped at count - 1."""
    lags = np.unique(np.minimum(CHUNK + 2 ** np.arange(count.bit_length()), count - 1))
    return lags[lags > CHUNK]


@pytest.mark.parametrize("alpha", [1e-6, 0.3, 0.4, 0.6, 0.7, 0.999, 0.999999, 1 - 1e-9])
def test_the_largest_fit_serves_every_shorter_count(alpha):
    # a temporal study fits once, for its largest count; each shorter march
    # of n steps, with tau = 1/n, scales the amplitudes by its own
    # tau^(alpha-1), and must meet G = tau^(alpha-1) Gamma at its own check
    # lags within the self-check's bound max(1e-12, i eps)
    gammas = partial_sums(alpha, 1601)
    x, c = exponentials(alpha, gammas)
    for n in (129, 200, 400, 800, 1600):
        tau, lags = 1 / n, _check_lags(n + 1)
        assert lags.size
        weights = tau ** (alpha - 1.0) * gammas[lags]
        fit = np.exp(-np.outer(lags - CHUNK - 1, x)) @ (tau ** (alpha - 1.0) * c)
        bound = np.maximum(1e-12, lags * np.finfo(float).eps)
        assert np.all(np.abs(fit / weights - 1.0) <= bound), n


def test_exponentials_check_themselves():
    # the construction compares the fit with Gamma at lags 65, 66, 68, ..,
    # 192 and 299: a Gamma off by 1e-11 at one of them raises instead of
    # reaching a march
    gammas = partial_sums(0.5, 300)
    gammas[CHUNK + 128] *= 1 + 1e-11
    with pytest.raises(ValueError, match="exponentials miss the CQ weights"):
        exponentials(0.5, gammas)
