import math

import numpy as np
import pytest
from scipy.special import gamma, gammaln

from expandiff import CQWeights, generate_weights
from expandiff.cq import CHUNK


def test_alpha_one_degenerates_to_backward_euler():
    w = generate_weights(1.0, 0.25, 6)
    np.testing.assert_array_equal(w.g, [1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(w.d, w.g)


def test_half_order_taylor_coefficients():
    # Taylor coefficients of (1 - z)^(1/2), exact in binary arithmetic
    w = generate_weights(0.5, 1.0, 5)
    np.testing.assert_array_equal(w.g, [1.0, -0.5, -0.125, -0.0625, -0.0390625])


def test_step_scaling():
    w = generate_weights(0.5, 0.01, 3)
    assert w.d[0] == pytest.approx(10.0, rel=1e-14)
    np.testing.assert_allclose(w.d, 10.0 * w.g, rtol=1e-14)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_signs_and_partial_sums(alpha):
    w = generate_weights(alpha, 1.0, 400)
    assert w.g[0] == 1.0
    assert np.all(w.g[1:] < 0.0)
    partial = np.cumsum(w.g)
    assert np.all(partial > 0.0)
    assert np.all(np.diff(partial) <= 0.0)


def test_partial_sums_vanish():
    w = generate_weights(0.5, 1.0, 10_001)
    assert np.cumsum(w.g)[-1] <= 1e-2


def test_recurrence_matches_gamma_ratio():
    # g_i = Gamma(i - (1-alpha)) / (Gamma(-(1-alpha)) * Gamma(i + 1))
    for alpha in (0.25, 0.5, 0.85):
        beta = 1.0 - alpha
        w = generate_weights(alpha, 1.0, 101)
        i = np.arange(1, 101)
        ref = np.exp(gammaln(i - beta) - gammaln(i + 1.0)) / gamma(-beta)
        np.testing.assert_allclose(w.g[1:], ref, rtol=1e-10)


def test_generate_matches_sequential_recurrence():
    # the cumulative product against the loop g_i = g_{i-1} * (i - 2 + alpha) / i
    for alpha in (0.1, 0.35, 0.5, 0.8, 1.0):
        w = generate_weights(alpha, 1.0, 10_001)
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
    w = generate_weights(alpha, 1.0, n)
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
        generate_weights(bad, 1.0, 4)


def test_generate_rejects_bad_tau_and_count():
    with pytest.raises(ValueError):
        generate_weights(0.5, 0.0, 4)
    with pytest.raises(ValueError):
        generate_weights(0.5, 1.0, 0)


# -- history sums -------------------------------------------------------------


def _direct(w, states, n):
    """sum_{i=1}^{n-1} d_i W^{n-i} over states[j-1] = W^j, one term at a time."""
    return sum((w.d[i] * states[n - i - 1] for i in range(1, n)), np.zeros(states.shape[1]))


def test_history_first_step_excluding_current_is_empty():
    w = generate_weights(0.5, 1.0, 8)
    assert w.history_window(1).shape == (0,)
    np.testing.assert_array_equal(w.history_window(1) @ np.ones((0, 3)), np.zeros(3))


def test_history_two_steps_of_ones():
    w = generate_weights(0.5, 1.0, 8)
    states = np.ones((2, 4))
    full = w.d[0] * states[1] + w.history_window(2) @ states[:1]
    np.testing.assert_allclose(full, 0.5 * np.ones(4), rtol=1e-14)
    tail = w.history_window(2) @ states[:1]
    np.testing.assert_allclose(tail, -0.5 * np.ones(4), rtol=1e-14)


def test_history_all_zero_states():
    w = generate_weights(0.4, 0.1, 8)
    np.testing.assert_array_equal(w.history_window(5) @ np.zeros((4, 2)), 0.0)


def test_history_matches_direct_loop():
    rng = np.random.default_rng(3)
    w = generate_weights(0.6, 0.05, 12)
    states = rng.standard_normal((10, 5))
    for n in (1, 2, 5, 10):
        np.testing.assert_allclose(w.history_window(n) @ states[:n - 1], _direct(w, states, n),
                                   rtol=1e-13, atol=1e-15)


def test_reversed_weights_cached_view():
    w = generate_weights(0.5, 1.0, 6)
    np.testing.assert_array_equal(w.d_reversed, w.d[::-1])
    assert w.d_reversed is w.d_reversed  # cached, not rebuilt


def test_history_window_matches_history_sum():
    # the stepper's unchecked window, over all earlier states and over the
    # states from a chunk's origin on, against the direct sum
    rng = np.random.default_rng(5)
    w = generate_weights(0.35, 0.01, 200)
    states = rng.standard_normal((199, 6))
    for n in (1, 2, 63, 64, 65, 130, 200):
        window = w.history_window(n)
        assert window.shape == (n - 1,)
        assert n == 1 or np.shares_memory(window, w.d_reversed)  # a view, not a copy
        direct = w.d[n - 1:0:-1].copy() @ states[:n - 1]  # d_{n-1} W^1 + ... + d_1 W^{n-1}
        np.testing.assert_allclose(window @ states[:n - 1], direct, rtol=1e-14, atol=0.0)
    for origin, n0, n1 in [(1, 1, 65), (1, 65, 129), (86, 150, 200)]:
        for n in range(n0, n1):
            near = w.history_window(n - origin + 1) @ states[origin - 1:n - 1]  # W^origin ..
            far = w.d[n - 1:n - origin:-1] @ states[:origin - 1]  # W^1 .. W^{origin-1}
            full = _direct(w, states, n)
            np.testing.assert_allclose(far + near, full, rtol=1e-13,
                                       atol=1e-13 * np.abs(full).max(initial=0.0))


# -- the far field's sum of exponentials -----------------------------------------


@pytest.mark.parametrize("count", [129, 2_001, 20_001])
@pytest.mark.parametrize("alpha", [1e-6, 0.01, 0.5, 0.999, 1.0])
def test_exponentials_match_weights_beyond_the_near_field(alpha, count):
    # d_i = sum_q c_q e^{-(i-65) x_q} at every lag the far field meets
    w = generate_weights(alpha, 0.37, count)
    x, c = w.exponentials
    assert w.exponentials is w.exponentials  # built once
    if alpha == 1.0:
        assert x.size == c.size == 0
        return
    assert x.size == c.size <= 50
    assert np.all(x > 0.0)
    lags = np.arange(CHUNK + 1, count)
    fit = np.exp(-np.outer(lags - CHUNK - 1, x)) @ c
    assert np.abs(fit / w.d[lags] - 1.0).max() <= 1e-12


def test_exponentials_check_themselves():
    # the construction compares the fit with g at lags 65, 66, 68, .., 192 and
    # 299: a g off by 1e-11 at one of them raises instead of reaching a march
    w = generate_weights(0.5, 1.0, 300)
    w.g[CHUNK + 128] *= 1 + 1e-11
    with pytest.raises(ValueError, match="exponentials miss the CQ weights"):
        w.exponentials


@pytest.mark.parametrize("tau, count, match", [
    (math.nan, 4, "tau must be finite"), (math.inf, 4, "tau must be finite"),
    (1.0, 2.5, "count must be an integer")])
def test_generate_rejects_non_finite_tau_and_fractional_count(tau, count, match):
    with pytest.raises(ValueError, match=match):
        generate_weights(0.5, tau, count)
