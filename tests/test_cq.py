import numpy as np
import pytest
from scipy.special import gamma, gammaln

from expandiff import CQWeights, generate_weights, history_sum


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


def test_history_first_step_excluding_current_is_empty():
    w = generate_weights(0.5, 1.0, 8)
    out = history_sum(w, np.ones((1, 3)), 1, exclude_current=True)
    np.testing.assert_array_equal(out, np.zeros(3))


def test_history_two_steps_of_ones():
    w = generate_weights(0.5, 1.0, 8)
    states = np.ones((2, 4))
    full = history_sum(w, states, 2)
    np.testing.assert_allclose(full, 0.5 * np.ones(4), rtol=1e-14)
    tail = history_sum(w, states, 2, exclude_current=True)
    np.testing.assert_allclose(tail, -0.5 * np.ones(4), rtol=1e-14)


def test_history_all_zero_states():
    w = generate_weights(0.4, 0.1, 8)
    out = history_sum(w, np.zeros((5, 2)), 5)
    np.testing.assert_array_equal(out, 0.0)


def test_history_matches_direct_loop():
    rng = np.random.default_rng(3)
    w = generate_weights(0.6, 0.05, 12)
    states = rng.standard_normal((10, 5))
    for upto in (1, 2, 5, 10):
        for excl in (False, True):
            i0 = 1 if excl else 0
            ref = sum(w.d[i] * states[upto - i - 1] for i in range(i0, upto))
            if i0 == upto:
                ref = np.zeros(5)
            got = history_sum(w, states, upto, exclude_current=excl)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-15)


def test_history_insufficient_weights():
    w = generate_weights(0.5, 1.0, 3)
    with pytest.raises(ValueError):
        history_sum(w, np.ones((5, 2)), 5)


def test_history_insufficient_states():
    w = generate_weights(0.5, 1.0, 8)
    with pytest.raises(ValueError):
        history_sum(w, np.ones((2, 2)), 4)


def test_history_rejects_non_2d_states():
    w = generate_weights(0.5, 1.0, 8)
    with pytest.raises(ValueError):
        history_sum(w, np.ones(4), 2)
    with pytest.raises(ValueError):
        history_sum(w, np.ones((2, 2)), 0)


def test_reversed_weights_cached_view():
    w = generate_weights(0.5, 1.0, 6)
    np.testing.assert_array_equal(w.d_reversed, w.d[::-1])
    assert w.d_reversed is w.d_reversed  # cached, not rebuilt


@pytest.mark.parametrize("exclude_current", [False, True])
def test_history_block_rows_match_single_target(exclude_current):
    # each row of the block form is the single-target sum over the states
    # the block's first step sees; later states are zeroed for the reference
    rng = np.random.default_rng(11)
    w = generate_weights(0.35, 0.01, 200)
    states = rng.standard_normal((199, 6))
    i0 = 1 if exclude_current else 0
    for n0, n1 in [(1, 2), (1, 64), (2, 3), (5, 69), (70, 134), (150, 200)]:
        block = history_sum(w, states, range(n0, n1), exclude_current=exclude_current)
        assert block.shape == (n1 - n0, 6)
        seen = states.copy()
        seen[n0 - i0:] = 0.0
        for n in range(n0, n1):
            ref = history_sum(w, seen, n, exclude_current=exclude_current)
            np.testing.assert_allclose(block[n - n0], ref, rtol=1e-13,
                                       atol=1e-13 * np.abs(ref).max())


def test_history_block_validates_range():
    w = generate_weights(0.5, 1.0, 8)
    states = np.ones((7, 2))
    for bad in (range(3, 3), range(2, 6, 2), range(0, 2)):
        with pytest.raises(ValueError):
            history_sum(w, states, bad)
    with pytest.raises(ValueError):
        history_sum(w, states, range(4, 10))  # the last step needs 9 weights
    with pytest.raises(ValueError):
        history_sum(w, states[:2], range(4, 6))  # the first step needs 4 states


def test_history_window_matches_history_sum():
    # the stepper's unchecked window, over all earlier states and over the
    # states of a block, against the validated sums it replaces
    rng = np.random.default_rng(5)
    w = generate_weights(0.35, 0.01, 200)
    states = rng.standard_normal((199, 6))
    for n in (1, 2, 63, 64, 65, 130, 200):
        window = w.history_window(n)
        assert window.shape == (n - 1,)
        assert n == 1 or np.shares_memory(window, w.d_reversed)  # a view, not a copy
        np.testing.assert_allclose(window @ states[:n - 1],
                                   history_sum(w, states, n, exclude_current=True),
                                   rtol=1e-14, atol=0.0)
    for n0, n1 in [(1, 65), (65, 129), (150, 200)]:
        far = history_sum(w, states, range(n0, n1), exclude_current=True)
        for n in range(n0, n1):
            near = w.history_window(n - n0 + 1) @ states[n0 - 1:n - 1]  # W^n0 .. W^{n-1}
            np.testing.assert_allclose(
                near, history_sum(w, states[n0 - 1:], n - n0 + 1, exclude_current=True),
                rtol=1e-14, atol=0.0)
            full = history_sum(w, states, n, exclude_current=True)
            np.testing.assert_allclose(far[n - n0] + near, full, rtol=1e-13,
                                       atol=1e-13 * np.abs(full).max())
