"""Backward-Euler convolution-quadrature weights for fractional order 1 - alpha.

The weights d_i are the Taylor coefficients of ((1 - z)/tau)^(1-alpha):
d_i = tau^(alpha-1) * g_i with g_i = (-1)^i * binom(1-alpha, i).  They are
produced by the multiplicative recurrence g_i = g_{i-1} * (i - 2 + alpha) / i,
one cumulative product, which is O(N), overflow-free and stable for all i.
``history_sum`` applies them to stored states, for one step or for a block
of steps at once, as one matrix product with a Toeplitz slab of the weights
(the blocking of Hairer, Lubich & Schlichte, SIAM J. Sci. Stat. Comput. 6
(1985) 532).  It validates its arguments; a stepper that has checked its
shapes once takes the per-step weights from ``CQWeights.history_window``
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class CQWeights:
    """Weights of the generating function ((1 - z)/tau)^(1-alpha)."""

    alpha: float
    tau: float
    g: np.ndarray  # dimensionless binomial-type coefficients, g[0] = 1
    d: np.ndarray  # d[i] = tau^(alpha-1) * g[i]

    @property
    def count(self) -> int:
        return self.g.size

    @cached_property
    def d_reversed(self) -> np.ndarray:
        """d in reverse order; lets history sums take contiguous slices."""
        return self.d[::-1].copy()

    def history_window(self, n: int) -> np.ndarray:
        """d_{n-1} .. d_1, a contiguous view: the weights that meet W^1 ..
        W^{n-1} in the history sum at step n without its current term.
        Unchecked; 1 <= n <= count."""
        return self.d_reversed[-n:-1]


def generate(alpha: float, tau: float, count: int) -> CQWeights:
    """Weights d_0 .. d_{count-1} for order alpha in (0, 1] and step tau > 0.

    alpha = 1 is the degenerate case g = (1, 0, 0, ...), which reduces the
    stepper to classical backward Euler.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    i = np.arange(1, count)
    g = np.cumprod(np.concatenate(([1.0], (i - 2 + alpha) / i)))
    return CQWeights(alpha=float(alpha), tau=float(tau), g=g, d=tau ** (alpha - 1.0) * g)


def history_sum(weights: CQWeights, states, upto, exclude_current: bool = False) -> np.ndarray:
    """Fractional history sum at step ``upto``: sum_{i} d_i W^{upto-i}.

    ``states`` holds W^1 .. W^k row-wise (states[k-1] is W^k).  The full sum
    runs i = 0 .. upto-1; with ``exclude_current`` the i = 0 term is dropped
    so an implicit stepper can keep d_0 W^upto on the left-hand side.

    ``upto`` may also be a range of consecutive steps n0 .. n1-1.  The result
    then has one row per step, and every row sums over the states the first
    step sees: row n - n0 is sum_j d_{n-j} W^j over j = 1 .. n0 - i0, where
    i0 = 1 with ``exclude_current``.  This is the far field of a block of
    steps, computed as one matrix product with the Toeplitz slab of the
    weights; the block's stepper adds the nearer states itself.
    """
    steps = upto if isinstance(upto, range) else range(upto, upto + 1)
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError("states must be a 2-D array of row vectors W^1..W^n")
    if not steps or steps.step != 1:
        raise ValueError(f"steps must be a non-empty range with step 1, got {upto}")
    if steps.start < 1:
        raise ValueError(f"step index must be >= 1, got {steps.start}")
    if weights.count < steps[-1]:
        raise ValueError(f"need at least {steps[-1]} weights, have {weights.count}")
    i0 = 1 if exclude_current else 0
    needed = steps.start - i0
    if states.shape[0] < needed:
        raise ValueError(f"need {needed} states, have {states.shape[0]}")
    # d_i pairs with W^{n-i}: reversed weights d_{n-1} .. d_{n-needed} meet W^1 .. in order
    start = weights.count - steps.start  # row n0 of the slab begins here in d_reversed
    # row k starts one entry earlier than row k - 1: reversed sliding windows
    slab = sliding_window_view(
        weights.d_reversed[start - len(steps) + 1:start + needed], needed)[::-1]
    out = np.ascontiguousarray(slab) @ states[:needed]
    return out if isinstance(upto, range) else out[0]
