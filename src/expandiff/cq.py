"""Backward-Euler convolution-quadrature weights for fractional order 1 - alpha.

The weights d_i are the Taylor coefficients of ((1 - z)/tau)^(1-alpha):
d_i = tau^(alpha-1) * g_i with g_i = (-1)^i * binom(1-alpha, i).  They are
produced by the multiplicative recurrence g_i = g_{i-1} * (i - 2 + alpha) / i,
which is O(N), overflow-free and stable for all i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
    g = np.empty(count)
    g[0] = 1.0
    for i in range(1, count):
        g[i] = g[i - 1] * (i - 2 + alpha) / i
    return CQWeights(alpha=float(alpha), tau=float(tau), g=g, d=tau ** (alpha - 1.0) * g)


def history_sum(weights: CQWeights, states, upto: int, exclude_current: bool = False) -> np.ndarray:
    """Fractional history sum at step ``upto``: sum_{i} d_i W^{upto-i}.

    ``states`` holds W^1 .. W^k row-wise (states[k-1] is W^k).  The full sum
    runs i = 0 .. upto-1; with ``exclude_current`` the i = 0 term is dropped
    so an implicit stepper can keep d_0 W^upto on the left-hand side.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError("states must be a 2-D array of row vectors W^1..W^n")
    if upto < 1:
        raise ValueError(f"step index must be >= 1, got {upto}")
    if weights.count < upto:
        raise ValueError(f"need at least {upto} weights, have {weights.count}")
    i0 = 1 if exclude_current else 0
    needed = upto - i0
    if states.shape[0] < needed:
        raise ValueError(f"need {needed} states, have {states.shape[0]}")
    # d_i pairs with W^{upto-i}: reversed weights d_{upto-1} .. d_{i0} meet W^1 .. in order
    last = weights.count - 1
    return weights.d_reversed[last - upto + 1:last - i0 + 1] @ states[:needed]
