"""Backward-Euler convolution-quadrature weights for fractional order 1 - alpha.

The weights d_i are the Taylor coefficients of ((1 - z)/tau)^(1-alpha):
d_i = tau^(alpha-1) * g_i with g_i = (-1)^i * binom(1-alpha, i), which
depend on alpha alone (Lubich, Numer. Math. 52 (1988) 129).  ``generate``
makes g by the multiplicative recurrence g_i = g_{i-1} * (i - 2 + alpha) / i,
one cumulative product, which is O(N), overflow-free and stable for all i,
and takes no tau: d is formed where it is used, at the lags it is read.  A
shorter run's g is a bitwise prefix of a longer one's, for the recurrence
is one cumulative product.  A stepper sums the history of its current and
previous chunk of ``CHUNK`` steps directly, with weights d; the older
history meets lags > ``CHUNK`` only, and there it takes g from
``exponentials``, a short sum of exponentials that turns that history into
running sums (the kernel compression of Baffet & Hesthaven, SIAM J. Numer.
Anal. 55 (2017) 496).  The sum depends on alpha and the count alone, and
holds at every lag of a shorter run too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem1d import require_count

CHUNK = 64  # steps per chunk of a march; the exponentials serve lags > CHUNK


@dataclass(frozen=True)
class CQWeights:
    """The weights g of the generating function (1 - z)^(1-alpha), built by
    ``generate``, which checks its arguments; the field is not: NaN propagates."""

    g: np.ndarray  # dimensionless binomial-type coefficients, g[0] = 1

    @property
    def count(self) -> int:
        return self.g.size


def exponentials(alpha: float, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rates x_q > 0 and dimensionless amplitudes c_q with
    g_i = sum_q c_q e^{-(i-CHUNK-1) x_q} to 1e-12 relative for CHUNK < i < count,
    where g holds the first count weights of order alpha (``generate``); none at
    alpha = 1.  d_i = tau^(alpha-1) g_i, so a run with step tau scales c by
    tau^(alpha-1), and a shorter run with any step may use the same sum.

    With beta = 1 - alpha, g_i = -(sin pi beta / pi) int_0^inf e^{-ix} (e^x - 1)^beta dx.
    The trapezoid rule in u = log x gives the terms; those with x <= 4/count
    merge into a 12-point Gauss rule of their measure in t = count x.
    ValueError if the sum misses g at about log2(count) lags by more than
    1e-12 relative, or than i eps (the recurrence's own bound) at i > 4,500."""
    count, lag = g.size, CHUNK + 1
    if alpha == 1.0:
        return np.empty(0), np.empty(0)
    beta, log_eps = 1.0 - alpha, math.log(1e-15)
    h = -0.9 * math.pi ** 2 / log_eps
    x = np.exp(np.arange(log_eps / (1 + beta) - math.log(count) - 2,
                         math.log(-log_eps / (lag - beta) + 1) + 0.5, h))  # u = log x
    # sin(pi min(alpha, beta)): no cancellation in pi beta near alpha = 0 or 1
    c = -math.sin(math.pi * min(alpha, beta)) / math.pi * h * x * np.exp(
        beta * np.log(np.expm1(x)) - lag * x)
    small = x <= 4.0 / count
    t, w = count * x[small], -c[small]
    basis = np.empty((12, t.size))
    basis[0] = np.sqrt(w / w.sum())
    for k in range(1, 12):  # Lanczos on diag(t), with full reorthogonalisation
        v = t * basis[k - 1]
        for _ in range(2):
            v -= basis[:k].T @ (basis[:k] @ v)
        basis[k] = v / np.linalg.norm(v)
    nodes, vectors = np.linalg.eigh(basis * t @ basis.T)  # the Jacobi matrix
    x = np.concatenate((nodes / count, x[~small]))
    c = np.concatenate((-w.sum() * vectors[0] ** 2, c[~small]))
    lags = np.unique(np.minimum(lag - 1 + 2 ** np.arange(count.bit_length()), count - 1))
    lags = lags[lags >= lag]
    # g_i carries up to i rounding errors of its recurrence: i eps bounds them
    error = np.abs(np.exp(-np.outer(lags - lag, x)) @ c / g[lags] - 1.0)
    if not np.all(error <= np.maximum(1e-12, lags * np.finfo(float).eps)):
        raise ValueError(f"the exponentials miss the CQ weights by {error.max():.3g} "
                         f"relative (alpha={alpha}, count={count})")
    return x, c


def generate(alpha: float, count: int) -> CQWeights:
    """Weights g_0 .. g_{count-1} of order alpha in (0, 1]; d_i = tau^(alpha-1) g_i for any tau.

    alpha = 1 is the degenerate case g = (1, 0, 0, ...), which reduces the
    stepper to classical backward Euler.  ValueError, naming the argument,
    for an alpha outside (0, 1] or a count that is not an integer >= 1.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    count = require_count(count, 1, "count")
    i = np.arange(1, count)
    return CQWeights(g=np.cumprod(np.concatenate(([1.0], (i - 2 + alpha) / i))))
