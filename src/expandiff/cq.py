"""Backward-Euler convolution-quadrature weights for fractional order 1 - alpha.

The weights d_i are the Taylor coefficients of ((1 - z)/tau)^(1-alpha):
d_i = tau^(alpha-1) * g_i with g_i = (-1)^i * binom(1-alpha, i), which
depend on alpha alone (Lubich, Numer. Math. 52 (1988) 129).  ``generate``
makes g by the multiplicative recurrence g_i = g_{i-1} * (i - 2 + alpha) / i,
one cumulative product, which is O(N), overflow-free and stable for all i,
and takes no tau.  The march reads their partial sums instead: it steps the
increments W^n - W^{n-1}, and ((1 - z)/tau)^(1-alpha) = ((1 - z)/tau)^(-alpha)
* (1 - z)/tau turns the history of the states into a history of the
increments with weights G_i = tau^(alpha-1) * Gamma_i, where the Gamma_i =
g_0 + .. + g_i are the Taylor coefficients of (1 - z)^(-alpha).
``partial_sums`` makes them by a recurrence with positive factors, one
cumulative product too, so a shorter run's weights are a bitwise prefix of
a longer one's.  A stepper sums the history of its current and previous
chunk of ``CHUNK`` steps directly, with weights G; the older history meets
lags > ``CHUNK`` only, and there it takes Gamma from ``exponentials``, a
short sum of exponentials that turns that history into running sums (the
kernel compression of Baffet & Hesthaven, SIAM J. Numer. Anal. 55 (2017)
496).  The sum depends on alpha and the count alone, its number of terms on
the count alone, and it holds at every lag of a shorter run too.
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


def exponentials(alpha: float, gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rates x_q >= 0 and dimensionless amplitudes c_q with
    Gamma_i = sum_q c_q e^{-(i-CHUNK-1) x_q} to 1e-12 relative for CHUNK < i < count,
    where ``gammas`` holds the first count partial sums Gamma of order alpha
    (``partial_sums``); at alpha = 1, where Gamma_i = 1, one term, x = 0 and
    c = 1.  G_i = tau^(alpha-1) Gamma_i, so a run with step tau scales c by
    tau^(alpha-1), and a shorter run with any step may use the same sum.

    Gamma_i = (sin pi alpha / pi) int_0^inf e^{-ix} (e^x - 1)^(-alpha) dx.  The
    trapezoid rule in u = log x gives the terms down to x_min = 1e-18 / count;
    those below it lie at x = 0 for every lag, and their geometric series is
    one term there.  It stops below x = (log count + 40) / 65: a node beyond,
    with c_q <= (sin pi alpha / pi) h x^(1-alpha) e^{-65 x} and Gamma_{count-1}
    >= count^(alpha-1) / Gamma(alpha), weighs less than 1e-17 Gamma_{count-1}
    at every alpha, so the count alone fixes the number of terms: 24, 35 and
    44 at 129, 2,001 and 20,001 weights, and orders that share a count share
    a march plan.  The terms with x <= 4/count merge into a 12-point Gauss
    rule of their measure in t = count x.  ValueError if the sum misses Gamma
    at about log2(count) lags by more than 1e-12 relative, or than i eps (the
    recurrence's own bound) at i > 4,500."""
    count, lag = gammas.size, CHUNK + 1
    if alpha == 1.0:
        return np.zeros(1), np.ones(1)
    log_eps, x_min = math.log(1e-15), 1e-18 / count
    h = -0.9 * math.pi ** 2 / log_eps
    x = np.exp(np.arange(math.log(x_min), math.log((math.log(count) + 40.0) / lag),
                         h))  # u = log x
    # sin(pi min(alpha, 1 - alpha)): no cancellation in pi alpha near alpha = 1
    s = math.sin(math.pi * min(alpha, 1.0 - alpha)) / math.pi
    c = s * h * x * np.exp(-alpha * np.log(np.expm1(x)) - lag * x)
    x = np.concatenate(([0.0], x))  # the nodes below x_min, x_min e^{-jh} for j >= 1
    c = np.concatenate(([s * h * x_min ** (1.0 - alpha) / math.expm1((1.0 - alpha) * h)], c))
    small = x <= 4.0 / count
    t, w = count * x[small], c[small]
    basis = np.empty((12, t.size))
    basis[0] = np.sqrt(w / w.sum())
    for k in range(1, 12):  # Lanczos on diag(t), with full reorthogonalisation
        v = t * basis[k - 1]
        for _ in range(2):
            v -= basis[:k].T @ (basis[:k] @ v)
        basis[k] = v / np.linalg.norm(v)
    nodes, vectors = np.linalg.eigh(basis * t @ basis.T)  # the Jacobi matrix
    x = np.concatenate((nodes / count, x[~small]))
    c = np.concatenate((w.sum() * vectors[0] ** 2, c[~small]))
    lags = np.unique(np.minimum(lag - 1 + 2 ** np.arange(count.bit_length()), count - 1))
    lags = lags[lags >= lag]
    # Gamma_i carries up to i rounding errors of its recurrence: i eps bounds them
    error = np.abs(np.exp(-np.outer(lags - lag, x)) @ c / gammas[lags] - 1.0)
    if not np.all(error <= np.maximum(1e-12, lags * np.finfo(float).eps)):
        raise ValueError(f"the exponentials miss the CQ weights by {error.max():.3g} "
                         f"relative (alpha={alpha}, count={count})")
    return x, c


def partial_sums(alpha: float, count: int) -> np.ndarray:
    """The partial sums Gamma_0 .. Gamma_{count-1} of the weights g of order
    alpha in (0, 1], the Taylor coefficients of (1 - z)^(-alpha), by the
    recurrence Gamma_0 = 1, Gamma_i = Gamma_{i-1} (i - 1 + alpha) / i; all 1 at
    alpha = 1.  The march's weights, G_i = tau^(alpha-1) Gamma_i for any tau.
    The arguments are not checked: the march has checked them."""
    i = np.arange(1, count)
    return np.cumprod(np.concatenate(([1.0], (i - 1 + alpha) / i)))


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
