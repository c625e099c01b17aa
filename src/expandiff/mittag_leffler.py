"""Mittag-Leffler function E_alpha(z) on the negative real axis, and the
closed-form single-mode solution of the constant-coefficient problem.

For 0 < alpha < 1 and x > 0, E_alpha(-x) is a cancellation-free integral
(Gorenflo, Loutchko & Luchko, FCAA 5 (2002) 491; Garrappa, SIAM J. Numer.
Anal. 53 (2015) 1350) of a probability density p against a decaying factor:

    E_alpha(-x) = int_0^inf exp(-(u x)^(1/alpha)) p(u) du,
    p(u) = sin(alpha pi) / (pi alpha ((u - a)^2 + sin(alpha pi)^2)),  a = -cos(alpha pi).

It is one trapezoidal sum on double-exponential nodes phi = (pi/2) sinh(t),
t = k/64, built at import.  For alpha <= 1/2, log u = beta phi - log x with
|t| <= 9: an exp-sinh sweep centred on the cut-off u = 1/x, contracted by
beta = min(1, 10 alpha) to resolve the cut-off's width alpha in log u.  For
alpha > 1/2, p peaks at u = a with width sin(alpha pi), so the nodes with
|t| <= 4 serve each side of the peak: u - a = sin(alpha pi) exp(phi) above
it, and u = a r / (1 + r), r = (a / sin(alpha pi)) exp(2 phi), below it.
Below x = 1e-6 the two-term power series, exact there to rounding, is used.
What depends on alpha alone is computed once per alpha and kept, read-only,
for the next call of the same alpha: for alpha <= 1/2, beta, cos(alpha pi),
beta phi and exp(-exp(beta phi / alpha)); for alpha > 1/2, the log-nodes
log(a + sin(alpha pi) exp(phi)) above the peak and log a - log1p(1/r) below
it, and the weights below it.  A call then forms only what depends on x.
Against 45-digit references the absolute error is below 1e-15 for alpha in
[1e-3, 1) and x in [1e-9, 1e8]; every z <= 0 yields a value in [0, 1].
Below alpha = 1e-3 the contracted sweep no longer resolves p (at 1e-6 it
returns 0.0116 for E(-0.3) = 0.769), so such alpha raise ValueError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fem1d import require_count

_T = np.arange(-576, 577) / 64.0
_PHI = 0.5 * np.pi * np.sinh(_T)
_W = np.pi / 128.0 * np.cosh(_T)            # trapezoidal weights h dphi/dt
_NEAR = np.abs(_T) <= 4.0
_W_NEAR = _W[_NEAR]
_EXP_PHI = np.exp(_PHI[_NEAR])
_W_ABOVE = _W_NEAR / (2.0 * np.cosh(_PHI[_NEAR]))   # p(u) du pi alpha above a
_SERIES_BELOW = 1e-6
_ALPHA_MIN = 1e-3  # the least alpha the sweep resolves; see the module docstring


def _decay(log_ux, alpha: float) -> np.ndarray:
    """exp(-(u x)^(1/alpha)) from log(u x); the power is capped where the factor is 0."""
    return np.exp(-np.exp(np.minimum(log_ux / alpha, 700.0)))


@functools.lru_cache(maxsize=1)
def _sweep(alpha: float) -> tuple:
    """The parts of the sweep that depend on ``alpha`` alone, its arrays
    read-only: for alpha <= 1/2, beta sin(alpha pi), 2 cos(alpha pi), beta
    phi and its decay factor; for alpha > 1/2, the log-nodes log u, first
    the ``_W_ABOVE.size`` above a, then as many below it, and the weights
    below a."""
    sin, cos = math.sin(math.pi * alpha), math.cos(math.pi * alpha)
    if alpha <= 0.5:
        beta = min(1.0, 10.0 * alpha)
        beta_phi = beta * _PHI
        parts = beta * sin, 2.0 * cos, beta_phi, _decay(beta_phi, alpha)
    else:
        a = -cos
        rho = a / sin
        r = rho * _EXP_PHI ** 2
        # p(u) du pi alpha = 2 rho r / (rho^2 + (1 + r)^2) dphi below a
        parts = (np.concatenate([np.log(a + sin * _EXP_PHI), math.log(a) - np.log1p(1.0 / r)]),
                 _W_NEAR * 2.0 * rho * r / (rho * rho + (1.0 + r) ** 2))
    for part in parts:
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return parts


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) for 1e-3 <= alpha <= 1 and real z <= 0 (z = -inf gives 0)."""
    if isinstance(alpha, (bool, np.bool_)) or not _ALPHA_MIN <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [{_ALPHA_MIN:g}, 1] for the closed form, got {alpha}")
    z = float(z)
    if not z <= 0.0:
        raise ValueError(f"z must be <= 0, got {z}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    x = -z
    if x < _SERIES_BELOW:
        return 1.0 - x / math.gamma(1.0 + alpha) + x * x / math.gamma(1.0 + 2.0 * alpha)

    log_x = math.log(x)
    if alpha <= 0.5:
        scale, two_cos, beta_phi, decay = _sweep(alpha)
        e = np.exp(-np.abs(beta_phi - log_x))
        # u p(u) pi alpha / sin(alpha pi) = 1 / (u + 2 cos(alpha pi) + 1/u)
        density = e / (1.0 + e * (two_cos + e))
        total = scale * np.dot(_W * density, decay)
    else:
        nodes, below = _sweep(alpha)
        decay = _decay(nodes + log_x, alpha)
        total = np.dot(_W_ABOVE, decay[:_W_ABOVE.size]) + np.dot(below, decay[_W_ABOVE.size:])
    return float(total / (math.pi * alpha))


def exact_solution(alpha: float, kappa: float, mode: int, x, t: float):
    """Single-mode solution of the constant-diffusivity homogeneous problem.

    For a nonnegative number ``kappa``, initial datum sin(mode*pi*x) and zero
    source the solution is E_alpha(-kappa (mode*pi)^2 t^alpha) * sin(mode*pi*x).
    ValueError, naming it, for alpha outside ``mittag_leffler``'s [1e-3, 1] and
    for a NaN, negative or boolean ``kappa`` or ``t``; an infinite
    one gives 0.0, E_alpha(-inf), unless the other is 0.  NaN in ``x`` propagates.
    """
    if isinstance(kappa, (bool, np.bool_)) or not float(kappa) >= 0.0:
        raise ValueError(f"kappa must be a nonnegative diffusivity, got {kappa}")
    if isinstance(t, (bool, np.bool_)) or not float(t) >= 0.0:
        raise ValueError(f"t must be a nonnegative time, got {t}")
    kappa, t = float(kappa), float(t)
    j = require_count(mode, 1, "mode")
    z = -kappa * (j * np.pi) ** 2 * t ** alpha if kappa and t else 0.0
    return mittag_leffler(alpha, z) * np.sin(j * np.pi * np.asarray(x, dtype=float))
