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
Against 45-digit references the absolute error is below 1e-15 for alpha in
[1e-3, 1) and x in [1e-9, 1e8]; every z <= 0 yields a value in [0, 1].
"""

from __future__ import annotations

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


def _decay(log_ux, alpha: float) -> np.ndarray:
    """exp(-(u x)^(1/alpha)) from log(u x); the power is capped where the factor is 0."""
    return np.exp(-np.exp(np.minimum(log_ux / alpha, 700.0)))


def mittag_leffler(alpha: float, z: float) -> float:
    """E_alpha(z) for 0 < alpha <= 1 and real z <= 0 (z = -inf gives 0)."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    z = float(z)
    if not z <= 0.0:
        raise ValueError(f"argument must be <= 0, got {z}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    x = -z
    if x < _SERIES_BELOW:
        return 1.0 - x / math.gamma(1.0 + alpha) + x * x / math.gamma(1.0 + 2.0 * alpha)

    log_x = math.log(x)
    sin, cos = math.sin(math.pi * alpha), math.cos(math.pi * alpha)
    if alpha <= 0.5:
        beta = min(1.0, 10.0 * alpha)
        e = np.exp(-np.abs(beta * _PHI - log_x))
        # u p(u) pi alpha / sin(alpha pi) = 1 / (u + 2 cos(alpha pi) + 1/u)
        density = e / (1.0 + e * (2.0 * cos + e))
        total = beta * sin * np.dot(_W * density, _decay(beta * _PHI, alpha))
    else:
        a = -cos
        above = np.dot(_W_ABOVE, _decay(np.log(a + sin * _EXP_PHI) + log_x, alpha))
        rho = a / sin
        r = rho * _EXP_PHI ** 2
        # p(u) du pi alpha = 2 rho r / (rho^2 + (1 + r)^2) dphi below a
        below = np.dot(_W_NEAR * 2.0 * rho * r / (rho * rho + (1.0 + r) ** 2),
                       _decay(math.log(a) - np.log1p(1.0 / r) + log_x, alpha))
        total = above + below
    return float(total / (math.pi * alpha))


def exact_solution(alpha: float, kappa: float, mode: int, x, t: float):
    """Single-mode solution of the constant-diffusivity homogeneous problem.

    For a nonnegative number ``kappa``, initial datum sin(mode*pi*x) and zero
    source the solution is E_alpha(-kappa (mode*pi)^2 t^alpha) * sin(mode*pi*x).
    """
    kappa = float(kappa)
    if kappa < 0.0:
        raise ValueError(f"diffusivity must be nonnegative, got {kappa}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    j = require_count(mode, 1, "mode")
    lam = (j * np.pi) ** 2
    amp = mittag_leffler(alpha, -kappa * lam * t ** alpha)
    return amp * np.sin(j * np.pi * np.asarray(x, dtype=float))
