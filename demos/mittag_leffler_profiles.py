"""Mittag-Leffler decay profiles E_alpha(-x) and their sanity identities.

Run with:  python demos/mittag_leffler_profiles.py
Writes mittag_leffler.png when matplotlib is importable.
"""

import math

import numpy as np

from expandiff import mittag_leffler


def erfcx(x):
    """exp(x^2) erfc(x), the closed form of E_1/2(-x)."""
    return math.exp(x * x) * math.erfc(x)


print("identities:")
print("  E_1(-1)      =", mittag_leffler(1.0, -1.0), " vs exp(-1) =", math.exp(-1))
print("  E_1/2(-1)    =", mittag_leffler(0.5, -1.0), " vs erfcx(1) =", erfcx(1.0))
print("  E_1/2(-pi^2) =", mittag_leffler(0.5, -np.pi ** 2),
      " vs erfcx(pi^2) =", erfcx(np.pi ** 2))

# The smaller the order, the heavier the tail: exponential decay for
# alpha = 1 versus algebraic decay ~ 1/(x Gamma(1-alpha)) otherwise.
xs = np.linspace(0.0, 30.0, 61)
profiles = {}
for alpha in (0.3, 0.5, 0.7, 1.0):
    profiles[alpha] = np.array([mittag_leffler(alpha, -x) for x in xs])

print("\nE_alpha(-x) at x = 5, 15, 30:")
for alpha, vals in profiles.items():
    print(f"  alpha={alpha}: {vals[10]:.5f}  {vals[30]:.5f}  {vals[60]:.5f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for alpha, vals in profiles.items():
        ax.semilogy(xs, vals, label=f"alpha = {alpha}")
    ax.set_xlabel("x")
    ax.set_ylabel("E_alpha(-x)")
    ax.set_title("Mittag-Leffler relaxation profiles")
    ax.legend()
    ax.grid(True, which="both", linewidth=0.4, alpha=0.5)
    fig.tight_layout()
    fig.savefig("mittag_leffler.png", dpi=150)
    print("\nsaved mittag_leffler.png")
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
