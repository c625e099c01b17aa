"""What the convolution-quadrature weights look like and why they work.

Run with:  python demos/cq_weights_tour.py
"""

import math

import numpy as np

from expandiff import generate_weights

# the weights d_i = tau^(alpha-1) g_i: g depends on the order alpha alone
alpha, tau = 0.5, 0.01
w = generate_weights(alpha, 2000)

print(f"alpha = {alpha}, tau = {tau}")
print("g[0..6]  =", np.round(w.g[:7], 6))
print("d[0]     =", tau ** (alpha - 1) * w.g[0], " (tau^(alpha-1))")

# All weights after the first are negative and the partial sums decrease
# towards zero like k^(alpha-1)/Gamma(alpha): the scheme forgets the past
# slowly, which is exactly the long-memory character of the fractional
# derivative.  The partial sums are the Taylor coefficients of (1-z)^(-alpha),
# and the solver's march reads them, not g: it steps the increments
# W^n - W^(n-1), whose history weights they are.
for a in (alpha, 0.8):
    partial = np.cumsum(generate_weights(a, 2000).g)
    print(f"\nalpha = {a}: partial sums at k = 1, 10, 100, 1000:",
          [f"{partial[k]:.5f}" for k in (1, 10, 100, 1000)])
    print("      k^(alpha-1)/Gamma(alpha) at same k:",
          [f"{k ** (a - 1) / math.gamma(a):.5f}" for k in (1, 10, 100, 1000)])

# Convolving with the weights of the inverse exponent gives the identity
# sequence: discretized composition of the half-derivative with the
# half-integral.
inv = np.empty(512)
inv[0] = 1.0
for i in range(1, 512):
    inv[i] = inv[i - 1] * (i - alpha) / i
conv = np.convolve(w.g[:512], inv)[:512]
print("\ncomposition with inverse weights: conv[0] =", conv[0],
      " max|conv[1:]| =", np.abs(conv[1:]).max())

# alpha = 1 collapses the history entirely: plain backward Euler.
w1 = generate_weights(1.0, 5)
print("\nalpha = 1 weights:", w1.g)
