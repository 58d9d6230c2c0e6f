"""Treating an arithmetic function on {1..n} as a random variable.

Under the uniform measure on {1..n}, a sequence has a mean, a variance,
an empirical CDF, and lag correlations.  This script reads those off for
mu and lambda and checks how fast the lag correlations shrink.
"""

import numpy as np

from summatoria import (
    empirical_cdf,
    independence_estimator,
    ks_distance,
    liouville_sequence,
    mobius_sequence,
)

N = 10**6
mu = mobius_sequence(N + 10)
lam = liouville_sequence(N + 10)

# --- means and variances over growing windows --------------------------
print("window n      mean(mu)      var(mu)    mean(lambda)")
for n in (10**2, 10**4, 10**6):
    values_mu = mu.values(1, n).astype(np.float64)
    mean_mu, var_mu = values_mu.mean(), values_mu.var()
    mean_lam = lam.values(1, n).astype(np.float64).mean()
    print(f"{n:>8,}  {mean_mu:>12.6f}  {var_mu:>10.6f}  {mean_lam:>13.6f}")
print()
print("mean(mu, n) * n is the exact integer M(n); the variance tends to")
print("6/pi^2 =", 6 / np.pi**2, "(the density of squarefree integers).")
print()

# --- the value distribution itself is three-valued, nowhere near normal
sample = mu.values(1, 10**4).astype(np.float64)
dist = empirical_cdf(sample)
print(f"KS distance of the mu value distribution to a fitted normal: "
      f"{ks_distance(dist):.3f}  (discrete {{-1, 0, +1}} data, so the large",
      "distance is expected)")
print()

# --- lag correlations: evidence that distant terms decouple ------------
print("rho(n, h) = mean(f(k) f(k+h)) - mean f(k) * mean f(k+h)")
print("           n      h=1          h=2          h=5          h=10")
for n in (10**3, 10**4, 10**5, 10**6):
    row = [independence_estimator(mu, n, h) for h in (1, 2, 5, 10)]
    print(f"  mu {n:>8,}  " + "  ".join(f"{r:>+11.2e}" for r in row))
for n in (10**3, 10**4, 10**5, 10**6):
    row = [independence_estimator(lam, n, h) for h in (1, 2, 5, 10)]
    print(f"  la {n:>8,}  " + "  ".join(f"{r:>+11.2e}" for r in row))
print()
print("Both families drift toward 0 as n grows, at every lag shown.")
