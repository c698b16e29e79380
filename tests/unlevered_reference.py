"""The unlevered three-term price in 50-digit mpmath, for the tests' oracles.

Closed-form cumulative normals (``mp.ncdf``), not quadrature.  The interior
difference is taken on the upper tails when x1 >= 0: at 50 digits,
Phi(x2) - Phi(x1) with both near 1 would cancel below the working precision
once x1 passes ~15.
"""

from mpmath import mp, mpf


def _price(sigma, r, s0, s, t, T):
    sigma, r, s0, s, t, T = map(mpf, (sigma, r, s0, s, t, T))
    tau = T - t
    z = (mp.log(s / s0) - (r - sigma**2 / 2) * t) / (sigma * mp.sqrt(t))
    a = -z * mp.sqrt(t / tau)
    x1 = -z * mp.sqrt(T / tau)
    x2 = x1 + sigma * mp.sqrt(t * T / tau)
    c = mp.sqrt(T / t) * mp.exp(r * t + z * z / 2)
    interior = (mp.ncdf(-x1) - mp.ncdf(-x2)) if x1 >= 0 else (mp.ncdf(x2) - mp.ncdf(x1))
    return (mp.exp(r * t) * mp.ncdf(a) + c * interior
            + s / s0 * mp.ncdf(-a - sigma * t / mp.sqrt(tau)))


def mp_log_unlevered_price(sigma, r, s0, s, t, T) -> float:
    """log P(S, t) for one asset, 0 < t < T."""
    with mp.workdps(50):
        return float(mp.log(_price(sigma, r, s0, s, t, T)))


def mp_unlevered_fraction(sigma, r, s0, s, t, T) -> float:
    """S (dP/dS) / P by mpmath's numerical differentiation."""
    with mp.workdps(50):
        s = mpf(s)
        slope = mp.diff(lambda x: _price(sigma, r, s0, x, t, T), s)
        return float(s * slope / _price(sigma, r, s0, s, t, T))
