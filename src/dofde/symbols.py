"""Scalar symbol functions of the distributed-order discretization.

Every function here is a pure, vectorized map on angles or rescaled
angles: the generating symbol of the stiffness matrix and its rescaled
limit.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "dist_order_symbol",
    "limit_symbol",
]

# Relative log-distance from n*|theta| = 1 below which the geometric
# closed form of dist_order_symbol loses digits to 0/0 cancellation and
# the direct n-term sum is used instead.
_CLOSED_FORM_GUARD = 1e-6


def _check_angle(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) > np.pi):
        raise ValueError("theta must lie in [-pi, pi]")
    return theta


def _check_order(n, least=2):
    """n as an int where it is an integral real number >= least, so 3.0 is
    kept as 3; anything else, NaN included, raises ValueError."""
    integral = isinstance(n, numbers.Integral) or (isinstance(n, numbers.Real)
                                                   and float(n).is_integer())
    if not (integral and n >= least):
        raise ValueError(f"matrix order n must be an integer >= {least}, got {n}")
    return int(n)


def dist_order_symbol(n, theta):
    """Generating symbol f of the order-n distributed-order stiffness matrix.

    f(theta) = theta^2 * sum_{j=0}^{n-1} (n|theta|)^(-j/n), evaluated
    through the geometric closed form
        theta^2 * (1 - 1/x) / (1 - x^(-1/n)),   x = n|theta|,
    with f(0) = 0 by continuity, also at subnormal |theta|, and
    f = n*theta^2 at x = 1.  Even and nonnegative on [-pi, pi].

    Accepts scalar or array theta; returns a matching shape.
    """
    n = _check_order(n)
    theta = _check_angle(theta)
    scalar = theta.ndim == 0
    th = np.abs(np.atleast_1d(theta))
    x = n * th
    # theta = 0 passes through 0/0, and a subnormal |theta| overflows 1/x
    # (f < 1.5|theta| there): both are set to 0 at the end
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logx = np.log(x)
        # 1 - x^(-1/n) computed as -expm1(-log(x)/n) to keep small exponents exact
        out = th**2 * (1.0 - 1.0 / x) / (-np.expm1(-logx / n))

    near_one = np.abs(logx) / n < _CLOSED_FORM_GUARD
    if np.any(near_one):
        j = np.arange(n)
        xg = x[near_one, None]
        out[near_one] = th[near_one] ** 2 * np.sum(xg ** (-j / n), axis=1)

    out[th < np.finfo(float).tiny] = 0.0
    return float(out[0]) if scalar else out.reshape(theta.shape)


def limit_symbol(sigma):
    """Pointwise limit g of the rescaled symbols: g(s) = (s^2 - s)/log(s).

    Continuously extended with g(0) = 0 and g(1) = 1; strictly increasing
    on [0, inf).  The log is evaluated as log1p(s - 1) so the removable
    point s = 1 costs no accuracy nearby.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0.0):
        raise ValueError("sigma must be nonnegative")
    scalar = sigma.ndim == 0
    s = np.atleast_1d(sigma).astype(float)
    out = np.zeros_like(s)
    out[s == 1.0] = 1.0

    reg = (s > 0.0) & (s != 1.0)
    sr = s[reg]
    out[reg] = sr * (sr - 1.0) / np.log1p(sr - 1.0)
    return float(out[0]) if scalar else out.reshape(sigma.shape)
