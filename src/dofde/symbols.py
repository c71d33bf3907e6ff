"""Scalar symbol functions of the distributed-order discretization.

Every function here is a pure, vectorized map on angles or rescaled
angles: the generating symbol of the stiffness matrix, its rescaled
limit, the remainder between the two, the discrete Laplacian symbol,
the Laplacian eigenfunction transform, and the periodic correction that
enters the minimal-eigenvalue lower bound.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "SingularityError",
    "dist_order_symbol",
    "limit_symbol",
    "rescaled_remainder",
    "laplacian_symbol",
    "laplacian_eigenfunction",
    "bound_correction",
    "bound_correction_coeffs",
    "fold_angle",
]

# Relative log-distance from n*|theta| = 1 below which the geometric
# closed form of dist_order_symbol loses digits to 0/0 cancellation and
# the direct n-term sum is used instead.
_CLOSED_FORM_GUARD = 1e-6

# Exclusion radius around the removable poles of laplacian_eigenfunction.
_POLE_GUARD = 1e-8


class SingularityError(ValueError):
    """Evaluation requested too close to a removable singularity."""


def _check_angle(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta) > np.pi):
        raise ValueError("theta must lie in [-pi, pi]")
    return theta


def _check_order(n):
    if int(n) != n or n < 2:
        raise ValueError("matrix order n must be an integer >= 2")
    return int(n)


def dist_order_symbol(n, theta):
    """Generating symbol f of the order-n distributed-order stiffness matrix.

    f(theta) = theta^2 * sum_{j=0}^{n-1} (n|theta|)^(-j/n), evaluated
    through the geometric closed form
        theta^2 * (1 - 1/x) / (1 - x^(-1/n)),   x = n|theta|,
    with f(0) = 0 by continuity and f = n*theta^2 at x = 1.  Even and
    nonnegative on [-pi, pi].

    Accepts scalar or array theta; returns a matching shape.
    """
    n = _check_order(n)
    theta = _check_angle(theta)
    scalar = theta.ndim == 0
    th = np.abs(np.atleast_1d(theta))
    out = np.zeros_like(th)

    nz = th > 0.0
    t = th[nz]
    x = n * t
    logx = np.log(x)
    # 1 - x^(-1/n) computed as -expm1(-log(x)/n) to keep small exponents exact
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = t**2 * (1.0 - 1.0 / x) / (-np.expm1(-logx / n))

    near_one = np.abs(logx) / n < _CLOSED_FORM_GUARD
    if np.any(near_one):
        j = np.arange(n)
        xg = x[near_one, None]
        vals[near_one] = t[near_one] ** 2 * np.sum(xg ** (-j / n), axis=1)

    out[nz] = vals
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


def rescaled_remainder(n, theta):
    """Remainder n*f_n(theta) - g(n|theta|) of the rescaling identity.

    Of size O(n*theta^2 + |theta|) uniformly in n.
    """
    n = _check_order(n)
    theta = _check_angle(theta)
    return n * dist_order_symbol(n, theta) - limit_symbol(n * np.abs(theta))


def laplacian_symbol(theta):
    """Symbol 4*sin(theta/2)^2 of the 1D discrete Laplacian, in [0, 4]."""
    theta = _check_angle(theta)
    return 4.0 * np.sin(theta / 2.0) ** 2


def laplacian_eigenfunction(n, theta):
    """Frequency-domain form of the discrete Laplacian's first eigenvector.

    With s = pi/(n+1),

        exp(i(n+1)theta/2) / (n+1)^(3/2)
        * cos((n+1)theta/2) / (sin((theta-s)/2) * sin((theta+s)/2)).

    The poles at theta = +-s are removable only inside integrals, so
    evaluation within 1e-8 of them raises SingularityError.  Returns a
    complex value; its modulus is even in theta.
    """
    n = _check_order(n)
    theta = _check_angle(theta)
    s = np.pi / (n + 1)
    if np.any(np.abs(np.abs(theta) - s) < _POLE_GUARD):
        raise SingularityError(
            f"theta within {_POLE_GUARD:g} of the removable poles +-pi/(n+1)"
        )
    m = (n + 1) * theta / 2.0
    return (
        np.exp(1j * m)
        / (n + 1) ** 1.5
        * np.cos(m)
        / (np.sin((theta - s) / 2.0) * np.sin((theta + s) / 2.0))
    )


def fold_angle(sigma):
    """Fold sigma to its representative in (-pi, pi] modulo 2*pi.

    Round-to-nearest multiple of 2*pi; the half-integer ties fall on
    +-pi where the functions folded here are continuous, so the
    tie-breaking direction is inert.
    """
    sigma = np.asarray(sigma, dtype=float)
    folded = sigma - 2.0 * np.pi * np.round(sigma / (2.0 * np.pi))
    return folded if folded.ndim else float(folded)


@functools.lru_cache(maxsize=1)
def _mean_limit_symbol():
    # (1/pi) * int_0^pi g; the constant level that g + correction attains
    from .quadrature import lower_bound_constant

    return lower_bound_constant(tol=1e-12).value


def bound_correction(sigma):
    """Periodic correction p(sigma) = k2 - g(|fold(sigma)|).

    2*pi-periodic and even, with g + p identically equal to the constant
    k2 = (1/pi) * int_0^pi g on [-pi, pi] and g + p >= k2 elsewhere.
    Its mean over a period is zero.
    """
    k2 = _mean_limit_symbol()
    return k2 - limit_symbol(np.abs(fold_angle(sigma)))


def bound_correction_coeffs(n, kmax):
    """Cosine-Fourier coefficients of theta -> p(n*theta) up to frequency kmax.

    Returns (1/pi) * int_0^pi p(n*theta) cos(k*theta) dtheta for
    k = 0..kmax, each integral to absolute tolerance 1e-10.  For kmax < n
    every coefficient vanishes: the folded map only carries frequencies
    that are multiples of n, which is what makes the Toeplitz matrix of
    p(n|theta|) the zero matrix.
    """
    from .quadrature import integrate_adaptive

    n = _check_order(n)
    kmax = int(kmax)
    if kmax >= n:
        raise ValueError("kmax must be smaller than n")

    # p(n*theta) has corner points where n*theta is an odd multiple of pi;
    # integrating piecewise between them keeps the quadrature clean.
    breaks = [m * np.pi / n for m in range(1, n + 1, 2) if m * np.pi / n < np.pi]
    edges = np.concatenate(([0.0], breaks, [np.pi]))

    coeffs = np.empty(kmax + 1)
    for k in range(kmax + 1):
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            piece = integrate_adaptive(
                lambda th: bound_correction(n * th) * np.cos(k * th),
                lo,
                hi,
                tol=1e-10 / len(edges),
            )
            total += piece.value
        coeffs[k] = total / np.pi
    return coeffs
