"""Adaptive quadrature and the spectral bound constants.

The integration engine is a batched Gauss-Kronrod 7/15 bisection scheme:
each refinement round evaluates every pending interval in one vectorized
call, locally accepts intervals whose error share is small, and stops as
soon as the global error estimate drops under the requested tolerance.
Improper integrals are truncated with dyadic blocks driven by analytic
tail majorants.

On top of the engine sit three constants of the minimal-eigenvalue
analysis: the lower and upper bound constants and the limiting
eigenvector normalization constant.  Each returns a QuadResult (value,
error estimate, integrand evaluations).  The finite-n normalization
constants need no quadrature: Parseval gives them in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import _check_order, limit_symbol

__all__ = [
    "QuadResult",
    "QuadratureConvergenceError",
    "integrate_adaptive",
    "lower_bound_constant",
    "upper_bound_constant",
    "norm_constant_limit",
    "norm_constant",
]

# Gauss-Kronrod 7/15 pair on [-1, 1]: Kronrod abscissae (positive half),
# Kronrod weights, and the embedded 7-point Gauss weights.
_XGK = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK = np.array([
    0.0229353220105292,
    0.0630920926299785,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
])

# full 15-node layout, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK15 = np.concatenate([_WGK[:-1], _WGK[::-1]])
# positions of the embedded Gauss nodes within _NODES
_GIDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG7 = np.concatenate([_WG[:-1], _WG[::-1]])

_INTERVAL_BUDGET = 1 << 20
_MAX_ROUNDS = 64
_PATCH_RADIUS = 1e-6


class QuadratureConvergenceError(RuntimeError):
    """The adaptive scheme could not meet the tolerance within budget."""


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate, and cost of one quadrature computation."""

    value: float
    abs_error_estimate: float
    evaluations: int

    def __add__(self, other):
        """The result over the union of two disjoint pieces: each field
        summed, self's first."""
        return QuadResult(self.value + other.value,
                          self.abs_error_estimate + other.abs_error_estimate,
                          self.evaluations + other.evaluations)


def integrate_adaptive(f, a, b, tol=1e-10):
    """Integrate a vectorized real function f over [a, b] to absolute
    tolerance tol, which must be positive and finite (else ValueError).

    f must accept an ndarray of abscissae and return values of the same
    shape, finite everywhere on (a, b).  Raises
    QuadratureConvergenceError when the interval budget (2^20) is
    exhausted before the error estimate falls under tol.

    The estimate |K15 - G7| does not see rounding in the abscissae, so a
    fast-oscillating integrand such as f(theta) cos(k theta) must be
    integrated in a local variable on each panel (`coeff_oracle`).
    """
    a = float(a)
    b = float(b)
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ValueError("need finite a < b")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if not np.isfinite(tol):
        raise ValueError("tol must be finite")

    span = b - a
    lo = np.array([a])
    hi = np.array([b])
    value = 0.0
    err_done = 0.0
    evals = 0
    created = 1

    for _ in range(_MAX_ROUNDS):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * _NODES
        fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        evals += x.size
        if not np.all(np.isfinite(fx)):
            raise QuadratureConvergenceError("integrand returned a non-finite value")

        v15 = half * (fx @ _WK15)
        v7 = half * (fx[:, _GIDX] @ _WG7)
        err = np.abs(v15 - v7)

        total = err_done + float(err.sum())
        width = hi - lo
        settled = (
            (err <= 0.5 * tol * width / span)
            | (err <= 1e-16 * np.abs(v15))
            | (width <= 1e-14 * span)
        )
        if total <= tol or bool(settled.all()):
            return QuadResult(value + float(v15.sum()), total, evals)

        value += float(v15[settled].sum())
        err_done += float(err[settled].sum())
        active = ~settled
        lo = np.concatenate([lo[active], mid[active]])
        hi = np.concatenate([mid[active], hi[active]])
        created += lo.size
        if created > _INTERVAL_BUDGET:
            raise QuadratureConvergenceError(
                f"interval budget {_INTERVAL_BUDGET} exhausted at error {total:.3e}"
            )

    raise QuadratureConvergenceError("bisection depth exceeded")


def _integrate_dyadic_tail(f, start, block_tol, tail_bound, tail_target):
    """Sum adaptive integrals over dyadic blocks [U, 2U] from `start`
    until `tail_bound(U)` (a majorant for the remaining |integral|)
    drops under `tail_target`, within 64 doublings.  The QuadResult's
    error estimate includes that majorant."""
    total = QuadResult(0.0, 0.0, 0)
    upper = float(start)
    for j in range(64):
        bound = tail_bound(upper)
        if bound <= tail_target:
            return total + QuadResult(0.0, bound, 0)
        total += integrate_adaptive(f, upper, 2.0 * upper, tol=block_tol * 0.5 ** (j + 1))
        upper *= 2.0
    raise QuadratureConvergenceError("tail truncation did not converge")


def _check_tol(tol):
    if not 1e-12 <= tol < np.inf:
        raise ValueError("tol must be finite and at least 1e-12")


def _window(u):
    """cos(u/2)^2 / (u^2 - pi^2)^2, the spectral window weight, written
    through sin((u-pi)/2) so the double zero cancels the double pole.

    Finite everywhere, value 1/(16 pi^2) at u = pi.
    """
    u = np.asarray(u, dtype=float)
    d = u - np.pi
    ratio = np.empty_like(d)
    near = np.abs(d) < _PATCH_RADIUS
    ratio[near] = 0.5 * (1.0 - d[near] ** 2 / 24.0)
    dn = d[~near]
    ratio[~near] = np.sin(dn / 2.0) / dn
    return (ratio / (u + np.pi)) ** 2


def lower_bound_constant(tol=1e-8):
    """Lower bound constant k2 = (1/pi) * int_0^pi (s^2 - s)/log(s) ds.

    n * lambda_min of the order-n system matrix stays above this value.
    Returns a QuadResult.
    """
    _check_tol(tol)
    res = integrate_adaptive(limit_symbol, 0.0, np.pi, tol=tol * np.pi / 2.0)
    return QuadResult(res.value / np.pi, res.abs_error_estimate / np.pi, res.evaluations)


def norm_constant_limit(tol=1e-8):
    """Limiting eigenvector normalization constant
    c = ((16/pi) * int_0^inf cos(u/2)^2/(u^2-pi^2)^2 du)^(-1/2),
    as a QuadResult."""
    _check_tol(tol)
    # error in c is about c/(2I) ~ 28 times the error in the integral
    tol_i = tol / 30.0
    head = integrate_adaptive(_window, 0.0, 4.0 * np.pi, tol=tol_i / 2.0)

    def tail_bound(upper):
        return (1.0 - (np.pi / upper) ** 2) ** -2 / (3.0 * upper**3)

    integral = head + _integrate_dyadic_tail(
        _window, 4.0 * np.pi, tol_i / 4.0, tail_bound, tol_i / 4.0
    )
    c = (16.0 / np.pi * integral.value) ** -0.5
    err_c = c / (2.0 * integral.value) * integral.abs_error_estimate
    return QuadResult(c, err_c, integral.evaluations)


def upper_bound_constant(tol=1e-8):
    """Upper bound constant k1: the ratio

        int_0^inf (u^2-u)/log(u) * cos(u/2)^2/(u^2-pi^2)^2 du
        -----------------------------------------------------
        int_0^pi          cos(u/2)^2/(u^2-pi^2)^2 du

    n * lambda_min of the order-n system matrix stays below this value;
    returned as a QuadResult.  The slowly decaying numerator tail,
    O(1/(u^2 log u)), is split into its mean and oscillating halves via
    cos(u/2)^2 = (1 + cos u)/2; the mean half is truncated with an
    integral majorant, the oscillating half with a Dirichlet-type bound.
    """
    _check_tol(tol)

    def numer(u):
        return limit_symbol(u) * _window(u)

    denom = integrate_adaptive(_window, 0.0, np.pi, tol=tol * 2e-3)
    tol_n = tol * denom.value / 2.0

    cut = 16.0 * np.pi
    head = integrate_adaptive(numer, 0.0, cut, tol=tol_n / 4.0)

    def _phi(u):
        # numerator envelope (u^2-u)/((u^2-pi^2)^2 log u), no oscillation
        u = np.asarray(u, dtype=float)
        return (u**2 - u) / ((u**2 - np.pi**2) ** 2 * np.log(u))

    def mean_half(u):
        return 0.5 * _phi(u)

    def mean_tail_bound(upper):
        return 0.5 * (1.0 - (np.pi / upper) ** 2) ** -2 / (upper * np.log(upper))

    def osc_half(u):
        return 0.5 * _phi(u) * np.cos(u)

    def osc_tail_bound(upper):
        # |int_U^inf phi cos| <= 2 phi(U) for decreasing phi
        return float(_phi(np.array([upper]))[0])

    numerator = (
        head
        + _integrate_dyadic_tail(mean_half, cut, tol_n / 8.0, mean_tail_bound, tol_n / 4.0)
        + _integrate_dyadic_tail(osc_half, cut, tol_n / 8.0, osc_tail_bound, tol_n / 4.0)
    )
    k1 = numerator.value / denom.value
    err_k1 = (numerator.abs_error_estimate + abs(k1) * denom.abs_error_estimate) / denom.value
    return QuadResult(k1, err_k1, denom.evaluations + numerator.evaluations)


def norm_constant(n):
    """Finite-n eigenvector normalization constant
    c_n = ((1/pi) * int_0^pi |psi(theta)|^2 dtheta)^(-1/2) for the
    transform psi(theta) = -2/((n+1)^(3/2) sin s) * sum_{j=1}^n
    sin(js) e^(ij theta), s = pi/(n+1), of the discrete Laplacian's first
    eigenvector; converges to norm_constant_limit as n grows.

    |psi|^2 is even, so by Parseval its mean over [0, pi] is the sum of
    psi's squared coefficients, 4/((n+1)^3 sin^2 s) * sum_j sin^2(js)
    = 2/((n+1)^2 sin^2 s); hence c_n = (n+1) sin(s)/sqrt(2) exactly.
    Raises ValueError unless n is an integer >= 2, as 3.0 is.
    """
    n = _check_order(n)
    return (n + 1) * np.sin(np.pi / (n + 1)) / np.sqrt(2.0)
