"""Toeplitz realization of the distributed-order operator.

Fourier coefficients of the generating symbol (each doubled grid
sampled once, chunk by chunk, through one rfft, whose folded tail is the
change since the grid of half the size; plus an independent quadrature
oracle), dense assembly, and `_product`, the one cached rfft convolution
behind every O(n log n) Toeplitz product: the matvec by circulant
embedding here, the triangular products of `_gohberg_semencul`'s inverse
and, with a Hankel term, the tau kinds' inverses, each checking its
operand in `_convolution`; `_circulant_product`, the circulants' inverse
and square roots on the same convolution, at order n when n is a power
of two; and beside them `_series_reciprocal`, the Newton reciprocal
behind multigrid's tril(T)^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symbols import dist_order_symbol
from .transforms import _circulant_transform

__all__ = [
    "ToeplitzCoeffs",
    "CoeffStabilizationError",
    "coeffs_via_fft",
    "coeff_oracle",
    "assemble_dense",
    "ToeplitzOperator",
]

_DOUBLING_BUDGET = 4
_STABILIZATION_TOL = 1e-10
_MIN_SAMPLES = 1 << 16
_SAMPLE_CHUNK = 1 << 14
_ORACLE_TOL = 1e-10


class CoeffStabilizationError(RuntimeError):
    """Coefficient vectors failed to stabilize within the doubling budget."""


@dataclass(frozen=True)
class ToeplitzCoeffs:
    """First n cosine-Fourier coefficients of an even periodic symbol.

    a[k] = (1/2pi) * int_{-pi}^{pi} f(theta) exp(-i k theta) dtheta,
    real because f is even.  Entry (i, j) of the induced symmetric
    Toeplitz matrix is a[|i - j|].  Raises ValueError unless n >= 1 and
    a holds n finite entries.
    """

    n: int
    a: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        a = np.array(self.a, dtype=float)
        if a.shape != (self.n,):
            raise ValueError("coefficient vector must have length n")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        a.setflags(write=False)


def _next_pow2(m):
    p = 1
    while p < m:
        p *= 2
    return p


def _corner_slope(n):
    """d/dtheta of the distributed-order symbol at theta = pi.

    The even 2pi-periodic continuation of the symbol has a corner at pi
    whose one-sided slope this is; f = theta^2 * G(theta) with
    G = (1 - 1/x)/(1 - x^(-1/n)), x = n*theta.
    """
    th = np.pi
    x = n * th
    y = 1.0 / x
    z = x ** (-1.0 / n)
    g = (1.0 - y) / (1.0 - z)
    gp = ((y / th) * (1.0 - z) - (1.0 - y) * z / (n * th)) / (1.0 - z) ** 2
    return 2.0 * th * g + th**2 * gp


def coeffs_via_fft(n):
    """Fourier coefficients of the order-n symbol by uniform sampling + FFT.

    Samples the symbol on a uniform grid of m points of [0, 2pi), takes
    one real FFT X and keeps X_k / m, k < n.  The m/2 even samples are
    the grid of half the size, whose transform is (X_k + conj X_(m/2-k))/2
    (Cooley and Tukey's decimation in time), so the change of the
    coefficients since that grid is the folded tail -Re X_(m/2-k) / m.
    Once it is below 1e-10 in max norm the coefficients are returned;
    otherwise m doubles (budget: 4 grids, each a doubling of the grid its
    tail compares with, then CoeffStabilizationError).
    Each grid point is evaluated once: the m samples fill one
    preallocated array, _SAMPLE_CHUNK at a time, and are dropped after
    the rfft, so the working memory is that array and the rfft's m/2 + 1
    outputs.

    The periodic continuation of the symbol has a corner at theta = pi
    that would cap plain-sampling accuracy near 1e-6; the matched
    parabola slope*theta^2/(2pi) is subtracted before sampling and its
    analytic coefficients are added back, which removes that corner from
    the sampled function entirely.

    Sampling starts at twice the next power of two >= max(4n, 2^16), so
    the first grid's tail already verifies stabilization.
    """
    if n < 1:
        raise ValueError("n must be positive")
    m = 2 * max(_next_pow2(4 * n), _MIN_SAMPLES)
    beta = _corner_slope(n) / (2.0 * np.pi)
    k = np.arange(1, n)
    corner = np.r_[beta * np.pi**2 / 3.0, beta * 2.0 * (-1.0) ** k / k**2]
    for _ in range(_DOUBLING_BUDGET):
        vals = np.empty(m)
        for start in range(0, m, _SAMPLE_CHUNK):
            j = np.arange(start, min(start + _SAMPLE_CHUNK, m))
            theta = 2.0 * np.pi * j / m
            theta[j > m // 2] -= 2.0 * np.pi
            vals[start : start + _SAMPLE_CHUNK] = dist_order_symbol(n, theta) - beta * theta**2
        spec = np.fft.rfft(vals)
        del vals
        # X_k and the folded tail X_(m/2-k), k < n; the rest is dropped
        spec = np.r_[spec[:n], spec[m // 2 - n + 1 : m // 2 + 1]]
        if np.max(np.abs(spec.imag)) > 1e-12 * max(1.0, np.max(np.abs(spec.real))):
            raise CoeffStabilizationError("sampled symbol is not even")
        if np.max(np.abs(spec.real[n:])) / m < _STABILIZATION_TOL:
            return ToeplitzCoeffs(n=n, a=spec.real[:n] / m + corner)
        m *= 2
    raise CoeffStabilizationError(
        f"coefficients did not stabilize to {_STABILIZATION_TOL:g} "
        f"within {_DOUBLING_BUDGET} doublings"
    )


def coeff_oracle(n, k):
    """Independent k-th coefficient: (1/pi) * int_0^pi f(theta) cos(k theta) dtheta
    by adaptive quadrature.  Slow; exists to cross-check coeffs_via_fft."""
    from .quadrature import integrate_adaptive

    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    res = integrate_adaptive(lambda th: dist_order_symbol(n, th) * np.cos(k * th),
                             0.0, np.pi, tol=_ORACLE_TOL)
    return res.value / np.pi


def assemble_dense(c):
    """Dense symmetric Toeplitz matrix with entries a[|i - j|]."""
    idx = np.arange(c.n)
    return c.a[np.abs(idx[:, None] - idx[None, :])]


def _product(col, n, hankel=None):
    """x -> (col circularly convolved with x at m)[:n], m the least power
    of two >= 2n, rfft(col, m) cached; L(col) x when len(col) <= n.  It
    raises ValueError unless x converts to a float vector of length n.

    With hankel (length <= 2n - 1), adds H x, H_ij = hankel[i + j]: the
    correlation of hankel with x, whose transform is rfft(hankel, m)
    times conj(rfft(x, m)), so the sum still costs one rfft/irfft pair.
    """
    m = _next_pow2(2 * n)
    spectrum = np.fft.rfft(col, m)
    reflected = None if hankel is None else np.fft.rfft(hankel, m)
    return _convolution(spectrum, m, n, reflected)


def _convolution(spectrum, m, n, reflected=None):
    """x -> irfft(spectrum * rfft(x, m) [+ reflected * conj rfft(x, m)],
    m)[:n] for the cached rfft-domain kernels of a circulant of order m,
    one rfft/irfft pair per product.  Raises ValueError unless x converts
    to a float vector of length n."""

    def apply(x):
        x = np.asarray(x, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"operand must be a vector of length {n}, got shape {x.shape}")
        if reflected is None:
            return np.fft.irfft(spectrum * np.fft.rfft(x, m), m)[:n]
        f = np.fft.rfft(x, m)
        return np.fft.irfft(spectrum * f + reflected * f.conj(), m)[:n]

    return apply


def _gohberg_semencul(x):
    """r -> T^{-1} r for the symmetric Toeplitz matrix T with T x = e_1 and
    x_0 != 0, by the formula T^{-1} = (L(x) L(x)^T - L(y) L(y)^T)/x_0 of
    Gohberg and Semencul (1972; Trench, J. SIAM 12, 1964), with
    y = [0, x_{n-1}, ..., x_1] and L(v) the lower-triangular Toeplitz matrix
    with first column v: four `_product` convolutions per solve, with
    L(v)^T r = J L(v) J r.  Multigrid's exact coarse solve and the spectral
    layer's inverse Lanczos runs apply it."""
    n = len(x)
    x0, lx, ly = x[0], _product(x, n), _product(np.r_[0.0, x[:0:-1]], n)

    def solve(r):
        return (lx(lx(r[::-1])[::-1]) - ly(ly(r[::-1])[::-1])) / x0

    return solve


def _quadratic_form(a, z):
    """z^T T z for the symmetric Toeplitz matrix T with first column a, in
    the float type of a and z (long double for the Rayleigh quotients of
    the spectral layer): a_0 r_0 + 2 sum_k a_k r_k over the autocorrelation
    r_k = sum_i z_i z_(i+k), which is one rfft/irfft pair at the least
    power of two >= 2n."""
    n = len(z)
    m = _next_pow2(2 * n)
    f = np.fft.rfft(z, m)
    r = np.fft.irfft(f.real**2 + f.imag**2, m)[:n]
    return a[0] * r[0] + 2 * (a[1:] @ r[1:])


def _series_reciprocal(a):
    """First len(a) coefficients of 1/a(z), a(z) = sum_k a_k z^k.

    Newton's iteration g <- g - g (a g - 1) doubles the correct terms
    per step: with g exact to m terms, only the terms m..m2-1 (h) of
    a g - 1 are formed, m2 = min(2m, n), and the new terms are -(g h)[:m2 - m].
    Both products share rfft(g, L), L the least power of two >= m2: the
    wrap-around of a g lands below index m, which is discarded.
    """
    n = len(a)
    g = np.array([1.0 / a[0]])
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        L = _next_pow2(m2)
        G = np.fft.rfft(g, L)
        h = np.fft.irfft(np.fft.rfft(a[:m2], L) * G, L)[m:m2]
        g = np.concatenate([g, -np.fft.irfft(G * np.fft.rfft(h, L), L)[: m2 - m]])
        m = m2
    return g


def _symmetric_product(a, hankel=None):
    """`_product` of the symmetric Toeplitz matrix with first column a
    (plus the Hankel term, if given): a embedded in a circulant of order
    m >= 2n, a power of two."""
    n = len(a)
    m = _next_pow2(2 * n)
    col = np.zeros(m)
    col[:n] = a
    col[m - n + 1 :] = a[:0:-1]
    return _product(col, n, hankel)


def _circulant_product(w):
    """x -> C x for the symmetric circulant C of order n = len(w) with
    the even eigenvalues w (w_j = w_(n-j)), run by `_convolution` at the
    least power of two m at which C is the leading n x n block of an
    order-m circulant.  At n = 2^k that is C itself: m = n and the first
    n/2 + 1 eigenvalues are the rfft-domain kernel, so the build
    transforms nothing and a product costs two transforms of length n
    (R. Chan and Ng, SIAM Rev. 38, 1996).  Any other n embeds C's first
    column, _circulant_transform(w) / n, at m >= 2n."""
    n = len(w)
    if n & (n - 1):
        return _symmetric_product(_circulant_transform(w) / n)
    return _convolution(w[: n // 2 + 1], n, n)


class ToeplitzOperator:
    """O(n log n) symmetric Toeplitz matvec: the first column embedded
    in a circulant of order m >= 2n, a power of two, run by `_product`,
    so each product (Krylov loops) costs one rfft/irfft pair of length m.
    Unlike a circulant, a general Toeplitz matrix of order n is the
    leading block only of circulants of order >= 2n - 1, so m is 2n even
    at n = 2^k."""

    def __init__(self, c):
        self.n = c.n
        self._product = _symmetric_product(c.a)

    def __call__(self, x):
        return self._product(x)
