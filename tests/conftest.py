"""Shared fixtures: cached coefficient sequences, scaled dense matrices,
and preconditioned spectra, so the expensive builds happen once per run.

Reference data for the published experiment tables lives here too; the
individual test modules and the acceptance suite both draw on it.
"""

import functools
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from dofde import (
    MGM_CASES,
    PrecKind,
    StoppingRule,
    ToeplitzCoeffs,
    ToeplitzOperator,
    assemble_dense,
    build_preconditioner,
    cg_smooth_step,
    coeffs_via_fft,
    dist_order_symbol,
    dst1,
    gauss_seidel_sweep,
    integrate_adaptive,
    limit_symbol,
    lower_bound_constant,
    pcg,
    preconditioned_spectrum,
    prolong,
    restrict,
)
import dofde.cli
from dofde.preconditioners import _frobenius_tau_spectrum
from dofde.symbols import _check_order
from dofde.toeplitz import _corner_slope, _next_pow2


def fold_angle(sigma):
    """sigma folded to its representative in (-pi, pi] modulo 2 pi, by
    the nearest multiple of 2 pi."""
    return sigma - 2.0 * np.pi * np.round(sigma / (2.0 * np.pi))


@functools.lru_cache(maxsize=None)
def coeffs(n):
    return coeffs_via_fft(n)


@functools.lru_cache(maxsize=None)
def scaled_coeffs(n):
    c = coeffs(n)
    return ToeplitzCoeffs(n, c.a / n)


@functools.lru_cache(maxsize=None)
def dense_scaled(n):
    A = assemble_dense(scaled_coeffs(n))
    A.setflags(write=False)
    return A


@functools.lru_cache(maxsize=None)
def dense_unscaled(n):
    A = assemble_dense(coeffs(n))
    A.setflags(write=False)
    return A


def build_prec(kind, n):
    return build_preconditioner(kind, scaled_coeffs(n))


@functools.lru_cache(maxsize=None)
def prec_spectrum(kind, n):
    return preconditioned_spectrum(scaled_coeffs(n), build_prec(kind, n))


def outlier_table(kinds, sizes, eps, coeffs=coeffs_via_fft):
    """The rows of `dofde outliers` for the given kinds, sizes and eps,
    (n, kind, eps, left, right, percent) before formatting, with the
    coefficients coeffs(n) in place of the sampled ones where given."""
    args = SimpleNamespace(sizes=list(sizes), precs=list(kinds), eps=list(eps), coeffs=coeffs)
    return dofde.cli._cmd_outliers(args)[1]


def peak_traced_bytes(fn):
    """(peak, result): the tracemalloc peak in bytes while fn() runs, and
    what fn returned.  The memory guards bound the peak in floats of the
    problem size."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# sampling oracles: the package evaluates the symbol in place and samples
# each doubled grid once, reading the doubling test off the folded tail of
# one rfft; these gather and scatter the nonzero angles, and transform each
# grid in full and compare it with the grid of half the size


def masked_dist_order_symbol(n, theta):
    """The closed form of `dist_order_symbol` on the nonzero |theta| only,
    gathered by a mask and scattered into zeros, with the same operations
    in the same order, so the two agree bit for bit."""
    th = np.abs(np.atleast_1d(np.asarray(theta, dtype=float)))
    out = np.zeros_like(th)
    nz = th > 0.0
    t = th[nz]
    x = n * t
    logx = np.log(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = t**2 * (1.0 - 1.0 / x) / (-np.expm1(-logx / n))
    near_one = np.abs(logx) / n < 1e-6
    if np.any(near_one):
        j = np.arange(n)
        vals[near_one] = t[near_one] ** 2 * np.sum(x[near_one, None] ** (-j / n), axis=1)
    out[nz] = vals
    return out


def two_grid_coeffs(n):
    """(a, m): `coeffs_via_fft`'s coefficients and final sample count by
    two full transforms per test, each grid evaluated through
    `masked_dist_order_symbol` and compared with the one before it: grids
    of s, 2s, ... points from s = max(next_pow2(4n), 2^16) until two
    successive coefficient vectors agree to 1e-10 in max norm, within four
    doublings."""
    samples = max(_next_pow2(4 * n), 1 << 16)
    beta = _corner_slope(n) / (2.0 * np.pi)

    def sampled(m):
        theta = fold_angle(2.0 * np.pi * np.arange(m) / m)
        a = np.fft.rfft(masked_dist_order_symbol(n, theta) - beta * theta**2)[:n].real / m
        k = np.arange(1, n)
        a[0] += beta * np.pi**2 / 3.0
        a[1:] += beta * 2.0 * (-1.0) ** k / k**2
        return a

    prev = sampled(samples)
    for _ in range(4):
        samples *= 2
        cur = sampled(samples)
        if np.max(np.abs(cur - prev)) < 1e-10:
            return cur, samples
        prev = cur
    raise AssertionError("the two-grid oracle did not stabilize")


# ---------------------------------------------------------------------------
# dense transform oracles: the package forms diag(Q A Q) in closed form,
# the parity blocks of Q A Q from the displacement identity and the
# circulant blocks from folded first columns, and transforms vectors
# only; these multiply by the explicit sine and DFT matrices


def sine_matrix(n):
    """The orthonormal DST-I matrix Q_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)),
    with jk reduced modulo 2(n+1) so every sine argument is below 2 pi."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(j, j) % (2 * (n + 1))) / (n + 1))


def dft_matrix(n):
    """The unitary DFT matrix F_jk = exp(-2 pi i jk/n) / sqrt(n), with jk
    reduced modulo n."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * (np.outer(j, j) % n) / n) / np.sqrt(n)


def sine_transform_dense(A):
    """Q A Q for a dense matrix A, with the explicit sine matrix."""
    Q = sine_matrix(A.shape[0])
    return Q @ np.asarray(A, dtype=float) @ Q


def prec_power_dense(P, power):
    """P**power as a dense matrix: F^* diag(lambda**power) F for the
    circulant kinds, Q diag(d**power) Q for the sine kinds, I for the
    identity."""
    if P.kind is PrecKind.IDENTITY:
        return np.eye(P.n)
    d = P.spectrum ** power
    if P.kind in (PrecKind.STRANG_CIRCULANT, PrecKind.FROBENIUS_CIRCULANT):
        F = dft_matrix(P.n)
        return ((F.conj().T * d) @ F).real
    Q = sine_matrix(P.n)
    return (Q * d) @ Q


def explicit_preconditioned(A, P):
    """P^(-1/2) A P^(-1/2) in full, symmetrized."""
    R = prec_power_dense(P, -0.5)
    M = R @ np.asarray(A, dtype=float) @ R
    return 0.5 * (M + M.T)


def flip_blocks_dense(M):
    """The flip-even and flip-odd blocks of a centrosymmetric n x n
    matrix M, taken from its leading ceil(n/2) rows.

    With m = n // 2 and M12 = M[:m, n-m:], the flip-odd eigenvectors
    [x; (0); -Jx] see M11 - M12 J, and the flip-even ones [x; (t); Jx]
    see M11 + M12 J, bordered for odd n by sqrt(2) M[:m, m] and M[m, m].
    The blocks are symmetrized.
    """
    n = M.shape[1]
    m = n // 2
    m11 = M[:m, :m]
    m12j = M[:m, n - m :][:, ::-1]
    odd = m11 - m12j
    if n % 2:
        even = np.empty((m + 1, m + 1))
        even[:m, :m] = m11 + m12j
        even[:m, m] = np.sqrt(2.0) * M[:m, m]
        even[m, :m] = even[:m, m]
        even[m, m] = M[m, m]
    else:
        even = m11 + m12j
    return [0.5 * (b + b.T) for b in (even, odd)]


def flip_blocks_gather(a):
    """Both flip-parity blocks of the symmetric Toeplitz matrix with first
    column a, gathered by index arrays: T11 = a[|i - j|] and
    (T12 J)_ij = a[n-1-i-j], i, j < n // 2, give [T11 + T12 J bordered
    for odd n by sqrt(2) a[m-i] and a[0], T11 - T12 J].  The package
    folds each block from strided views instead (`spectral._flip_block`)
    with the same arithmetic, so the two agree bit for bit."""
    n = len(a)
    m = n // 2
    i = np.arange(m)
    t11 = a[np.abs(i[:, None] - i)]
    t12j = a[n - 1 - i[:, None] - i]
    even, odd = t11 + t12j, t11 - t12j
    if n % 2:
        border = np.sqrt(2.0) * a[m:0:-1]
        even = np.block([[even, border[:, None]], [border[None, :], a[:1, None]]])
    return [even, odd]


def sine_blocks_gather(a):
    """Both parity blocks of B = Q T Q from the displacement identity,
    with index arrays, np.sign and two outer products:
    B_jk = (u^_j q_k - q_j u^_k) / (-2 sign(j - k) half_|j-k| half_(j+k))
    off the diagonal, diag(Q T Q) on it.  The package forms each block
    from strided views of the same tables (`spectral._sine_block`), with
    the same arithmetic, so the two agree bit for bit."""
    n = len(a)
    half = np.sin(np.arange(2 * n + 2) * (0.5 * np.pi / (n + 1)))
    q = np.sqrt(2.0 / (n + 1)) * half[2 : 2 * n + 1 : 2]
    u = np.zeros(n)
    u[: n - 1] = a[1:]
    u_hat = dst1(u)
    diag = _frobenius_tau_spectrum(a)
    blocks = []
    for p in (0, 1):
        j = np.arange(p + 1, n + 1, 2)
        uj, qj = u_hat[j - 1], q[j - 1]
        diff = j[:, None] - j[None, :]
        den = -2.0 * np.sign(diff) * half[np.abs(diff)] * half[j[:, None] + j[None, :]]
        np.fill_diagonal(den, 1.0)
        block = (np.outer(uj, qj) - np.outer(qj, uj)) / den
        np.fill_diagonal(block, diag[j - 1])
        blocks.append(block)
    return blocks


def frobenius_tau_dense(A):
    """diag(Q A Q), the spectrum of the Frobenius-optimal tau matrix of a
    dense symmetric matrix A; ValueError unless A is square symmetric."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or not np.allclose(A, A.T, atol=1e-12 * max(1.0, np.max(np.abs(A)))):
        raise ValueError("A must be square symmetric")
    return np.diag(sine_transform_dense(A)).copy()


# ---------------------------------------------------------------------------
# the accuracy oracle of every printed extreme: the Rayleigh quotient of the
# dense eigenvector with A assembled in long double from the coefficients and
# P from its own double spectrum, densely and without an FFT, where the
# package evaluates its own quotients over the same spectrum by long-double
# FFTs (`spectral._rayleigh_quotients`); each spectrum is checked against its
# coefficients by the dense oracles of test_preconditioners.py

LD = np.longdouble
PI_LD = 4 * np.arctan(LD(1))


def _long_double_energy(P, z):
    """z^T P z in long double for P assembled from P.spectrum d widened to
    long double, with jk reduced before the angle: a sine kind as
    sum_j d_j (Q z)_j^2 over the dense sine table Q, and a circulant as
    (1/n) sum_j d_j |(F z)_j|^2 over the dense cosine and sine tables of
    the DFT F."""
    n = P.n
    if P.kind is PrecKind.IDENTITY:
        return z @ z
    d = P.spectrum.astype(LD)
    if P.kind in (PrecKind.STRANG_CIRCULANT, PrecKind.FROBENIUS_CIRCULANT):
        k = np.arange(n)
        angles = (np.outer(k, k) % n).astype(LD) * (2 * PI_LD / n)
        return d @ ((np.cos(angles) @ z) ** 2 + (np.sin(angles) @ z) ** 2) / n
    j = np.arange(1, n + 1)
    angles = (np.outer(j, j) % (2 * (n + 1))).astype(LD) * (PI_LD / (n + 1))
    return d @ (np.sqrt(LD(2) / (n + 1)) * (np.sin(angles) @ z)) ** 2


def long_double_quotient(c, P, z):
    """z^T A z / z^T P z in long double for a long-double z, with the dense
    symmetric Toeplitz A of c's coefficients and P by
    `_long_double_energy`."""
    a = c.a.astype(LD)
    i = np.arange(c.n)
    return (z @ (a[np.abs(i[:, None] - i)] @ z)) / _long_double_energy(P, z)


def exact_toeplitz_energy(a, z):
    """z^T A z as an exact Fraction, A the symmetric Toeplitz matrix with
    the double first column a, for a nonnegative long-double vector z.

    Each z_i is N_i / 2^s with an integer N_i.  The autocorrelation
    r_k = sum_i N_i N_(i+k) is read off one big-integer product by
    Kronecker substitution: N packed into base-2^(8w) digits, once in
    order and once reversed, with w bytes enough that no digit of the
    product carries, and r_k is digit n - 1 + k.  Then
    z^T A z = (a_0 r_0 + 2 sum_k a_k r_k) / 4^s, summed in Fractions.
    Raises OverflowError for a negative entry."""
    n = len(z)
    ratios = [v.as_integer_ratio() for v in z]
    s = max(den.bit_length() - 1 for _, den in ratios)
    N = [num << (s - den.bit_length() + 1) for num, den in ratios]
    w = (2 * max(N).bit_length() + n.bit_length() + 8) // 8
    forward = int.from_bytes(b"".join(k.to_bytes(w, "little") for k in N), "little")
    backward = int.from_bytes(b"".join(k.to_bytes(w, "little") for k in N[::-1]), "little")
    digits = (forward * backward).to_bytes(2 * n * w, "little")
    r = [int.from_bytes(digits[(n - 1 + k) * w : (n + k) * w], "little") for k in range(n)]
    a = [Fraction(float(v)) for v in a]
    total = a[0] * r[0] + 2 * sum(ak * rk for ak, rk in zip(a[1:], r[1:]))
    return total / (1 << 2 * s)


def rayleigh_oracle(c, P):
    """(lambda_min, lambda_max) of P^(-1) A as the long-double Rayleigh
    quotients z^T A z / z^T P z of the dense eigenvectors z = P^(-1/2) v,
    v the extreme eigenvectors of the explicit P^(-1/2) A P^(-1/2).  Each is
    a one-sided bound whose error is quadratic in v's."""
    R = prec_power_dense(P, -0.5)
    _, V = np.linalg.eigh(explicit_preconditioned(assemble_dense(c), P))
    return tuple(float(long_double_quotient(c, P, (R @ v).astype(LD)))
                 for v in (V[:, 0], V[:, -1]))


# ---------------------------------------------------------------------------
# dense and sparse multigrid oracles: the package coarsens and smooths on
# Toeplitz coefficient vectors; these form the same operators explicitly


def build_restriction(n):
    """Sparse (n-1)/2 x n restriction applying [1, 2, 1] around every
    second fine point; the prolongation is its transpose."""
    if n < 3 or n % 2 == 0:
        raise ValueError("restriction needs an odd size of at least 3")
    m = (n - 1) // 2
    rows = np.repeat(np.arange(m), 3)
    cols = (2 * np.arange(m)[:, None] + np.arange(3)).ravel()
    vals = np.tile([1.0, 2.0, 1.0], m)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def prolong_concatenated(y):
    """R^T y with its even entries formed by concatenation,
    [y, 0] + [0, y], as `multigrid.prolong` once did."""
    z = np.empty(2 * len(y) + 1)
    z[0::2] = np.r_[y, 0.0] + np.r_[0.0, y]
    z[1::2] = 2.0 * y
    return z


def galerkin_dense(A):
    """The dense Galerkin product R A R^T."""
    R = build_restriction(A.shape[0])
    return np.asarray((R @ A) @ R.T)


def gauss_seidel_dense(A, x, b):
    """One forward Gauss-Seidel sweep by dense triangular solve."""
    return x + solve_triangular(np.tril(A), b - A @ x, lower=True)


def cholesky_solve_dense(c, b):
    """T^{-1} b by dense Cholesky of the assembled Toeplitz matrix with
    coefficients c; the package solves its coarsest level from the first
    column alone (`GridLevel.solve`)."""
    return cho_solve(cho_factor(assemble_dense(c)), b)


def one_step_pcg(apply_A, P, b, stop):
    """`pcg` capped at one iteration: a stand-in for a PCG that does not
    converge (the recursive residual falls to exactly zero within pcg's
    10 n cap, so no tolerance alone is out of its reach)."""
    return pcg(apply_A, P, b, stop=StoppingRule(tol=stop.tol, max_iterations=1))


def _x_form_smooth(level, smoother, x, b):
    method, steps = smoother
    if method == "gs":
        return gauss_seidel_sweep(level, x, b, steps)
    return cg_smooth_step(level.matvec, level._preconditioner(PrecKind(method)), x, b, steps)


def x_form_cycle(levels, pairs, b, x):
    """One V-cycle on A x = b from the iterate x, in the form the package
    ran before `multigrid._cycle` became a correction operator: every
    smoother starts from its iterate and the right-hand side, and every
    coarse level from a zero vector."""
    if len(levels) == 1:
        return levels[0].solve(b)
    level, (pre, post) = levels[0], pairs[0]
    x = _x_form_smooth(level, pre, x, b)
    r = restrict(b - level.matvec(x))
    x = x + prolong(x_form_cycle(levels[1:], (pairs[1], pairs[1]), r, np.zeros(r.shape[0])))
    return _x_form_smooth(level, post, x, b)


def x_form_iterates(levels, case, b, cycles):
    """The iterates of `cycles` x-form V-cycles of the MGM_CASES entry
    `case` from zero."""
    x, iterates = np.zeros(b.shape[0]), []
    for _ in range(cycles):
        x = x_form_cycle(levels, MGM_CASES[case], b, x)
        iterates.append(x)
    return iterates


@pytest.fixture
def operator_products(monkeypatch):
    """A one-element list that counts `ToeplitzOperator` products from
    the moment the fixture is set up."""
    count = [0]
    product = ToeplitzOperator.__call__

    def counted(self, x):
        count[0] += 1
        return product(self, x)

    monkeypatch.setattr(ToeplitzOperator, "__call__", counted)
    return count


def laplacian_coeffs(n):
    """Coefficients [2, -1, 0, ...] of the order-n discrete Laplacian."""
    return ToeplitzCoeffs(n, np.concatenate([[2.0, -1.0], np.zeros(n - 2)]))


def nonnegative_symbol_coeffs(n, rng, width=None):
    """Random symmetric Toeplitz coefficients with a nonnegative symbol:
    the autocorrelation of a random p gives |p(e^{i theta})|^2 >= 0
    (Fejer-Riesz), and a positive shift of a_0 makes the matrix SPD."""
    p = rng.standard_normal(width or n)
    a = np.correlate(p, p, mode="full")[p.size - 1:][:n]
    a = np.concatenate([a, np.zeros(n - a.size)])
    a[0] += rng.uniform(1e-3, 1.0) * a[0]
    return ToeplitzCoeffs(n, a)


# ---------------------------------------------------------------------------
# the lemmas behind k2 <= n lambda_1(A_n) <= k1: the package computes the
# constants and the eigenvector normalization, these evaluate the steps of
# the proof that the tests and criteria 7 and 9 check


def laplacian_eigvec_transform(n, theta):
    """psi(theta) = -2/((n+1)^(3/2) sin s) * sum_{j=1}^n sin(js) e^(ij theta),
    s = pi/(n+1), by the direct n-term sum: the transform of the discrete
    Laplacian's first eigenvector, whose mean squared modulus the package
    takes in closed form (`quadrature.norm_constant`)."""
    theta = np.asarray(theta, dtype=float)
    m = n + 1
    s = np.pi / m
    j = np.arange(1, m)
    terms = np.sin(j * s) * np.exp(1j * np.multiply.outer(theta, j))
    return -2.0 / (m**1.5 * np.sin(s)) * terms.sum(axis=-1)


def rescaled_remainder(n, theta):
    """Remainder n*f_n(theta) - g(n|theta|) of the rescaling identity.

    Of size O(n*theta^2 + |theta|) uniformly in n.
    """
    return n * dist_order_symbol(n, theta) - limit_symbol(n * np.abs(theta))


@functools.lru_cache(maxsize=1)
def _mean_limit_symbol():
    # (1/pi) * int_0^pi g; the constant level that g + correction attains
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


# ---------------------------------------------------------------------------
# thirty-digit references for the three bound constants, shared by the
# quadrature tests and acceptance criterion 1

K2_REF = 2.2944573929790779012
K1_REF = 7.3200653934702306162
C_INF_REF = np.pi / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# published reference values (the experiment tables)

TABLE_SIZES = (32, 64, 128, 256, 512, 1024, 2048)


def manufactured_rhs(n):
    """Right-hand side b = A_n x* of the scaled system, x*_j = j/(n+1).

    x* is not flip-symmetric, so b excites both parity classes of the
    eigenvectors of A_n.
    """
    x_star = np.arange(1, n + 1) / (n + 1)
    return ToeplitzOperator(scaled_coeffs(n))(x_star)


# iteration counts: columns identity, strang, frobenius_circulant,
# natural_tau, frobenius_tau, laplacian.
#
# The right-hand side these counts were recorded with is not stated, and
# all-ones does not reproduce them: from ones, CG stays in the flip-even
# half of the eigenbasis and needs about half the unpreconditioned
# iterations (TestRightHandSideParity in test_krylov.py).  Criterion 5
# solves with manufactured_rhs(n) instead.
PCG_TABLE = {
    32: (34, 7, 11, 6, 5, 8),
    64: (73, 8, 14, 5, 5, 9),
    128: (154, 8, 15, 5, 5, 10),
    256: (307, 8, 18, 5, 5, 10),
    512: (593, 8, 22, 5, 5, 11),
    1024: (1095, 8, 27, 5, 5, 11),
    2048: (2112, 8, 34, 5, 5, 12),
}

# circulant extreme eigenvalues: (strang min, max, frobenius min, max)
CIRCULANT_EXTREMES = {
    32: (5.2258e-1, 3.4325e1, 1.7524e-1, 4.1234),
    64: (5.1302e-1, 5.4268e1, 1.1034e-1, 5.6639),
    128: (5.0743e-1, 9.1152e1, 6.6754e-2, 7.8412),
    256: (5.0419e-1, 1.5814e2, 3.9098e-2, 1.0911e1),
    512: (5.0234e-1, 2.8003e2, 2.2338e-2, 1.5232e1),
    1024: (5.0129e-1, 5.0319e2, 1.2526e-2, 2.1315e1),
    2048: (5.0071e-1, 9.1428e2, 6.9259e-3, 2.9876e1),
}

# sine-transform extreme eigenvalues: (natural min, max, frobenius min, max)
TAU_EXTREMES = {
    32: (8.1574e-1, 1.1475, 9.3206e-1, 1.1356),
    64: (8.0608e-1, 1.1527, 9.0938e-1, 1.1463),
    128: (7.9895e-1, 1.1584, 8.8984e-1, 1.1551),
    256: (7.9396e-1, 1.1641, 8.7441e-1, 1.1624),
    512: (7.9063e-1, 1.1693, 8.6271e-1, 1.1685),
    1024: (7.8851e-1, 1.1742, 8.5401e-1, 1.1737),
    2048: (7.8727e-1, 1.1785, 8.4763e-1, 1.1783),
}

# Laplacian-preconditioned extremes (scaled matrix against unscaled stencil)
LAPLACIAN_EXTREMES = {
    32: (3.1941e-1, 5.4802e-1),
    64: (2.6529e-1, 5.3509e-1),
    128: (2.2651e-1, 5.2979e-1),
    256: (1.9750e-1, 5.2727e-1),
    512: (1.7504e-1, 5.2604e-1),
    1024: (1.5713e-1, 5.2543e-1),
    2048: (1.4252e-1, 5.2513e-1),
}

# outlier counts (left, right) at eps 1e-1 and 1e-2
NATURAL_TAU_OUTLIERS = {
    32: ((1, 2), (3, 4)),
    64: ((1, 2), (3, 4)),
    128: ((1, 2), (4, 4)),
    256: ((2, 2), (5, 4)),
    512: ((2, 2), (5, 4)),
    1024: ((2, 2), (5, 4)),
    2048: ((2, 2), (6, 4)),
}

FROBENIUS_TAU_OUTLIERS = {
    32: ((0, 2), (18, 4)),
    64: ((0, 2), (2, 6)),
    128: ((1, 2), (2, 9)),
    256: ((1, 2), (3, 10)),
    512: ((2, 2), (4, 10)),
    1024: ((2, 2), (4, 10)),
    2048: ((2, 2), (4, 10)),
}

MGM_SIZES = (31, 63, 127, 255, 511, 1023, 2047)

# multigrid iteration counts per case (TGM and V-cycle columns coincide)
MGM_TABLE = {
    31: {"alpha": 9, "beta": 4, "gamma": 3, "delta": 2},
    63: {"alpha": 10, "beta": 4, "gamma": 3, "delta": 2},
    127: {"alpha": 11, "beta": 4, "gamma": 3, "delta": 2},
    255: {"alpha": 11, "beta": 4, "gamma": 3, "delta": 2},
    511: {"alpha": 11, "beta": 3, "gamma": 3, "delta": 2},
    1023: {"alpha": 11, "beta": 4, "gamma": 3, "delta": 2},
    2047: {"alpha": 11, "beta": 3, "gamma": 3, "delta": 2},
}
