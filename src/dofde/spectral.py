"""Eigenvalue machinery for the bound checks and the spectrum tables.

Dense symmetric spectra are the authoritative path for every tabulated
quantity; a fully reorthogonalized Lanczos sweep is available as a
matrix-free cross-check of the extremes.  Preconditioned spectra are
those of P^(-1/2) A P^(-1/2), which shares eigenvalues with P^(-1) A.

Every matrix whose spectrum is tabulated is symmetric Toeplitz, so it
commutes with the flip J, and so do the circulant and sine-transform
preconditioners.  Each eigenproblem therefore splits into a flip-even
and a flip-odd block of half the order (Cantoni and Butler, Linear
Algebra Appl. 13, 1976), which are solved separately and merged.  The
blocks of the Toeplitz matrix itself fold straight from its first
column.

A sine-domain preconditioner Q diag(d) Q is handled in its transform
domain, where P^(-1/2) A P^(-1/2) is orthogonally similar to
D^(-1/2) (Q A Q) D^(-1/2) and the sine vectors alternate in parity.
B = Q A Q is never transformed densely: with H = tridiag(1, 0, 1),
Q H Q = diag(2 cos(j theta)) and the displacement H A - A H has rank
four, so every off-diagonal entry of B is a Cauchy-like quotient of
O(n) generators (Bini and Capovani, Linear Algebra Appl. 52/53, 1983;
Gohberg, Kailath and Olshevsky, Math. Comp. 64, 1995), and its
diagonal is the Frobenius-tau closed form.  Each parity block then
costs O(n^2) to form, and only its eigensolve is dense.  The dense
sine-transform pair dst1(dst1(A)) survives as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .preconditioners import _SINE, PrecKind, _frobenius_tau_spectrum, apply_inverse_sqrt
from .toeplitz import ToeplitzCoeffs, assemble_dense, coeffs_via_fft
from .transforms import dst1

__all__ = [
    "SpectrumReport",
    "OutlierReport",
    "dense_sym_eigs",
    "lanczos_extremes",
    "min_eig_normalized",
    "preconditioned_spectrum",
    "preconditioned_spectra",
    "count_outliers",
]

_LANCZOS_SEED = 20090213
_SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class SpectrumReport:
    """Ascending eigenvalues with the extremes broken out."""

    eigenvalues: np.ndarray = field(repr=False)
    lambda_min: float
    lambda_max: float


@dataclass(frozen=True)
class OutlierReport:
    """Eigenvalues outside (1-eps, 1+eps), split by side."""

    n_out_left: int
    n_out_right: int
    percent: float


def _check_symmetric(A):
    """A as a float array; raises ValueError unless it is square and
    symmetric."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(A).max() or 1.0
    if np.abs(A - A.T).max() > _SYMMETRY_RTOL * scale:
        raise ValueError("matrix must be symmetric")
    return A


def _flip_blocks(M):
    """The flip-even and flip-odd blocks of a centrosymmetric n x n
    matrix, given its leading ceil(n/2) rows M (or all of it).

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


def _toeplitz_flip_blocks(a):
    """The flip-parity blocks of the symmetric Toeplitz matrix with first
    column a, folded from its leading ceil(n/2) rows a[|i - j|]."""
    n = len(a)
    rows = np.arange(n - n // 2)
    return _flip_blocks(a[np.abs(rows[:, None] - np.arange(n))])


def _sine_blocks(a):
    """The even- and odd-indexed principal blocks of B = Q T Q for the
    symmetric Toeplitz matrix T with first column a, in O(n^2).

    With theta = pi/(n+1), H = tridiag(1, 0, 1), u_k = a_k for k = 1..n
    (a_n := 0), q = Q e_1 and u^ = Q u,
    H T - T H = u e_1^T - e_1 u^T + (J u) e_n^T - e_n (J u)^T, and
    Q J = diag((-1)^(j+1)) Q, so for j = k (mod 2), j != k,
    B_jk = (u^_j q_k - q_j u^_k) / (-2 sin((j+k) theta/2) sin((j-k) theta/2)),
    while B is zero across parities.  Both sines come from one table of
    sin(m theta/2), which avoids the cancellation of
    cos(j theta) - cos(k theta); the diagonal is diag(Q T Q) in closed
    form.  Numerator and denominator are antisymmetric to the last bit,
    so each block is exactly symmetric.
    """
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


def _merged_spectrum(blocks):
    w = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
    return SpectrumReport(w, float(w[0]), float(w[-1]))


def dense_sym_eigs(A):
    """Full spectrum of a symmetric matrix, sorted ascending.

    Householder tridiagonalization plus the implicitly shifted
    tridiagonal QL/QR iteration, as provided by LAPACK's symmetric
    driver; non-convergence surfaces as LinAlgError.
    """
    A = _check_symmetric(A)
    w = np.linalg.eigvalsh(A)
    return SpectrumReport(w, float(w[0]), float(w[-1]))


def lanczos_extremes(apply_A, n, iters):
    """Ritz estimates (lambda_min_est, lambda_max_est) after `iters`
    Lanczos steps with full reorthogonalization and a fixed seeded
    start vector.  Early breakdown (an invariant subspace was hit)
    returns the Ritz values found so far.  For ill-conditioned input
    the minimum estimate is an upper bound on the true minimum.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if iters < 1:
        raise ValueError("iters must be positive")
    iters = min(iters, n)

    rng = np.random.default_rng(_LANCZOS_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)

    basis = np.empty((iters, n))
    basis[0] = v
    alphas = []
    betas = []
    scale = None
    for j in range(iters):
        w = np.asarray(apply_A(basis[j]), dtype=float)
        alpha = float(basis[j] @ w)
        alphas.append(alpha)
        if scale is None:
            scale = max(abs(alpha), 1.0)
        w -= alpha * basis[j]
        if j > 0:
            w -= betas[-1] * basis[j - 1]
        # full reorthogonalization against every stored vector
        active = basis[: j + 1]
        w -= active.T @ (active @ w)
        beta = np.linalg.norm(w)
        if j == iters - 1:
            break
        if beta <= 1e-12 * scale:
            break
        betas.append(beta)
        basis[j + 1] = w / beta

    ritz = eigh_tridiagonal(np.array(alphas), np.array(betas),
                            eigvals_only=True)
    return float(ritz[0]), float(ritz[-1])


def min_eig_normalized(n, stabilization_tol=1e-10):
    """n times the smallest eigenvalue of the order-n stiffness matrix,
    computed by dense eigensolves of its two flip-parity blocks, which
    are folded from the coefficient vector."""
    if n < 4:
        raise ValueError("n must be at least 4")
    c = coeffs_via_fft(n, stabilization_tol=stabilization_tol)
    return n * _merged_spectrum(_toeplitz_flip_blocks(c.a)).lambda_min


def preconditioned_spectra(c, precs):
    """Spectra of P^(-1/2) A P^(-1/2), one per P in precs, for the
    symmetric Toeplitz matrix A with coefficients c (ToeplitzCoeffs).

    Sine-domain kinds share the two parity blocks of B = Q A Q, built
    from c without a dense transform: for P = Q diag(d) Q the spectrum
    is that of D^(-1/2) B D^(-1/2), whose even- and odd-indexed rows and
    columns form the two blocks.  The identity folds the parity blocks
    of A from c.  Only circulant kinds assemble A: they form the leading
    ceil(n/2) columns of M = P^(-1/2) A P^(-1/2) by transforms and fold
    them into the parity blocks.  Raises TypeError unless c is
    ToeplitzCoeffs and ValueError when a preconditioner has the wrong
    order.
    """
    if not isinstance(c, ToeplitzCoeffs):
        raise TypeError("preconditioned_spectra takes ToeplitzCoeffs")
    n = c.n
    sine_blocks = A = None
    reports = []
    for P in precs:
        if P.n != n:
            raise ValueError("preconditioner order must match the matrix")
        if P.kind in _SINE:
            if sine_blocks is None:
                sine_blocks = _sine_blocks(c.a)
            s = 1.0 / np.sqrt(P.spectrum)
            blocks = [s[p::2, None] * b * s[None, p::2] for p, b in enumerate(sine_blocks)]
        elif P.kind is PrecKind.IDENTITY:
            blocks = _toeplitz_flip_blocks(c.a)
        else:
            if A is None:
                A = assemble_dense(c)
            half = apply_inverse_sqrt(P, A)
            # M is symmetric, so its leading columns are its leading rows
            blocks = _flip_blocks(apply_inverse_sqrt(P, half[: n - n // 2].T).T)
        reports.append(_merged_spectrum(blocks))
    return reports


def preconditioned_spectrum(c, P):
    """Spectrum of P^(-1/2) A P^(-1/2), which matches that of P^(-1) A,
    for A with Toeplitz coefficients c; the one-preconditioner case of
    preconditioned_spectra."""
    return preconditioned_spectra(c, [P])[0]


def count_outliers(s, eps):
    """Count eigenvalues at or outside the open interval (1-eps, 1+eps);
    percent is relative to the matrix order."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    w = s.eigenvalues
    left = int(np.count_nonzero(w <= 1.0 - eps))
    right = int(np.count_nonzero(w >= 1.0 + eps))
    return OutlierReport(left, right, 100.0 * (left + right) / w.shape[0])
