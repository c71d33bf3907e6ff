"""Eigenvalue machinery for the bound checks and the spectrum tables.

Dense symmetric spectra are the authoritative path for every tabulated
quantity.  Preconditioned spectra are those of P^(-1/2) A P^(-1/2),
which shares eigenvalues with P^(-1) A.

Every matrix whose spectrum is tabulated is symmetric Toeplitz, so it
commutes with the flip J, and so do the circulant and sine-transform
preconditioners.  Each eigenproblem therefore splits into a flip-even
and a flip-odd block of half the order (Cantoni and Butler, Linear
Algebra Appl. 13, 1976), which are solved separately and merged.  The
blocks of a symmetric Toeplitz matrix fold straight from its first
column, and on centrosymmetric matrices the fold is an algebra
homomorphism: the blocks of a product are the products of the blocks.

A symmetric circulant is itself symmetric Toeplitz, so for the circulant
kinds P^(-1/2), whose first column is the inverse DFT of lambda^(-1/2),
folds like A does, and each block of P^(-1/2) A P^(-1/2) is the product
S A S of the folded blocks (Strang's and T. Chan's optimal circulant,
SIAM J. Sci. Stat. Comput. 9, 1988, are both symmetric).

A sine-domain preconditioner Q diag(d) Q is handled in its transform
domain, where P^(-1/2) A P^(-1/2) is orthogonally similar to
D^(-1/2) (Q A Q) D^(-1/2) and the sine vectors alternate in parity.
B = Q A Q is never transformed densely: with H = tridiag(1, 0, 1),
Q H Q = diag(2 cos(j theta)) and the displacement H A - A H has rank
four, so every off-diagonal entry of B is a Cauchy-like quotient of
O(n) generators (Bini and Capovani, Linear Algebra Appl. 52/53, 1983;
Gohberg, Kailath and Olshevsky, Math. Comp. 64, 1995), and its
diagonal is the Frobenius-tau closed form.  Each parity block then
costs O(n^2) to form, and only its eigensolve is dense.  No spectrum
assembles the n x n matrix A or transforms a matrix, every transform is
a real rfft of a vector, and the dense routes survive as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .preconditioners import _SINE, PrecKind, _frobenius_tau_spectrum
from .toeplitz import ToeplitzCoeffs, coeffs_via_fft
from .transforms import _circulant_transform, dst1

__all__ = [
    "SpectrumReport",
    "OutlierReport",
    "dense_sym_eigs",
    "min_eig_normalized",
    "preconditioned_spectrum",
    "preconditioned_spectra",
    "count_outliers",
]

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


def _flip_blocks(a):
    """The flip-even and flip-odd blocks of the symmetric Toeplitz matrix
    T with first column a, folded from a alone.

    With m = n // 2, T11 = a[|i - j|] and (T12 J)_ij = a[n-1-i-j] for
    i, j < m, the flip-odd eigenvectors [x; (0); -Jx] see T11 - T12 J,
    and the flip-even ones [x; (t); Jx] see T11 + T12 J, bordered for
    odd n by sqrt(2) a[m-i] and a[0].  Both blocks are exactly
    symmetric.
    """
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
    w = np.sort(np.concatenate(list(map(np.linalg.eigvalsh, blocks))))
    return SpectrumReport(w, float(w[0]), float(w[-1]))


def dense_sym_eigs(A):
    """Full spectrum of a symmetric matrix, sorted ascending.

    Householder tridiagonalization plus the implicitly shifted
    tridiagonal QL/QR iteration, as provided by LAPACK's symmetric
    driver; non-convergence surfaces as LinAlgError.
    """
    return _merged_spectrum([_check_symmetric(A)])


def min_eig_normalized(n):
    """n times the smallest eigenvalue of the order-n stiffness matrix,
    computed by dense eigensolves of its two flip-parity blocks, which
    are folded from the coefficient vector."""
    if n < 4:
        raise ValueError("n must be at least 4")
    return n * _merged_spectrum(_flip_blocks(coeffs_via_fft(n).a)).lambda_min


def preconditioned_spectra(c, precs):
    """Spectra of P^(-1/2) A P^(-1/2), one per P in precs, for the
    symmetric Toeplitz matrix A with coefficients c (ToeplitzCoeffs).

    Sine-domain kinds share the two parity blocks of B = Q A Q, built
    from c without a dense transform: for P = Q diag(d) Q the spectrum
    is that of D^(-1/2) B D^(-1/2), whose even- and odd-indexed rows and
    columns form the two blocks.  The identity and the circulant kinds
    share the parity blocks of A, folded from c; a circulant's blocks
    are S A S with S the folded blocks of the symmetric circulant
    P^(-1/2), whose first column is the inverse DFT of lambda^(-1/2).
    Raises TypeError unless c is ToeplitzCoeffs and ValueError when a
    preconditioner has the wrong order.
    """
    if not isinstance(c, ToeplitzCoeffs):
        raise TypeError("preconditioned_spectra takes ToeplitzCoeffs")
    # each family (sine-domain or not) shares A's blocks until its last
    # kind; a circulant's products S A S come one per eigensolve (mapped
    # by _merged_spectrum), so no two of them are alive at once
    shared = {}
    last = {P.kind in _SINE: i for i, P in enumerate(precs)}
    reports = []
    for i, P in enumerate(precs):
        if P.n != c.n:
            raise ValueError("preconditioner order must match the matrix")
        sine = P.kind in _SINE
        if sine not in shared:
            shared[sine] = (_sine_blocks if sine else _flip_blocks)(c.a)
        blocks = shared[sine] if i < last[sine] else shared.pop(sine)
        if sine:
            s = 1.0 / np.sqrt(P.spectrum)
            blocks = [s[p::2, None] * b * s[None, p::2] for p, b in enumerate(blocks)]
        elif P.kind is not PrecKind.IDENTITY:
            s = _circulant_transform(1.0 / np.sqrt(P.spectrum)) / c.n
            blocks = (S @ b @ S for S, b in zip(_flip_blocks(s), blocks))
        reports.append(_merged_spectrum(blocks))
        # free this kind's blocks before the next kind forms its own
        del blocks
    return reports


def preconditioned_spectrum(c, P):
    """Spectrum of P^(-1/2) A P^(-1/2), which matches that of P^(-1) A,
    for A with Toeplitz coefficients c; the one-preconditioner case of
    preconditioned_spectra."""
    return preconditioned_spectra(c, [P])[0]


def count_outliers(s, eps):
    """Count eigenvalues at or outside the open interval (1-eps, 1+eps);
    percent is relative to the matrix order."""
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    w = s.eigenvalues
    left = int(np.count_nonzero(w <= 1.0 - eps))
    right = int(np.count_nonzero(w >= 1.0 + eps))
    return OutlierReport(left, right, 100.0 * (left + right) / w.shape[0])
