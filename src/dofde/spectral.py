"""Eigenvalue machinery for the bound checks and the spectrum tables.

Preconditioned spectra are those of P^(-1/2) A P^(-1/2), which shares
eigenvalues with P^(-1) A.  Two routes compute them.

`lanczos_extremes` finds only the two extremes, matrix-free: Lanczos
with full reorthogonalization on x -> P^(-1/2) A P^(-1/2) x, each
product one Toeplitz matvec between two P^(-1/2) convolutions, started
from a fixed random vector with components in both flip parities, so
both ends come from one Krylov space.  It stops once both extreme Ritz
values have residual bounds beta_k |s_k| <= 1e-10 |theta| (Parlett, The
Symmetric Eigenvalue Problem, 1980, ch. 13), or when the space is the
whole of R^n, and gives up after a fixed step budget; the Laplacian's
densely packed lower end is the case that runs out.  The `spectrum`
table takes its extremes from it.

`preconditioned_spectrum` computes every eigenvalue densely.  It is the
route where the whole spectrum is the point (outlier counts, the
identity's lower end that `min_eig_normalized` reads), the fallback of
every extreme Lanczos does not certify, and the oracle the Lanczos
route is tested against.

Every matrix whose spectrum is tabulated is symmetric Toeplitz, so it
commutes with the flip J, and so do the circulant and sine-transform
preconditioners.  Each eigenproblem therefore splits into a flip-even
and a flip-odd block of half the order (Cantoni and Butler, Linear
Algebra Appl. 13, 1976), which are solved separately and merged.  The
blocks of a symmetric Toeplitz matrix fold straight from its first
column, and on centrosymmetric matrices the fold is an algebra
homomorphism: the blocks of a product are the products of the blocks.

A symmetric circulant is itself symmetric Toeplitz, so for the circulant
kinds P^(-1/2), whose first column is `apply_inverse_sqrt(P, e_1)`,
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

The two flip parities run one after the other.  Each forms its block of
A (or of Q A Q) from strided Toeplitz and Hankel views of O(n) tables,
with no index arrays, then multiplies it (or scales it in place) and
takes its eigenvalues; only those cross to the other parity, where the
two halves are merged.  So at most three n^2/4 arrays are alive at once
(a circulant's S, A's block and S A), two for a sine kind and one for
the identity, whose spectrum `min_eig_normalized` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .preconditioners import (_SINE, PrecKind, _algebra_product, _frobenius_tau_spectrum,
                              apply_inverse_sqrt, build_identity)
from .toeplitz import ToeplitzCoeffs, ToeplitzOperator
from .transforms import dst1

__all__ = [
    "SpectrumReport",
    "RitzExtremes",
    "dense_sym_eigs",
    "lanczos_extremes",
    "min_eig_normalized",
    "preconditioned_spectrum",
]

_SYMMETRY_RTOL = 1e-10
# Lanczos: the most steps before an extreme falls back to the dense
# route, and the relative residual bound that certifies a Ritz value
_LANCZOS_STEPS = 96
_RITZ_RTOL = 1e-10


@dataclass(frozen=True)
class SpectrumReport:
    """Ascending eigenvalues, whose ends are the extremes; anything but a
    non-empty ascending vector, NaN included, raises ValueError."""

    eigenvalues: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=float)
        if w.ndim != 1 or w.size == 0 or np.isnan(w).any() or np.any(w[1:] < w[:-1]):
            raise ValueError("eigenvalues must be a non-empty ascending vector")
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)

    @property
    def lambda_min(self):
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class RitzExtremes:
    """The extreme Ritz values of a Lanczos run that certified them, the
    number of steps it took, and the two residual bounds beta_k |s_k|,
    lambda_min's first: each at most 1e-10 of its value, relative, unless
    the run took all n steps."""

    lambda_min: float
    lambda_max: float
    steps: int
    residual_bounds: tuple


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


def _toeplitz_view(c, m):
    """The m x m Toeplitz view T_ij = c[m - 1 + i - j] of a vector c with
    at least 2m - 1 entries, without a copy."""
    return np.lib.stride_tricks.sliding_window_view(c, m)[:m, ::-1]


def _hankel_view(c, m):
    """The m x m Hankel view H_ij = c[i + j] of a vector c with at least
    2m - 1 entries, without a copy."""
    return np.lib.stride_tricks.sliding_window_view(c, m)[:m]


def _flip_block(a, p):
    """The flip-even (p = 0) or flip-odd (p = 1) block of the symmetric
    Toeplitz matrix T with first column a, folded from a alone.

    With m = n // 2, T11 = a[|i - j|] and (T12 J)_ij = a[n-1-i-j] for
    i, j < m, the flip-odd eigenvectors [x; (0); -Jx] see T11 - T12 J,
    and the flip-even ones [x; (t); Jx] see T11 + T12 J, bordered for
    odd n by sqrt(2) a[m-i] and a[0].  T11 and T12 J are strided views
    of a, so the block is the only n^2/4 array formed, and it is exactly
    symmetric.
    """
    n = len(a)
    m = n // 2
    t11 = _toeplitz_view(np.r_[a[m - 1 : 0 : -1], a[:m]], m)
    t12j = _hankel_view(a[::-1], m)
    if p:
        return t11 - t12j
    block = np.empty((n - m, n - m))
    np.add(t11, t12j, out=block[:m, :m])
    if n % 2:
        block[m, :m] = block[:m, m] = np.sqrt(2.0) * a[m:0:-1]
        block[m, m] = a[0]
    return block


def _sine_generators(a):
    """The O(n) generators of B = Q T Q for the symmetric Toeplitz matrix
    T with first column a, which `_sine_block` expands one parity at a
    time: the table half_m = sin(m theta/2), q = Q e_1, u^ = Q u and
    diag(B).

    With theta = pi/(n+1), H = tridiag(1, 0, 1), u_k = a_k for k = 1..n
    (a_n := 0), H T - T H = u e_1^T - e_1 u^T + (J u) e_n^T - e_n (J u)^T,
    and Q J = diag((-1)^(j+1)) Q, so for j = k (mod 2), j != k,
    B_jk = (u^_j q_k - q_j u^_k) / (-2 sin((j+k) theta/2) sin((j-k) theta/2)),
    while B is zero across parities.  Both sines come from the one table,
    which avoids the cancellation of cos(j theta) - cos(k theta); the
    diagonal is diag(Q T Q) in closed form.
    """
    n = len(a)
    half = np.sin(np.arange(2 * n + 2) * (0.5 * np.pi / (n + 1)))
    q = np.sqrt(2.0 / (n + 1)) * half[2 : 2 * n + 1 : 2]
    u = np.zeros(n)
    u[: n - 1] = a[1:]
    return half, q, dst1(u), _frobenius_tau_spectrum(a)


def _sine_block(generators, p):
    """The principal block of B = Q T Q on the indices j = p + 1,
    p + 3, ... (1-based), in O(n^2) from `_sine_generators`.

    The numerator X - X^T, X = u^_j q_k, is divided in place by the
    denominator, a Toeplitz view of the signed table -2 sign(d) half_2|d|
    (d = (j - k)/2) times a Hankel view of half_(j+k); at most two n^2/4
    arrays are alive.  Numerator and denominator are antisymmetric to the
    last bit, so the block is exactly symmetric.
    """
    half, q, u_hat, diag = generators
    x = np.outer(u_hat[p::2], q[p::2])
    block = x - x.T
    del x
    m = len(block)
    # the 1 at d = 0 keeps 0/0 off the diagonal, which is overwritten below
    twice = 2.0 * half[2 : 2 * m : 2]
    signed = np.r_[twice[::-1], 1.0, -twice]
    block /= _toeplitz_view(signed, m) * _hankel_view(half[2 * p + 2 :: 2], m)
    np.fill_diagonal(block, diag[p::2])
    return block


def _merged_spectrum(parts):
    """The SpectrumReport of the eigenvalue arrays in parts, merged."""
    return SpectrumReport(np.sort(np.concatenate(parts)))


def dense_sym_eigs(A):
    """Full spectrum of a symmetric matrix, sorted ascending.

    Householder tridiagonalization plus the implicitly shifted
    tridiagonal QL/QR iteration, as provided by LAPACK's symmetric
    driver; non-convergence surfaces as LinAlgError.
    """
    return _merged_spectrum([np.linalg.eigvalsh(_check_symmetric(A))])


def min_eig_normalized(c):
    """n times the smallest eigenvalue of the symmetric Toeplitz matrix A
    with coefficients c (ToeplitzCoeffs): the identity's
    `preconditioned_spectrum`, so A's two flip-parity blocks are folded
    and solved one at a time."""
    return c.n * preconditioned_spectrum(c, build_identity(c.n)).lambda_min


def _folded_eigenvalues(a, root, p):
    """Eigenvalues of parity p's block of P^(-1/2) A P^(-1/2) for the
    identity (root None) or a circulant: S A S, written back into A's
    block, with S the block of P^(-1/2) folded from its first column."""
    block = _flip_block(a, p)
    if root is not None:
        S = _flip_block(root, p)
        np.matmul(S @ block, S, out=block)
    return np.linalg.eigvalsh(block)


def _scaled_eigenvalues(block, s):
    """Eigenvalues of diag(s) block diag(s), scaled in place."""
    block *= s[:, None]
    block *= s
    return np.linalg.eigvalsh(block)


def _check_order(c, P):
    """Raises TypeError unless c is ToeplitzCoeffs and ValueError unless
    P has c's order."""
    if not isinstance(c, ToeplitzCoeffs):
        raise TypeError("preconditioned spectra take ToeplitzCoeffs")
    if P.n != c.n:
        raise ValueError("preconditioner order must match the matrix")


def preconditioned_spectrum(c, P):
    """Spectrum of P^(-1/2) A P^(-1/2), which matches that of P^(-1) A,
    for the symmetric Toeplitz matrix A with coefficients c
    (ToeplitzCoeffs).

    A sine-domain kind P = Q diag(d) Q takes the two parity blocks of
    B = Q A Q, built from c without a dense transform, each scaled by
    d^(-1/2) on both sides.  The identity and the circulant kinds fold
    the parity blocks of A from c; a circulant's blocks are S A S with S
    the folded blocks of the symmetric circulant P^(-1/2), whose first
    column is `apply_inverse_sqrt(P, e_1)`.
    Raises TypeError unless c is ToeplitzCoeffs and ValueError when P has
    the wrong order, before any block is formed.
    """
    _check_order(c, P)
    # one flip parity at a time, each run to its eigensolve before the
    # other starts: only O(n) eigenvalues cross from one to the next
    if P.kind in _SINE:
        generators = _sine_generators(c.a)
        s = 1.0 / np.sqrt(P.spectrum)
        halves = [_scaled_eigenvalues(_sine_block(generators, p), s[p::2]) for p in (0, 1)]
    else:
        root = None if P.kind is PrecKind.IDENTITY else apply_inverse_sqrt(P, np.eye(1, P.n)[0])
        halves = [_folded_eigenvalues(c.a, root, p) for p in (0, 1)]
    return _merged_spectrum(halves)


def lanczos_extremes(c, P):
    """The extreme eigenvalues of P^(-1/2) A P^(-1/2), A the symmetric
    Toeplitz matrix with coefficients c (ToeplitzCoeffs), as RitzExtremes,
    or None when _LANCZOS_STEPS Lanczos steps do not certify both.

    Each step applies the operator to the newest basis vector by vectors
    only (P^(-1/2) by `_algebra_product`, A by `ToeplitzOperator`), then
    orthogonalizes the result against the whole basis twice (classical
    Gram-Schmidt, "twice is enough"), so the basis stays orthonormal to
    working precision and no copies of converged Ritz values appear.
    After step k the extreme eigenpairs (theta, s) of the tridiagonal T_k
    give residual bounds beta_k |s_k|; the run stops when both are at most
    _RITZ_RTOL |theta|, or at k = n, where T_n is similar to the operator.
    Raises TypeError and ValueError as `preconditioned_spectrum` does.
    """
    _check_order(c, P)
    n = c.n
    matvec = ToeplitzOperator(c)
    root = _algebra_product(P.kind, P.spectrum ** -0.5)
    steps = min(n, _LANCZOS_STEPS)
    basis = np.empty((steps, n))
    # a fixed random start has components in both flip parities and,
    # almost surely, along every eigenvector, so one run reaches both ends
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
    T = np.zeros((steps, steps))
    for k in range(steps):
        w = root(matvec(root(basis[k])))
        T[k, k] = basis[k] @ w
        done = basis[: k + 1]
        for _ in range(2):
            w -= done.T @ (done @ w)
        beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(T[: k + 1, : k + 1])
        ends = theta[[0, -1]]
        bounds = beta * np.abs(s[k, [0, -1]])
        if k + 1 == n or np.all(bounds <= _RITZ_RTOL * np.abs(ends)):
            return RitzExtremes(float(ends[0]), float(ends[1]), k + 1,
                                (float(bounds[0]), float(bounds[1])))
        if k + 1 < steps:
            T[k, k + 1] = T[k + 1, k] = beta
            basis[k + 1] = w / beta
    return None
