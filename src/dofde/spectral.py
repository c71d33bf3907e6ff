"""Eigenvalue machinery for the bound checks and the spectrum tables.

Preconditioned spectra are those of P^(-1/2) A P^(-1/2), which shares
eigenvalues with P^(-1) A, for a symmetric Toeplitz matrix A.  Every
table value comes from one matrix-free route, which returns None where it
does not settle its value; the dense route is the test oracle, and no
command calls it.

Extremes.  One Lanczos loop, `_lanczos`, runs with full
reorthogonalization on a symmetric operator given by its products with
vectors.  It starts from a fixed random vector with components in both
flip parities, so both ends come from one Krylov space, and it stops
once each end it is asked for has a residual bound
beta_k |s_k| <= 1e-10 |theta| (Parlett, The Symmetric Eigenvalue Problem,
1980, ch. 13), or when the space is the whole of R^n; it gives up after a
fixed step budget.  One driver, `_ritz`, runs it on P^p M P^p for a
symmetric product M and takes each Ritz vector back by P^(-1/2).

The table `_ENDS` gives each kind a route for its lower and its upper
end.  None is the plain run on P^(-1/2) A P^(-1/2), each product one
Toeplitz matvec between two P^(-1/2) convolutions; it serves both ends
of the Strang circulant and the tau kinds, and the upper end of the
Frobenius circulant and the Laplacian.  Any other route is a shift sigma
from A's first column, which fixes the pencil column a - sigma p, p the
first column of the Toeplitz P, and the tau builder of a generator
solve: `_inverse_end` runs on P^(1/2) S^(-1) P^(1/2), S = A - sigma P
for a lower end, lambda_min = sigma + 1/mu_max, and S = sigma P - A for
an upper end, lambda_max = sigma - 1/mu_max.  The shifts are:

- 0 for the lower end of the identity (`min_eig_normalized`) and of the
  Frobenius circulant, beyond the plain run's budget from n = 24576 on;
- Gershgorin's ceiling a_0 + 2 sum |a_k| for the identity's upper end,
  which bounds A's symbol f = a_0 + 2 sum a_k cos(k theta) without a
  grid, so sigma I - A is positive definite but for a diagonal A
  (Grenander and Szego, Toeplitz Forms and Their Applications, 1958:
  f >= sigma g implies T(f) >= sigma T(g));
- for the Laplacian L's lower end, too densely packed for the plain
  run's budget, the least ratio f(theta) / (4 sin^2(theta/2)) on a grid,
  less the grid's miss, so A - sigma L is positive definite,
  L = T(4 sin^2(theta/2)).

An inverse run costs one `pcg` solve x = S^(-1) e_1 of its shifted
matrix S at tol 1e-13, refined once where its true residual misses
(`krylov._generator_inverse`), then four triangular Toeplitz products
each: S^(-1) = (L(x) L(x)^T - L(y) L(y)^T)/x_0 (Gohberg and Semencul,
`toeplitz._gohberg_semencul`).  A shifted S is preconditioned by its
natural tau, whose eigenvalues are the shifted symbol sampled on the
sine grid: nonnegative by the choice of sigma, and small where the
shifted symbol vanishes, which the Frobenius tau does not follow (17 to
22 iterations for the Laplacian's solve at n = 128..2048 against its 36
to 102).  A^(-1) has no such shift: A's natural tau samples its
truncated symbol, which is negative for some positive definite A
(a = (1, 0, 0.9)), so it runs on A's Frobenius tau, whose eigenvalues,
the diagonal of Q A Q, are at least lambda_min(A).

The Ritz values carry the rounding of the double FFT products, which the
roots and the inverses amplify.  So each extreme is reported as the
Rayleigh quotient z^T A z / z^T P z of its Ritz vector z, taken to the
coordinates of P^(-1) A and evaluated in long double over P's own double
spectrum: a one-sided bound on the end for the P that every solver here
uses, however rough z is.  Both sides are summed term by term in a
transform domain, so neither cancels along the extreme vectors.

Outlier counts.  By Sylvester's law of inertia, the number of
eigenvalues of P^(-1) A below sigma is the number of negative pivots of
an LDL^T of A - sigma P.  For a symmetric Toeplitz T, Q T Q splits into
a flip-even and a flip-odd block and is Cauchy-like: with
H = tridiag(1, 0, 1), Q H Q = diag(2 cos(j theta)) and H T - T H has rank
four, so each off-diagonal entry is a quotient of O(n) generators (Bini
and Capovani, Linear Algebra Appl. 52/53, 1983), and the diagonal is the
Frobenius-tau closed form.  A sine kind P = Q diag(d) Q shifts only the
diagonal of B = Q A Q; the identity and the circulants are Toeplitz, so
A - sigma P is too, and its generators are those of its first column,
the pencil column of `_inverse_end`.  A Schur step keeps the form
(Gohberg, Kailath and Olshevsky, Math. Comp. 64, 1995).  `count_below`
takes 1x1 pivots on the largest remaining |diagonal|, in O(n^2) time
and O(n) memory per count, with every row and parity block of a call in
one batch of ceil(n/2) steps; a zero or non-finite pivot leaves a count
unsettled.

The dense route, `preconditioned_spectrum`, computes every eigenvalue;
it is the test oracle of the routes above, and no command calls it.
Every matrix here is symmetric Toeplitz, so it commutes with the flip J,
and so do the circulant and sine-transform preconditioners.  Each
eigenproblem therefore splits into a flip-even and a flip-odd block of
half the order (Cantoni and Butler, Linear Algebra Appl. 13, 1976),
solved one after the other and merged.  The blocks of a symmetric
Toeplitz matrix fold straight from its first column from strided views,
and on centrosymmetric matrices the fold is an algebra homomorphism, so
a circulant kind's blocks are S A S with S folded from the first column
of the symmetric circulant P^(-1/2) (Strang's and T. Chan's optimal
circulant, SIAM J. Sci. Stat. Comput. 9, 1988, are both symmetric).  A
sine kind's block of B is formed in O(n^2) from the generators above and
scaled by d^(-1/2).  At most three n^2/4 arrays are alive at once, and
no route assembles the n x n matrix A or transforms a matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .krylov import BreakdownError, _generator_inverse
from .preconditioners import (_SINE, PrecKind, _algebra_product, _frobenius_tau_spectrum,
                              apply_inverse_sqrt, build_frobenius_tau, build_identity,
                              build_natural_tau)
from .toeplitz import ToeplitzCoeffs, ToeplitzOperator, _next_pow2
from .transforms import (_circulant_embedding, _circulant_power, _circulant_transform,
                         _tau_transform, dst1)

__all__ = [
    "SpectrumReport",
    "RitzEnd",
    "RitzExtremes",
    "count_below",
    "dense_sym_eigs",
    "lanczos_extremes",
    "min_eig_normalized",
    "preconditioned_spectrum",
]

_SYMMETRY_RTOL = 1e-10
# Lanczos: the most steps before a run gives up on its ends, and the
# relative residual bound that certifies a Ritz value
_LANCZOS_STEPS = 96
_RITZ_RTOL = 1e-10
# the fewest samples of the Laplacian shift's grid; it takes 64 per unknown
_SHIFT_SAMPLES = 1 << 16


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
class RitzEnd:
    """One end of the spectrum of P^(-1) A and how it was found.  value is
    the long-double Rayleigh quotient of its certified Ritz vector, steps
    the steps of its Lanczos run, and bound the residual bound beta_k |s_k|
    of its Ritz value mu, at most 1e-10 mu unless the run took all n steps;
    an inverse run (`_inverse_end`) maps bound to the end as bound / mu^2,
    and gives its shift and its generator's `pcg` iterations, refinement
    included, as shift and inner_steps, both None for the plain run."""

    value: float
    steps: int
    bound: float
    shift: float | None
    inner_steps: int | None


@dataclass(frozen=True)
class RitzExtremes:
    """The lower and the upper end of the spectrum of P^(-1) A, each a
    RitzEnd on the route that `_ENDS` gives P's kind."""

    lower: RitzEnd
    upper: RitzEnd

    @property
    def lambda_min(self):
        return self.lower.value

    @property
    def lambda_max(self):
        return self.upper.value


def _check_symmetric(A):
    """A as a float array; raises ValueError unless it is square,
    non-empty, finite and symmetric."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not A.size:
        raise ValueError("matrix must not be empty")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
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
    T with first column a, which `_sine_block` expands and `count_below`
    eliminates: the table half_m = sin(m theta/2), m = 0..2n + 1,
    q = Q e_1, u^ = Q u and diag(B).

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


def _signed_gaps(half):
    """The table -2 sign(e) sin(|e| theta/2) = -2 sign(e) half_|e| for
    e = j - k from -n to n, entry e + n, with a 1 at e = 0, which keeps 0/0
    off a block's diagonal: times half_(j+k), the denominator
    cos(j theta) - cos(k theta) of the entries j, k of B (1-based)."""
    twice = 2.0 * half[1 : len(half) // 2]
    return np.r_[twice[::-1], 1.0, -twice]


def _sine_block(generators, p):
    """The principal block of B = Q T Q on the indices j = p + 1,
    p + 3, ... (1-based), in O(n^2) from `_sine_generators`.

    The numerator X - X^T, X = u^_j q_k, is divided in place by the
    denominator, a Toeplitz view of the even entries of `_signed_gaps`
    times a Hankel view of half_(j+k); at most two n^2/4 arrays are alive.
    Numerator and denominator are antisymmetric to the last bit, so the
    block is exactly symmetric.
    """
    half, q, u_hat, diag = generators
    x = np.outer(u_hat[p::2], q[p::2])
    block = x - x.T
    del x
    n, m = len(q), len(block)
    gaps = _signed_gaps(half)[n - 2 * (m - 1) : n + 2 * m - 1 : 2]
    block /= _toeplitz_view(gaps, m) * _hankel_view(half[2 * p + 2 :: 2], m)
    np.fill_diagonal(block, diag[p::2])
    return block


def _negative_pivots(half, q, x_rows, delta_rows):
    """For each row of the generators x_rows and the diagonals delta_rows,
    the number of negative pivots of the matrix with that diagonal delta,
    zero across parities and Cauchy-like within them,
    (x_j q_k - q_j x_k) / (c_j - c_k), c_j = cos(j theta), and whether
    every pivot was finite and nonzero; half and q are `_sine_generators`'s.

    A 1x1 Schur step on the pivot p of a parity block, with y = q, takes
    the pivot column k_j = (x_j y_p - y_j x_p) / (c_j - c_p) from the
    generators and updates x <- x - (x_p / delta_p) k,
    y <- y - (y_p / delta_p) k and delta <- delta - k^2 / delta_p, which
    keeps the form.  Every block of every row is eliminated as one batch
    row of ceil(n/2) columns, each column holding its sine index j, so both
    parities share the step loop and the denominators come from
    `_signed_gaps` and half_(j+k) by index.  At odd n the short flip-odd
    block gets a sentinel column j = n + 1 with x = y = 0 and delta = 1:
    its pivot column entry is 0, so its Schur steps change nothing, and its
    own pivot, 1, counts as positive.  Each batch row pivots on its largest
    remaining |delta|: the pivot swaps into the last active column, so step
    t works on ceil(n/2) - t columns.
    """
    n, rows = len(q), len(x_rows)
    m = (n + 1) // 2
    # x, y and delta in one array, so a pivot swap and the generator
    # update each take one operation
    xyd = np.zeros((3, 2 * rows, m))
    x, y, delta = xyd
    xy = xyd[:2]
    index = np.empty((2 * rows, m), dtype=np.intp)
    for p, block in ((0, slice(None, rows)), (1, slice(rows, None))):
        width = len(q[p::2])
        x[block, :width] = x_rows[:, p::2]
        y[block, :width] = q[p::2]
        delta[block, :width] = delta_rows[:, p::2]
        index[block, :width] = np.arange(p + 1, n + 1, 2)
        # the sentinel, at odd n only
        delta[block, width:] = 1.0
        index[block, width:] = n + 1
    gaps = _signed_gaps(half)
    batch = np.arange(2 * rows)
    negative = np.zeros(2 * rows, dtype=int)
    finite = np.ones(2 * rows, dtype=bool)
    for last in range(m - 1, -1, -1):
        pivot = np.argmax(np.abs(delta[:, : last + 1]), axis=1)
        held = xyd[:, batch, pivot]
        xyd[:, batch, pivot] = xyd[:, :, last]
        xyd[:, :, last] = held
        held = index[batch, pivot]
        index[batch, pivot] = index[:, last]
        index[:, last] = held
        pivots = delta[:, last]
        finite &= np.isfinite(pivots) & (pivots != 0.0)
        negative += pivots < 0.0
        if not last:
            break
        at = index[:, last, None]
        active = index[:, :last]
        column = x[:, :last] * y[:, last, None]
        column -= y[:, :last] * x[:, last, None]
        denominator = gaps.take(active - (at - n))
        denominator *= half.take(active + at)
        column /= denominator
        scale = 1.0 / pivots[:, None]
        xy[:, :, :last] -= (xy[:, :, last, None] * scale) * column
        column *= column
        column *= scale
        delta[:, :last] -= column
    return negative[:rows] + negative[rows:], finite[:rows] & finite[rows:]


def count_below(c, rows):
    """The number of eigenvalues of P^(-1) A below sigma for each (P, sigma)
    in rows, A the symmetric Toeplitz matrix with coefficients c
    (ToeplitzCoeffs), as a list: by Sylvester's law, the negative pivots of
    the Cauchy-like parity blocks of Q (A - sigma P) Q (`_negative_pivots`),
    every row of one call eliminated at once; a Toeplitz kind's generators
    are those of the pencil column a - sigma p, p its `_toeplitz_column`.
    An entry is None where the elimination met a zero or non-finite pivot,
    as it does where sigma is an eigenvalue.
    Raises TypeError and ValueError as `preconditioned_spectrum` does.
    """
    rows = list(rows)
    for P, _ in rows:
        _check_order(c, P)
    if not rows:
        return []
    half, q, u_hat, diag = _sine_generators(c.a)
    x, delta = np.empty((2, len(rows), c.n))
    for r, (P, sigma) in enumerate(rows):
        if P.kind in _SINE:
            x[r], delta[r] = u_hat, diag - sigma * P.spectrum
        else:
            _, _, x[r], delta[r] = _sine_generators(c.a - sigma * _toeplitz_column(P))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        negative, finite = _negative_pivots(half, q, x, delta)
    return [int(count) if ok else None for count, ok in zip(negative, finite)]


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
    (ToeplitzCoeffs), by dense eigensolves: the test oracle of the
    matrix-free routes; no command calls it.

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


def _lanczos(apply, n, ends):
    """The one Lanczos loop behind every extreme, on the symmetric
    operator x -> apply(x) of order n.

    Each step applies the operator to the newest basis vector, then
    orthogonalizes the result against the whole basis twice (classical
    Gram-Schmidt, "twice is enough"), so the basis stays orthonormal to
    working precision and no copies of converged Ritz values appear.
    After step k the eigenpairs (theta, s) of the tridiagonal T_k give
    residual bounds beta_k |s_k|.  Returns (steps, lowest, ritz) once
    every end in ends (0 the lowest Ritz value, -1 the highest) has a
    bound of at most _RITZ_RTOL |theta|, or at k = n, where T_n is
    similar to the operator: lowest is the least Ritz value, and ritz
    holds (theta, unit Ritz vector, bound) for each end.  Returns None
    when _LANCZOS_STEPS steps do not certify them.
    """
    steps = min(n, _LANCZOS_STEPS)
    basis = np.empty((steps, n))
    # a fixed random start has components in both flip parities and,
    # almost surely, along every eigenvector, so one run reaches both ends
    start = np.random.default_rng(0).standard_normal(n)
    basis[0] = start / np.linalg.norm(start)
    T = np.zeros((steps, steps))
    ends = list(ends)
    for k in range(steps):
        w = apply(basis[k])
        T[k, k] = basis[k] @ w
        done = basis[: k + 1]
        for _ in range(2):
            w -= done.T @ (done @ w)
        beta = np.linalg.norm(w)
        theta, s = np.linalg.eigh(T[: k + 1, : k + 1])
        bounds = beta * np.abs(s[k, ends])
        if k + 1 == n or np.all(bounds <= _RITZ_RTOL * np.abs(theta[ends])):
            return k + 1, theta[0], [(theta[e], s[:, e] @ done, float(b))
                                     for e, b in zip(ends, bounds)]
        if k + 1 < steps:
            T[k, k + 1] = T[k + 1, k] = beta
            basis[k + 1] = w / beta
    return None


def _rayleigh_quotients(c, P):
    """z -> z^T A z / z^T P z in long double, over A's coefficients and
    P's own double spectrum d, both widened once, so the quotient bounds an
    end for the P that Lanczos, `pcg` and `count_below` use.  Both sides
    are summed term by term over a transform domain: z^T A z as
    sum_j s_j |(F z)_j|^2 / m, z padded to m >= 2n, s the spectrum of A's
    order-m circulant embedding; z^T P z as sum_j d_j (Q z)_j^2 (sine kinds)
    or sum_j d_j |(F z)_j|^2 / n (circulants).  A Toeplitz form over z's
    autocorrelation cancels (1.4e-9 for A on the sine vector at n = 65536)."""
    a, d = c.a.astype(np.longdouble), P.spectrum.astype(np.longdouble)
    n, m = c.n, _next_pow2(2 * c.n)
    symbol = _circulant_transform(_circulant_embedding(a, m))
    if P.kind is PrecKind.IDENTITY:
        energy = lambda z: z @ z
    elif P.kind in _SINE:
        # the sine sums are -sqrt((n + 1)/2) Q z
        energy = lambda z: 2 * (d @ _tau_transform(z, n)[1 : n + 1].imag ** 2) / (n + 1)
    else:
        energy = lambda z: d @ _circulant_power(z) / n

    def quotient(z):
        z = np.asarray(z, dtype=np.longdouble)
        return float(symbol @ _circulant_power(np.pad(z, (0, m - n))) / m / energy(z))

    return quotient


def _ritz(c, P, inner, root, ends):
    """`_lanczos` on R M R, M the symmetric product inner and R the root
    product root, P^(-1/2) or P^(1/2), for the ends in ends: its
    (steps, lowest, ritz) with each Ritz vector replaced by the
    long-double Rayleigh quotient (`_rayleigh_quotients`) of its image
    under P^(-1/2), or None."""
    run = _lanczos(lambda x: root(inner(root(x))), c.n, ends)
    if run is None:
        return None
    steps, lowest, ritz = run
    quotient, back = _rayleigh_quotients(c, P), P._inverse_sqrt
    return steps, lowest, [(theta, quotient(back(y)), bound) for theta, y, bound in ritz]


def _laplacian_shift(a):
    """A shift sigma >= 0 below lambda_min(L^(-1) T), T the symmetric
    Toeplitz matrix with first column a: the least ratio
    f(theta) / (4 sin^2(theta/2)) of T's symbol
    f(theta) = a_0 + 2 sum_k a_k cos(k theta) on the grid
    theta = 2 pi j / samples, j = 1..samples/2, of (0, pi], at
    max(_SHIFT_SAMPLES, 64 n) samples rounded up to a power of two, less
    the amount by which the grid of every other sample misses it, about
    three times the grid's own miss."""
    samples = max(_SHIFT_SAMPLES, _next_pow2(64 * len(a)))
    # the symbol at 2 pi j / samples is the cosine sum of a, mirrored
    f = _circulant_transform(_circulant_embedding(a, samples))[1 : samples // 2 + 1]
    theta = 2.0 * np.pi / samples * np.arange(1, samples // 2 + 1)
    ratio = f / (4.0 * np.sin(theta / 2) ** 2)
    least = ratio.min()
    return max(0.0, least - (ratio[1::2].min() - least))


# each kind's (lower, upper) route: None for the plain run, else
# `_inverse_end`'s (shift from A's first column, tau builder of the
# generator solve); the route of A^(-1), on A's Frobenius tau, serves two kinds
_A_INVERSE = (lambda a: 0.0, build_frobenius_tau)
_ENDS = dict.fromkeys(PrecKind, (None, None)) | {
    PrecKind.IDENTITY: (_A_INVERSE, (lambda a: a[0] + 2.0 * np.abs(a[1:]).sum(),
                                     build_natural_tau)),
    PrecKind.FROBENIUS_CIRCULANT: (_A_INVERSE, None),
    PrecKind.LAPLACIAN: ((_laplacian_shift, build_natural_tau), None),
}


def _toeplitz_column(P):
    """P's first column for a Toeplitz kind: e_1 for the identity,
    (2, -1, 0, ...) for the Laplacian, the inverse DFT of a circulant's
    spectrum."""
    e = np.eye(2, P.n)
    if P.kind is PrecKind.IDENTITY:
        return e[0]
    if P.kind is PrecKind.LAPLACIAN:
        return 2.0 * e[0] - e[1]
    return _circulant_transform(P.spectrum) / P.n


def _inverse_end(c, P, end, route):
    """The lower (end 0) or upper (end -1) end of the spectrum of P^(-1) A
    for a Toeplitz kind P (`_toeplitz_column`) by its route (shift, tau
    builder): with sigma = shift(a) below the end (above it), `_ritz` on
    P^(1/2) S^(-1) P^(1/2), S = A - sigma P (sigma P - A), each product
    one `_generator_inverse` of S on the route's tau of S, built before
    the run.

    Returns the RitzEnd of the top Ritz value mu, the end sigma +- 1/mu,
    or None when the build or the solve fails, x_0 is not positive and
    finite, the run does not certify, or a Ritz value is not positive, so
    sigma was not outside the spectrum."""
    shift, tau = route
    sigma = float(shift(c.a))
    shifted = c.a - sigma * _toeplitz_column(P)
    shifted = ToeplitzCoeffs(c.n, -shifted if end else shifted)
    try:
        solve, inner_steps = _generator_inverse(ToeplitzOperator(shifted), tau(shifted))
    except (ValueError, BreakdownError):
        return None
    run = _ritz(c, P, solve, _algebra_product(P.kind, P.spectrum ** 0.5), (-1,))
    if run is None or not run[1] > 0.0:
        return None
    steps, _, [(mu, value, bound)] = run
    return RitzEnd(value, steps, float(bound / mu**2), sigma, inner_steps)


def lanczos_extremes(c, P):
    """The extreme eigenvalues of P^(-1/2) A P^(-1/2), A the symmetric
    Toeplitz matrix with coefficients c (ToeplitzCoeffs), as RitzExtremes,
    or None when a run does not certify its end: the ends that `_ENDS`
    routes None share one `_ritz` run on P^(-1/2) A P^(-1/2), made first,
    and each other end is one `_inverse_end`, the lower before the upper.
    Raises TypeError and ValueError as `preconditioned_spectrum` does.
    """
    _check_order(c, P)
    routes = dict(zip((0, -1), _ENDS[P.kind]))
    plain = [end for end, route in routes.items() if route is None]
    found = {}
    if plain:
        run = _ritz(c, P, ToeplitzOperator(c), P._inverse_sqrt, plain)
        if run is None:
            return None
        steps, _, ritz = run
        found = {end: RitzEnd(value, steps, bound, None, None)
                 for end, (_, value, bound) in zip(plain, ritz)}
    found.update((end, _inverse_end(c, P, end, route))
                 for end, route in routes.items() if route is not None)
    return None if None in found.values() else RitzExtremes(found[0], found[-1])


def min_eig_normalized(c):
    """n times the smallest eigenvalue of the symmetric Toeplitz matrix A
    with coefficients c (ToeplitzCoeffs): the identity's lower end of
    `_ENDS`, by Lanczos on A^(-1), or None where that run fails."""
    P = build_identity(c.n)
    _check_order(c, P)
    found = _inverse_end(c, P, 0, _ENDS[PrecKind.IDENTITY][0])
    return None if found is None else c.n * found.value
