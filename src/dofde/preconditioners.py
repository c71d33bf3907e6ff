"""The preconditioner family for the distributed-order Toeplitz systems.

Five SPD preconditioners, each diagonal in a fast transform domain:
two circulants (Strang and Frobenius-optimal, DFT domain), two tau
matrices (natural and Frobenius-optimal, DST-I domain), and the
tridiagonal finite-difference Laplacian, itself a tau matrix (DST-I
domain), plus the identity.  `build_preconditioner` maps each kind to
its builder.  A `Preconditioner` checks itself when it is made, so one
made directly is held to what a built one is: a spectrum entry that is
not positive, NaN included, raises NotSPDError.  All builders are scale
equivariant: coefficients scaled by alpha produce spectra scaled by
alpha, so preconditioned spectra are invariant under system rescaling.

Each `Preconditioner` keeps its inverse, built when it is made, and its
P^(-1/2), built on first use.  The Laplacian's inverse is its Green's
function, two cumulative sums and no transform (`_green_function`).
Every other inverse, and each P^(1/2) and P^(-1/2), is a convolution
applied by the rfft helper of the Toeplitz matvec at a power-of-two
length (`_algebra_product`): Toeplitz minus Hankel for the sine kinds,
at the least power of two >= 2n; a circulant of order n itself when n is
a power of two, whose eigenvalues are the kernel, and otherwise its
first column embedded at the least power of two >= 2n
(`toeplitz._circulant_product`).  Every spectrum and kernel is a real
cosine sum, formed once, in double: one zero-padded rfft of length
2(n+1) for the tau algebra (`transforms._tau_transform`) and one rfft of
length n, mirrored, for the circulants (`transforms._circulant_transform`).
The order-n circulant product and the Green's function rest on the
spectrum, so a `Preconditioner` also checks that a circulant's is even
and that a Laplacian's is the Laplacian's, or raises ValueError.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .symbols import _check_order
from .toeplitz import ToeplitzCoeffs, _circulant_product, _symmetric_product
from .transforms import _circulant_embedding, _circulant_transform, _tau_transform

__all__ = [
    "PrecKind",
    "Preconditioner",
    "NotSPDError",
    "build_identity",
    "build_strang",
    "build_frobenius_circulant",
    "build_natural_tau",
    "build_frobenius_tau",
    "build_laplacian",
    "build_preconditioner",
    "apply_inverse",
    "apply_inverse_sqrt",
]


class NotSPDError(ValueError):
    """A preconditioner came out not symmetric positive definite."""


class PrecKind(enum.Enum):
    IDENTITY = "identity"
    STRANG_CIRCULANT = "strang"
    FROBENIUS_CIRCULANT = "frobenius_circulant"
    NATURAL_TAU = "natural_tau"
    FROBENIUS_TAU = "frobenius_tau"
    LAPLACIAN = "laplacian"


# the kinds diagonal in the DST-I domain, and those in the DFT domain
_SINE = {PrecKind.NATURAL_TAU, PrecKind.FROBENIUS_TAU, PrecKind.LAPLACIAN}
_CIRCULANT = {PrecKind.STRANG_CIRCULANT, PrecKind.FROBENIUS_CIRCULANT}


@dataclass(frozen=True)
class Preconditioner:
    """Immutable preconditioner: a kind plus its transform-domain spectrum.

    Circulant kinds diagonalize under the FFT, tau kinds and the
    Laplacian under DST-I; the Identity carries an empty spectrum.
    Raises ValueError unless kind is a PrecKind or its name, n is an
    integer >= 1 (3.0 is kept as 3) and the spectrum has n entries (none
    for the identity), then NotSPDError unless every entry is positive,
    so a NaN entry is rejected too, and then ValueError unless a
    circulant's spectrum is even (s_j = s_(n-j)) and a Laplacian's is
    `_laplacian_spectrum(n)` bit for bit, the facts its inverse is built
    on.
    """

    kind: PrecKind
    n: int
    spectrum: np.ndarray = field(repr=False)
    _inverse: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", PrecKind(self.kind))
        object.__setattr__(self, "n", _check_order(self.n, 1))
        s = np.array(self.spectrum, dtype=float)
        length = 0 if self.kind is PrecKind.IDENTITY else self.n
        if s.shape != (length,):
            raise ValueError(
                f"{self.kind.value} preconditioner of order {self.n} needs a "
                f"spectrum of length {length}, got shape {s.shape}"
            )
        if not np.all(s > 0.0):
            raise NotSPDError(
                f"{self.kind.value} preconditioner of order {self.n} is not positive "
                f"definite (min transform eigenvalue {np.min(s):.6e})"
            )
        if self.kind in _CIRCULANT and not np.array_equal(s[1:], s[:0:-1]):
            raise ValueError(
                f"{self.kind.value} preconditioner of order {self.n} needs an even "
                f"spectrum, s_j = s_(n-j)"
            )
        if self.kind is PrecKind.LAPLACIAN and not np.array_equal(s, _laplacian_spectrum(self.n)):
            raise ValueError(
                f"laplacian preconditioner of order {self.n} needs the spectrum "
                f"of tridiag(-1, 2, -1)"
            )
        object.__setattr__(self, "spectrum", s)
        s.setflags(write=False)
        inverse = (_green_function(self.n) if self.kind is PrecKind.LAPLACIAN
                   else _algebra_product(self.kind, 1.0 / s))
        object.__setattr__(self, "_inverse", inverse)

    @functools.cached_property
    def _inverse_sqrt(self):
        """x -> P^{-1/2} x, built on first use and kept."""
        return _algebra_product(self.kind, self.spectrum ** -0.5)


def build_identity(n):
    """No preconditioning; apply_inverse is the identity map."""
    return Preconditioner(kind=PrecKind.IDENTITY, n=n, spectrum=np.empty(0))


def build_strang(c):
    """Strang circulant: copy the central diagonals and wrap them around.

    First column s[j] = a[j] for j <= n/2 and a[n-j] beyond; eigenvalues
    are the DFT of that even column.  Raises NotSPDError when the wrap makes
    the circulant singular or indefinite (e.g. for the Laplacian symbol).
    """
    if c.n < 2:
        raise ValueError("n must be at least 2")
    spectrum = _circulant_transform(_circulant_embedding(c.a[: c.n // 2 + 1], c.n))
    return Preconditioner(kind=PrecKind.STRANG_CIRCULANT, n=c.n, spectrum=spectrum)


def build_frobenius_circulant(c):
    """Frobenius-optimal circulant: the closest circulant in Frobenius
    norm, whose first column averages the wrapped diagonals,
    col[j] = ((n-j) a[j] + j a[n-j]) / n, even like Strang's."""
    if c.n < 2:
        raise ValueError("n must be at least 2")
    n, a, j = c.n, c.a, np.arange(1, c.n)
    col = np.r_[a[0], ((n - j) * a[j] + j * a[n - j]) / n]
    return Preconditioner(kind=PrecKind.FROBENIUS_CIRCULANT, n=n,
                          spectrum=_circulant_transform(col))


def _frobenius_tau_spectrum(a):
    """diag(Q T Q) of the symmetric Toeplitz matrix T with first column a.

    With theta = pi/(n+1) and the stride-2 suffix sums
    s_l = sum_{k >= l, k = l mod 2} a_k,
    d_j = a0 + 2/(n+1) [sum_k ((n-k) a_k + 2 s_k) cos(j k theta)
                        + sum_{even k >= 2} a_k]
    (Bini and Di Benedetto, SPAA 1990): summing sin(j p theta)
    sin(j (p+k) theta) over the k-th diagonal leaves (n-k) cos(j k theta)
    minus cosines of the same parity as k, whose sum over a full period
    vanishes.
    """
    n = len(a)
    s = np.empty_like(a)
    for p in (0, 1):
        s[p::2] = np.cumsum(a[p::2][::-1])[::-1]
    k = np.arange(1, n)
    sums = _tau_transform((n - k) * a[1:] + 2.0 * s[1:], n).real[1 : n + 1]
    return a[0] + 2.0 / (n + 1) * (sums + s[0] - a[0])


def build_natural_tau(c):
    """Natural tau matrix: the degree-(n-1) cosine symbol sampled on the
    sine-transform grid, Q diag(d) Q with
    d_j = a0 + 2 sum_{k<n} a_k cos(j k pi/(n+1)).

    Equals the Toeplitz matrix minus its two Hankel corner corrections;
    for a tridiagonal symbol it reproduces the Toeplitz matrix exactly.
    """
    n = c.n
    spectrum = c.a[0] + 2.0 * _tau_transform(c.a[1:], n).real[1 : n + 1]
    return Preconditioner(kind=PrecKind.NATURAL_TAU, n=n, spectrum=spectrum)


def build_frobenius_tau(c):
    """Frobenius-optimal tau matrix of the symmetric Toeplitz matrix T
    with coefficients c (ToeplitzCoeffs): since Q is orthogonal, the
    minimizer over Q diag(d) Q has d = diag(Q T Q), which has a closed
    form computed in O(n log n) by one rfft.  Raises TypeError for any
    other input.
    """
    if not isinstance(c, ToeplitzCoeffs):
        raise TypeError("build_frobenius_tau takes ToeplitzCoeffs")
    return Preconditioner(kind=PrecKind.FROBENIUS_TAU, n=c.n,
                          spectrum=_frobenius_tau_spectrum(c.a))


def build_laplacian(n):
    """Tridiagonal finite-difference Laplacian tridiag(-1, 2, -1),
    diagonal in the DST-I domain with eigenvalues 2 - 2 cos(j pi/(n+1)),
    formed as 4 sin^2(j pi/(2(n+1))) so small j do not cancel."""
    n = _check_order(n, 1)  # before n sizes the spectrum below
    return Preconditioner(kind=PrecKind.LAPLACIAN, n=n, spectrum=_laplacian_spectrum(n))


def _laplacian_spectrum(n):
    j = np.arange(1.0, n + 1)
    return 4.0 * np.sin(j * np.pi / (2 * (n + 1))) ** 2


def _green_function(n):
    """x -> L^{-1} x for L = tridiag(-1, 2, -1) of order n, by its Green's
    function G_ij = min(i, j)(n + 1 - max(i, j))/(n + 1), 1-based:
    (G x)_i = ((n + 1 - i) sum_{j <= i} j x_j + i sum_{j > i} (n + 1 - j) x_j)
    / (n + 1), two cumulative sums, O(n) and no transform."""
    i = np.arange(1.0, n + 1)
    rev = i[::-1]

    def apply(x):
        below = np.cumsum(i * x)
        above = np.zeros(n)
        above[:-1] = np.cumsum((rev * x)[:0:-1])[::-1]
        return (rev * below + i * above) / (n + 1)

    return apply


# Builders are looked up at call time, so a wrapper installed on the
# module-level name (a tracer, a test's monkeypatch) sees every build.
_BUILDERS = {
    PrecKind.IDENTITY: lambda c: build_identity(c.n),
    PrecKind.STRANG_CIRCULANT: lambda c: build_strang(c),
    PrecKind.FROBENIUS_CIRCULANT: lambda c: build_frobenius_circulant(c),
    PrecKind.NATURAL_TAU: lambda c: build_natural_tau(c),
    PrecKind.FROBENIUS_TAU: lambda c: build_frobenius_tau(c),
    PrecKind.LAPLACIAN: lambda c: build_laplacian(c.n),
}


def build_preconditioner(kind, c):
    """Build the preconditioner of the given PrecKind or name (any other
    raises ValueError) for the Toeplitz coefficients c; the identity and
    the Laplacian use only c.n."""
    return _BUILDERS[PrecKind(kind)](c)


def _algebra_product(kind, w):
    """x -> M x for the matrix M of kind's algebra with transform-domain
    eigenvalues w: M is P^{-1} for w = 1/spectrum and P^{-1/2} for
    w = spectrum^(-1/2).

    A symmetric circulant M goes to `toeplitz._circulant_product`, which
    applies it at order n when n is a power of two and otherwise embeds
    its first column, the inverse DFT of the even w, at m >= 2n.  A
    sine-algebra M = Q diag(w) Q is `toeplitz._symmetric_product` of
    T(c) - H(c), H_ij = c_{i+j+2}, where
    c_m = (1/(n+1)) sum_j w_j cos(j m pi/(n+1)) for m = 0..2n comes from
    `_tau_transform` and is even about n + 1 (Bini and Capovani, Linear
    Algebra Appl. 52/53, 1983)."""
    if kind is PrecKind.IDENTITY:
        return lambda x: x.copy()
    if kind in _CIRCULANT:
        return _circulant_product(w)
    n = len(w)
    c = _circulant_embedding(_tau_transform(w, n).real / (n + 1), 2 * n + 2)
    return _symmetric_product(c[:n], hankel=-c[2 : 2 * n + 1])


def _vector(P, x):
    """x as a float vector of P's order; anything else raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (P.n,):
        raise ValueError("x must be a vector of the preconditioner's order")
    return x


def apply_inverse(P, x):
    """Apply P^{-1} to the vector x by P's cached inverse."""
    return P._inverse(_vector(P, x))


def apply_inverse_sqrt(P, x):
    """Apply P^{-1/2} to the vector x by a convolution built from the
    square root of P's spectrum on the first call and kept on P."""
    return P._inverse_sqrt(_vector(P, x))
