"""Algebraic two-grid and V-cycle solvers on Toeplitz coefficient vectors.

Coarsening is pure Galerkin: the unscaled [1, 2, 1] restriction R
projects each level onto half the odd grid, and the coarse operator is
R A R^T.  For a symmetric Toeplitz A with first column a, R A R^T is
again symmetric Toeplitz, with first column

    b_k = a_|2k-2| + 4 a_|2k-1| + 6 a_2k + 4 a_2k+1 + a_2k+2,

so every level is stored as its first column and built in O(n)
(Fiorentino and Serra, Calcolo 1991; Chan, Chang and Sun, SIAM J. Sci.
Comput. 19, 1998).  Restriction and prolongation are stencil slices,
and no level is assembled densely: a cycle's coarsest level is solved
exactly by the Gohberg-Semencul formula, `toeplitz._gohberg_semencul`,
from x = T^{-1} e_1, one Frobenius-tau PCG solve per level; its four
triangular products are cached rfft convolutions, `toeplitz._product`,
as is the matvec.

Smoothers are Gauss-Seidel sweeps or restarted PCG steps (`pcg` run by
`cg_smooth_step`), as the five cases of `MGM_CASES` declare; `vcycle`
and `tgm` take a case by name, and `tgm` is the V-cycle on the first two
levels of the same hierarchy.  A level builds each preconditioner kind
once, for its smoothers and its exact solve.

A cycle is a correction operator (Briggs, Henson and McCormick, A
Multigrid Tutorial, SIAM 2000): `_cycle` turns a residual r into
e ~ A^{-1} r by one V-cycle from e = 0.  The pre-smoother solves A e = r
from zero, so it takes no product with A; the coarse right-hand side is
R (r - A e), and the post-smoother continues from e.  The solves run in
krylov's stopping loop, the one `pcg` runs in, and each step adds the
correction to the iterate and forms the true residual once.

Gauss-Seidel inverts tril(T), the lower-triangular Toeplitz matrix with
first column a.  Its inverse is the lower-triangular Toeplitz matrix of
the power-series reciprocal of a(z) = sum_k a_k z^k, computed once per
level by Newton's iteration (`toeplitz._series_reciprocal`) and applied
as an FFT convolution.  When the symbol a_0 + 2 sum_k a_k cos(k theta)
is nonnegative, Re a(z) >= a_0/2 on the closed unit disc, so 1/a(z) is
bounded there by 2/a_0 and the reciprocal series is well conditioned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .krylov import _GENERATOR_STOP, _iterate, cg_smooth_step, pcg
from .preconditioners import PrecKind, build_preconditioner
from .toeplitz import (ToeplitzCoeffs, ToeplitzOperator, _gohberg_semencul, _product,
                       _series_reciprocal)

__all__ = [
    "MGM_CASES",
    "GridLevel",
    "Hierarchy",
    "restrict",
    "prolong",
    "build_hierarchy",
    "gauss_seidel_sweep",
    "vcycle",
    "tgm",
]

# The study's five smoother cases by name: the finest level's (pre, post)
# smoothers, then those of every coarser level but the coarsest, each
# (method, steps), "gs" for forward Gauss-Seidel sweeps or a PrecKind value
# for restarted PCG steps: natural tau on the finest level, the problem's
# own matrix, and Frobenius-optimal tau on the Galerkin levels below it.
MGM_CASES = {
    "alpha": ((("gs", 1), ("gs", 1)), (("gs", 1), ("gs", 1))),
    "beta": ((("gs", 1), ("natural_tau", 1)), (("gs", 1), ("frobenius_tau", 1))),
    "gamma": ((("laplacian", 1), ("natural_tau", 1)), (("laplacian", 1), ("frobenius_tau", 1))),
    "delta": ((("laplacian", 1), ("natural_tau", 2)), (("laplacian", 1), ("frobenius_tau", 2))),
    "finest_only": ((("laplacian", 1), ("natural_tau", 1)), (("gs", 1), ("gs", 1))),
}

_COARSEST_SIZE = 15


class GridLevel:
    """One level of the hierarchy: a symmetric Toeplitz matrix held as
    its coefficients, with a cached matvec and, built on first use, its
    preconditioners and the inverses of its lower triangle and of T."""

    def __init__(self, c):
        self.coeffs = c
        self.n = c.n
        self.matvec = ToeplitzOperator(c)
        self._preconditioners = {}

    def _preconditioner(self, kind):
        """The level's preconditioner of the given PrecKind, built once."""
        if kind not in self._preconditioners:
            self._preconditioners[kind] = build_preconditioner(kind, self.coeffs)
        return self._preconditioners[kind]

    @functools.cached_property
    def solve_lower(self):
        """r -> tril(T)^{-1} r: convolution with the reciprocal series."""
        return _product(_series_reciprocal(self.coeffs.a), self.n)

    @functools.cached_property
    def solve(self):
        """r -> T^{-1} r by `_gohberg_semencul` from x = T^{-1} e_1, which
        one Frobenius-tau PCG solve finds."""
        report = pcg(self.matvec, self._preconditioner(PrecKind.FROBENIUS_TAU),
                     np.eye(1, self.n)[0], stop=_GENERATOR_STOP)
        if not report.converged:
            raise ValueError(f"PCG for T^-1 e_1 at order {self.n} missed tol {_GENERATOR_STOP.tol:g}")
        return _gohberg_semencul(report.solution)


@dataclass(frozen=True)
class Hierarchy:
    """Immutable grid hierarchy: the levels, finest first."""

    levels: tuple

    @property
    def matrices(self):
        """First column of every level's symmetric Toeplitz matrix."""
        return tuple(level.coeffs.a for level in self.levels)


def restrict(x):
    """R x for the unscaled [1, 2, 1] restriction around every second
    point: a vector of odd length n >= 3 goes to length (n - 1)/2."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 3 or x.shape[0] % 2 == 0:
        raise ValueError("restriction needs a vector of odd size at least 3")
    return x[0:-2:2] + 2.0 * x[1:-1:2] + x[2::2]


def prolong(y):
    """R^T y, the transpose of `restrict`: length m goes to 2m + 1."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("prolongation needs a vector")
    m = y.shape[0]
    z = np.empty(2 * m + 1)
    even = z[0::2]
    even[:m] = y
    even[m] = 0.0
    even[1:] += y
    z[1::2] = 2.0 * y
    return z


def _galerkin_coarse(a):
    """First column of R T R^T for the symmetric Toeplitz T with first
    column a (odd length n); every index 2k + 2 <= n - 1 is in range."""
    even, odd = a[0::2], a[1::2]
    b = 6.0 * even[:-1] + 4.0 * odd + even[1:]
    b[0] += 4.0 * a[1] + a[2]
    b[1:] += 4.0 * odd[:-1] + even[:-2]
    return b


def build_hierarchy(c):
    """Coarsen the symmetric Toeplitz matrix with coefficients c by the
    Galerkin recurrence at least once, then until the size is at most 15."""
    if not isinstance(c, ToeplitzCoeffs):
        raise TypeError("build_hierarchy takes ToeplitzCoeffs")
    if not (c.n >= 3 and (c.n + 1) & c.n == 0):
        raise ValueError(f"size must be one less than a power of two, got {c.n}")

    levels = [GridLevel(c)]
    while len(levels) == 1 or levels[-1].n > _COARSEST_SIZE:
        a = _galerkin_coarse(levels[-1].coeffs.a)
        levels.append(GridLevel(ToeplitzCoeffs(a.shape[0], a)))
    return Hierarchy(tuple(levels))


def gauss_seidel_sweep(level, x, b, sweeps=1):
    """Forward Gauss-Seidel on the GridLevel's system T x = b: `sweeps`
    updates x <- x + tril(T)^{-1} (b - T x), returning the new iterate.
    x=None starts from zero, where the first update is tril(T)^{-1} b,
    with no product.  Raises ValueError unless sweeps >= 1."""
    if not sweeps >= 1:
        raise ValueError("sweeps must be at least 1")
    if level.coeffs.a[0] == 0.0:
        raise ValueError("Gauss-Seidel needs a zero-free diagonal")
    if x is None:
        x, sweeps = level.solve_lower(b), sweeps - 1
    for _ in range(sweeps):
        x = x + level.solve_lower(b - level.matvec(x))
    return x


def _smooth(level, smoother, x, b):
    """One (method, steps) smoother of `MGM_CASES` on the GridLevel from x,
    None for zero, by the module globals gauss_seidel_sweep or cg_smooth_step,
    looked up at call time so that a wrapper set on the module sees every call."""
    method, steps = smoother
    if method == "gs":
        return gauss_seidel_sweep(level, x, b, steps)
    return cg_smooth_step(level.matvec, level._preconditioner(PrecKind(method)), x, b, steps)


def _cycle(levels, pairs, r):
    """The correction e ~ A^{-1} r of one V-cycle from e = 0: pairs[0] is the
    first level's (pre, post) smoothers, pairs[1] those of the coarser ones."""
    if len(levels) == 1:
        return levels[0].solve(r)
    level, (pre, post) = levels[0], pairs[0]
    e = _smooth(level, pre, None, r)
    e = e + prolong(_cycle(levels[1:], (pairs[1], pairs[1]), restrict(r - level.matvec(e))))
    return _smooth(level, post, e, r)


def _mgm_solve(levels, case, b, stop):
    if case not in MGM_CASES:
        raise ValueError(f"unknown multigrid case {case!r}")
    b = np.asarray(b, dtype=float)
    finest = levels[0]
    if b.shape != (finest.n,):
        raise ValueError("right-hand side length must match the finest level")

    def steps(x, r):
        while True:
            x = x + _cycle(levels, MGM_CASES[case], r)
            r = b - finest.matvec(x)
            yield x, r

    return _iterate(finest.matvec, b, None, stop, steps)


def vcycle(h, case, b, stop=None):
    """Iterate V-cycles from zero, smoothing as the MGM_CASES entry named
    `case`, until the scaled residual passes stop.tol."""
    return _mgm_solve(h.levels, case, b, stop)


def tgm(h, case, b, stop=None):
    """Two-grid iteration: the V-cycle on the first two levels of h, the
    second solved exactly."""
    return _mgm_solve(h.levels[:2], case, b, stop)
