"""Algebraic two-grid and V-cycle solvers.

Coarsening is pure Galerkin: a 3-point [1, 2, 1] restriction (no
scaling) projects each level onto half the odd grid, the coarse
operator is R A R^T, and the coarsest system is solved by a dense
Cholesky factorization.  Smoothers are Gauss-Seidel sweeps or a fixed
number of restarted PCG steps (`pcg` run by `cg_smooth_step`) with the
sine-transform and discrete Laplacian preconditioners, combined into
the five named cases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .krylov import SolveReport, StoppingRule, cg_smooth_step
from .preconditioners import (
    build_frobenius_tau,
    build_laplacian,
    build_natural_tau,
)
from .toeplitz import ToeplitzCoeffs

__all__ = [
    "CaseTag",
    "MgmCase",
    "Hierarchy",
    "build_restriction",
    "build_hierarchy",
    "gauss_seidel_sweep",
    "vcycle",
    "tgm",
    "case_alpha",
    "case_beta",
    "case_gamma",
    "case_delta",
    "case_finest_only",
]


class CaseTag(enum.Enum):
    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"
    DELTA = "delta"
    FINEST_ONLY = "finest_only"


@dataclass(frozen=True)
class MgmCase:
    """Smoother configuration for one multigrid experiment."""

    tag: CaseTag
    nu_pre: int
    nu_post: int

    def __post_init__(self):
        if self.nu_pre < 0 or self.nu_post < 0:
            raise ValueError("smoothing step counts must be non-negative")
        if self.nu_pre == 0 and self.nu_post == 0:
            raise ValueError("at least one smoothing step is required")


def case_alpha():
    """Gauss-Seidel pre- and postsmoothing, one sweep each."""
    return MgmCase(CaseTag.ALPHA, 1, 1)


def case_beta():
    """Gauss-Seidel presmoothing, one sine-transform PCG postsmoothing step."""
    return MgmCase(CaseTag.BETA, 1, 1)


def case_gamma(nu_pre=1):
    """Laplacian-PCG presmoothing (1 or 2 steps), sine-transform PCG post."""
    if nu_pre not in (1, 2):
        raise ValueError("nu_pre must be 1 or 2")
    return MgmCase(CaseTag.GAMMA, nu_pre, 1)


def case_delta():
    """One Laplacian-PCG step, then two sine-transform PCG steps."""
    return MgmCase(CaseTag.DELTA, 1, 2)


def case_finest_only():
    """Laplacian/sine-transform smoothing at the finest level only;
    every coarser level gets single Gauss-Seidel sweeps."""
    return MgmCase(CaseTag.FINEST_ONLY, 1, 1)


@dataclass(frozen=True)
class Hierarchy:
    """Immutable grid hierarchy: dense level matrices, the sparse
    restriction taking each level to the next, and a Cholesky
    factorization of the coarsest matrix."""

    matrices: tuple
    restrictions: tuple
    coarsest_factor: tuple

    @property
    def depth(self):
        return len(self.matrices)


def build_restriction(n):
    """Sparse (n-1)/2 x n restriction applying [1, 2, 1] around every
    second fine point.  The prolongation is its transpose; the stencil
    is deliberately unscaled, which Galerkin coarsening absorbs."""
    if n < 3 or n % 2 == 0:
        raise ValueError("restriction needs an odd size of at least 3")
    m = (n - 1) // 2
    rows = np.repeat(np.arange(m), 3)
    cols = (2 * np.arange(m)[:, None] + np.arange(3)).ravel()
    vals = np.tile([1.0, 2.0, 1.0], m)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def _is_pow2_minus_1(n):
    return n >= 3 and ((n + 1) & n) == 0


def build_hierarchy(A, coarsest_threshold=15):
    """Coarsen A = A_0 by the Galerkin products R A R^T until the size
    drops to coarsest_threshold, factorizing the last level."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not _is_pow2_minus_1(A.shape[0]):
        raise ValueError("size must be one less than a power of two")
    if coarsest_threshold < 1:
        raise ValueError("coarsest_threshold must be positive")

    matrices = [A]
    restrictions = []
    while matrices[-1].shape[0] > coarsest_threshold:
        R = build_restriction(matrices[-1].shape[0])
        coarse = (R @ matrices[-1]) @ R.T
        coarse = np.asarray(0.5 * (coarse + coarse.T))
        matrices.append(coarse)
        restrictions.append(R)
    return Hierarchy(tuple(matrices), tuple(restrictions), cho_factor(matrices[-1]))


def gauss_seidel_sweep(A, x, b, sweeps=1):
    """Forward Gauss-Seidel: `sweeps` in-order passes over A x = b,
    returning the updated iterate."""
    A = np.asarray(A, dtype=float)
    if np.any(np.diag(A) == 0.0):
        raise ValueError("Gauss-Seidel needs a zero-free diagonal")
    lower = np.tril(A)
    x = np.array(x, dtype=float)
    for _ in range(sweeps):
        x = x + solve_triangular(lower, b - A @ x, lower=True)
    return x


def _tau_preconditioner(h, level):
    A = h.matrices[level]
    if level == 0:
        # finest matrix is Toeplitz, so its first row is the coefficient
        # sequence and the cheap sine-transform form applies
        return build_natural_tau(ToeplitzCoeffs(A.shape[0], A[0].copy()))
    return build_frobenius_tau(A)


def _assemble_smoothers(h, case):
    """Per-level (pre, post) smoother callables, signature (A, x, b)."""

    def gs(steps):
        return lambda A, x, b: gauss_seidel_sweep(A, x, b, steps)

    def pcg_step(P, steps):
        return lambda A, x, b: cg_smooth_step(lambda v: A @ v, P, x, b, steps)

    smoothers = []
    for level in range(h.depth - 1):
        n_level = h.matrices[level].shape[0]
        if case.tag is CaseTag.ALPHA:
            pair = (gs(case.nu_pre), gs(case.nu_post))
        elif case.tag is CaseTag.BETA:
            pair = (gs(case.nu_pre), pcg_step(_tau_preconditioner(h, level), case.nu_post))
        elif case.tag in (CaseTag.GAMMA, CaseTag.DELTA):
            pair = (
                pcg_step(build_laplacian(n_level), case.nu_pre),
                pcg_step(_tau_preconditioner(h, level), case.nu_post),
            )
        elif case.tag is CaseTag.FINEST_ONLY:
            if level == 0:
                pair = (
                    pcg_step(build_laplacian(n_level), case.nu_pre),
                    pcg_step(_tau_preconditioner(h, level), case.nu_post),
                )
            else:
                pair = (gs(1), gs(1))
        else:
            raise ValueError(f"unknown case tag {case.tag!r}")
        smoothers.append(pair)
    return smoothers


def _cycle(h, smoothers, level, b, x):
    if level == h.depth - 1:
        return cho_solve(h.coarsest_factor, b)
    A = h.matrices[level]
    pre, post = smoothers[level]
    x = pre(A, x, b)
    R = h.restrictions[level]
    coarse_residual = R @ (b - A @ x)
    correction = _cycle(h, smoothers, level + 1, coarse_residual,
                        np.zeros(coarse_residual.shape[0]))
    x = x + R.T @ correction
    return post(A, x, b)


def _mgm_solve(h, case, b, x0, stop):
    if stop is None:
        stop = StoppingRule()
    b = np.asarray(b, dtype=float)
    n = h.matrices[0].shape[0]
    if b.shape != (n,):
        raise ValueError("right-hand side length must match the finest level")
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolveReport(0, np.zeros(1), True, np.zeros(n))

    A = h.matrices[0]
    smoothers = _assemble_smoothers(h, case)
    history = [np.linalg.norm(b - A @ x) / norm_b]
    if history[0] < stop.tol:
        return SolveReport(0, np.array(history), True, x)

    max_it = stop.resolve_max(n)
    for k in range(1, max_it + 1):
        x = _cycle(h, smoothers, 0, b, x)
        scaled = np.linalg.norm(b - A @ x) / norm_b
        history.append(scaled)
        if scaled < stop.tol:
            return SolveReport(k, np.array(history), True, x)
    return SolveReport(max_it, np.array(history), False, x)


def vcycle(h, case, b, x0=None, stop=None):
    """Iterate V-cycles until the scaled residual passes stop.tol."""
    return _mgm_solve(h, case, b, x0, stop)


def tgm(h, case, b, x0=None, stop=None):
    """Two-grid iteration: a V-cycle on a hierarchy of exactly two levels."""
    if h.depth != 2:
        raise ValueError("two-grid solve needs a hierarchy with exactly two levels")
    return _mgm_solve(h, case, b, x0, stop)
