"""Conjugate gradient solvers for the preconditioned experiments.

Standard (P)CG with the scaled-residual stopping rule ||r||/||b|| < tol;
the multigrid smoother is the same solve run for a fixed number of steps.
The rule lives in one loop, `_iterate`: `pcg` and multigrid's `vcycle`
and `tgm` each hand it their steps as a generator of (x, r) pairs.
Iteration counts under the five preconditioners are the package's main
solver experiment.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .preconditioners import apply_inverse

__all__ = ["StoppingRule", "SolveReport", "BreakdownError", "pcg", "cg_smooth_step"]


class BreakdownError(RuntimeError):
    """A CG inner product came out non-positive: the operator or the
    preconditioner is not SPD."""


@dataclass(frozen=True)
class StoppingRule:
    """Scaled-residual stopping: stop at ||b - A x||/||b|| < tol.

    max_iterations defaults to 10 n, resolved against the system size.
    """

    tol: float = 1e-7
    max_iterations: int | None = None

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not np.isfinite(self.tol):
            raise ValueError("tol must be finite")
        cap = self.max_iterations
        if cap is not None and not (isinstance(cap, numbers.Integral) and cap >= 1):
            raise ValueError("max_iterations must be a positive integer")

    def resolve_max(self, n):
        return self.max_iterations if self.max_iterations is not None else 10 * n


# the PCG for T^{-1} e_1 behind every Gohberg-Semencul inverse
_GENERATOR_STOP = StoppingRule(tol=1e-13)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one iterative solve; one residual per step follows the
    initial one, so the step count is read from the history."""

    residual_history: np.ndarray = field(repr=False)
    converged: bool
    solution: np.ndarray = field(repr=False)

    @property
    def iterations(self):
        return len(self.residual_history) - 1


def _iterate(apply_A, b, x0, stop, steps):
    """The one solve loop behind `pcg`, `vcycle` and `tgm`.

    x0=None is zero, whose residual b takes no product.  Returns at once for a
    zero b or an initial residual under stop.tol; otherwise draws (x, r)
    pairs, r the residual of the iterate x, from the generator steps(x0, r0)
    until ||r||/||b|| < stop.tol or stop's cap, past which no step is drawn.
    """
    if stop is None:
        stop = StoppingRule()
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError("x0 length must match b")

    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return SolveReport(np.zeros(1), True, np.zeros(n))

    r = b.copy() if x0 is None else b - np.asarray(apply_A(x), dtype=float)
    history = [np.linalg.norm(r) / norm_b]
    if not history[0] < stop.tol:
        # islice checks its count before it draws, so no step past the cap runs
        for x, r in islice(steps(x, r), stop.resolve_max(n)):
            history.append(np.linalg.norm(r) / norm_b)
            if history[-1] < stop.tol:
                break
    # a NaN residual never counts as converged
    return SolveReport(np.array(history), bool(history[-1] < stop.tol), x)


def pcg(apply_A, P, b, x0=None, stop=None):
    """Preconditioned conjugate gradient on A x = b.

    apply_A is any callable realizing the SPD operator; P is a
    Preconditioner (Identity gives plain CG).  Returns a SolveReport
    whose residual_history holds the scaled residual before each
    iteration and after every update; iterations is the first k whose
    scaled residual drops under stop.tol.  Hitting max_iterations
    returns converged=False rather than raising; an inner product that
    is not positive (NaN included) raises BreakdownError.
    """

    def steps(x, r):
        p = rho = None
        while True:
            z = apply_inverse(P, r)
            rho_new = float(r @ z)
            if not rho_new > 0.0:
                raise BreakdownError("preconditioned inner product <= 0")
            p = z if p is None else z + (rho_new / rho) * p
            rho = rho_new
            q = np.asarray(apply_A(p), dtype=float)
            curvature = float(p @ q)
            if not curvature > 0.0:
                raise BreakdownError("operator inner product <= 0")
            alpha = rho / curvature
            x = x + alpha * p
            r = r - alpha * q
            yield x, r

    return _iterate(apply_A, b, x0, stop, steps)


def cg_smooth_step(apply_A, P, x, b, steps=1):
    """Run `steps` PCG iterations from the iterate x (None is zero, which
    takes no product) and return the update; the Krylov space is built
    afresh on every call, which makes this usable as a multigrid smoother.

    The smallest positive tolerance leaves only a zero residual to stop
    the loop early, so reaching the exact solution returns it.
    """
    stop = StoppingRule(tol=np.finfo(float).tiny, max_iterations=steps)
    return pcg(apply_A, P, b, x0=x, stop=stop).solution
