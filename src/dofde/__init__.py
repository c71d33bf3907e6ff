"""Distributed-order stiffness matrices: symbols, eigenvalue bounds,
preconditioned solvers, and the experiment runner.

Every public name is declared once, in its module's `__all__`; the
package re-exports them all.
"""

from .symbols import *
from .quadrature import *
from .transforms import *
from .toeplitz import *
from .preconditioners import *
from .krylov import *
from .multigrid import *
from .spectral import *
from . import krylov, multigrid, preconditioners, quadrature, spectral, symbols, toeplitz, transforms

__version__ = "0.1.0"

__all__ = [
    name
    for module in (symbols, quadrature, transforms, toeplitz, preconditioners, krylov,
                   multigrid, spectral)
    for name in module.__all__
]
