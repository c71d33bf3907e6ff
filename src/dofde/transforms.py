"""The real transforms of the two preconditioner algebras, and the
orthonormal DST-I Q_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)) built on one.

Every transform in the package is a real rfft.  Toeplitz products and
the circulant and tau inverses run on `toeplitz._convolution` at a
power-of-two length (the Laplacian's inverse takes no transform), and
coefficient sampling takes one rfft.  Each cosine or sine sum of the tau
algebra (tau spectra, sine kinds' inverse kernels, dst1) is one
zero-padded rfft of length 2(n+1), `_tau_transform`; each cosine sum of
the circulants (spectra, and at n other than a power of two the first
columns of the inverse and inverse square root) is one rfft of length n,
mirrored, `_circulant_transform`, and so are the squared moduli of a
vector's DFT, against which the Rayleigh quotients weigh a circulant's
spectrum, `_circulant_power`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dst1"]


def _tau_transform(w, n):
    """rfft of [0, w_1, w_2, ...] zero-padded to length 2(n+1): entry j
    has real part sum_k w_k cos(j k pi/(n+1)) and imaginary part
    -sum_k w_k sin(j k pi/(n+1)), k = 1..len(w), for j = 0..n+1."""
    return np.fft.rfft(np.r_[0.0, w], 2 * (n + 1))


def _circulant_transform(w):
    """sum_k w_k cos(2 pi jk/n), j = 0..n-1, for a real w of length n:
    the DFT of a w even about 0 (w_k = w_{n-k}), and n times its inverse.
    The sum is even in j, so the rfft's real part is mirrored."""
    h = np.fft.rfft(w).real
    return np.r_[h, h[(len(w) - 1) // 2 : 0 : -1]]


def _circulant_power(z):
    """|sum_k z_k e^(-2 pi i jk/n)|^2, j = 0..n-1, for a real z of length
    n: the squared moduli of its DFT, even in j, so the rfft's are
    mirrored as in `_circulant_transform`."""
    h = np.fft.rfft(z)
    h = h.real**2 + h.imag**2
    return np.r_[h, h[(len(z) - 1) // 2 : 0 : -1]]


def dst1(x):
    """Orthonormal DST-I of a vector: multiply by
    Q_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)).

    Q is symmetric and involutory, so dst1 is its own inverse.  Computed
    as minus the imaginary part of the zero-padded rfft `_tau_transform`.
    Raises ValueError unless x is a non-empty vector.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dst1 takes a non-empty vector")
    n = x.size
    return -np.sqrt(2.0 / (n + 1)) * _tau_transform(x, n)[1 : n + 1].imag
