"""The tau-algebra transform and the orthonormal DST-I built on it.

The DST-I matrix is the symmetric involutory
Q_jk = sqrt(2/(n+1)) * sin(j*k*pi/(n+1)).

Every Toeplitz product and every preconditioner inverse runs on
`toeplitz._product`, one rfft helper at a power-of-two length, and
coefficient sampling takes an rfft too.  Every cosine or sine sum of the
tau algebra (the tau spectra, the sine kinds' inverse kernels, dst1) is
one zero-padded rfft of length 2(n+1), `_tau_transform`.  numpy's
complex FFT remains only for the circulants: their eigenvalues and the
first columns of their inverse and inverse square root (ifft).
"""

from __future__ import annotations

import numpy as np

__all__ = ["dst1"]


def _tau_transform(w, n):
    """rfft of [0, w_1, w_2, ...] zero-padded to length 2(n+1): entry j
    has real part sum_k w_k cos(j k pi/(n+1)) and imaginary part
    -sum_k w_k sin(j k pi/(n+1)), k = 1..len(w), for j = 0..n+1."""
    return np.fft.rfft(np.r_[0.0, w], 2 * (n + 1))


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
