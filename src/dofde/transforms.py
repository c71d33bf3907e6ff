"""The orthonormal DST-I, the sine transform of the tau algebra.

The DST-I matrix is the symmetric involutory
Q_jk = sqrt(2/(n+1)) * sin(j*k*pi/(n+1)).

Every Toeplitz product runs on `toeplitz._product`, one rfft helper.
numpy's complex FFT remains only in the circulant family, which divides
by its spectrum at length n (moving that onto the helper is a change of
its own), and in coefficient sampling and the tau spectra's cosine
sums, where an rfft moves printed digits of the recorded tables.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dst1"]


def dst1(x):
    """Orthonormal DST-I of a vector: multiply by
    Q_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)).

    Q is symmetric and involutory, so dst1 is its own inverse.  Computed
    through the imaginary part of a real FFT of the odd extension
    [0, x, 0, -reversed(x)] of length 2(n+1), which keeps only the
    n+2 non-negative frequencies.  Raises ValueError unless x is a
    non-empty vector.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("dst1 takes a non-empty vector")
    n = x.size
    ext = np.zeros(2 * (n + 1))
    ext[1 : n + 1] = x
    ext[n + 2 :] = -x[::-1]
    spec = np.fft.rfft(ext)
    return -0.5 * np.sqrt(2.0 / (n + 1)) * spec[1 : n + 1].imag
