"""The orthonormal DST-I, the sine transform of the tau algebra.

The DST-I matrix is the symmetric involutory
Q_jk = sqrt(2/(n+1)) * sin(j*k*pi/(n+1)).

Every Toeplitz product and every preconditioner inverse runs on
`toeplitz._product`, one rfft helper at a power-of-two length, and
coefficient sampling takes an rfft too.  dst1 remains for the one vector
transform of the sine-domain spectral blocks.  numpy's complex FFT
remains only where a spectrum or a kernel is formed: the circulant
eigenvalues, the first columns of their inverse and inverse square root
(ifft), and the tau spectra's cosine sums, where an rfft would move
printed digits of the recorded tables.
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
