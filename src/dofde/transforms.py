"""Trigonometric transforms: complex FFT and the orthonormal DST-I.

Conventions are fixed once here for the whole package: the forward FFT
is unnormalized, X_k = sum_j x_j exp(-2*pi*i*j*k/N), the inverse carries
the 1/N factor, and the DST-I matrix is the symmetric involutory
Q_jk = sqrt(2/(n+1)) * sin(j*k*pi/(n+1)).
"""

from __future__ import annotations

import numpy as np

__all__ = ["fft_forward", "fft_inverse", "dst1"]


def fft_forward(x):
    """Unnormalized forward DFT of a complex vector of any length."""
    x = np.asarray(x)
    if x.shape[-1] < 1:
        raise ValueError("empty input")
    return np.fft.fft(x)


def fft_inverse(x):
    """Inverse DFT with the 1/N normalization; fft_inverse(fft_forward(x)) == x."""
    x = np.asarray(x)
    if x.shape[-1] < 1:
        raise ValueError("empty input")
    return np.fft.ifft(x)


def dst1(x, axis=-1):
    """Orthonormal DST-I: multiply by Q_jk = sqrt(2/(n+1)) sin(jk pi/(n+1)).

    Q is symmetric and involutory, so dst1 is its own inverse.  Computed
    through the imaginary part of a real FFT of the odd extension
    [0, x, 0, -reversed(x)] of length 2(n+1), which keeps only the
    n+2 non-negative frequencies; accepts any real ndarray and
    transforms along `axis`.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[axis]
    if n < 1:
        raise ValueError("empty input")
    x = np.moveaxis(x, axis, -1)
    ext_shape = x.shape[:-1] + (2 * (n + 1),)
    ext = np.zeros(ext_shape)
    ext[..., 1 : n + 1] = x
    ext[..., n + 2 :] = -x[..., ::-1]
    spec = np.fft.rfft(ext)
    out = -0.5 * np.sqrt(2.0 / (n + 1)) * spec[..., 1 : n + 1].imag
    return np.moveaxis(out, -1, axis)
