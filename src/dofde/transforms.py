"""The orthonormal DST-I, the sine transform of the tau algebra.

The DST-I matrix is the symmetric involutory
Q_jk = sqrt(2/(n+1)) * sin(j*k*pi/(n+1)).  Complex FFTs are numpy's own
(np.fft.fft unnormalized, np.fft.ifft with the 1/N factor), called
directly where they are needed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dst1"]


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
