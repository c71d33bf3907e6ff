import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest as shared
import dofde
from dofde import dst1
from dofde.transforms import _circulant_power, _circulant_transform


class TestDst1:
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_matches_dense_sine_matrix(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(dst1(x), shared.sine_matrix(n) @ x, rtol=0, atol=1e-13)

    @settings(deadline=None)
    @given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @example(n=63, seed=0)
    @example(n=64, seed=0)
    @example(n=100, seed=0)
    @example(n=255, seed=0)
    @example(n=256, seed=0)
    def test_matches_dense_sine_matrix_at_random_sizes(self, n, seed):
        # at 63 and 255 the transform length 2(n+1) is a power of two, at
        # 100 and 256 n+1 is a prime
        x = np.random.default_rng(seed).standard_normal(n)
        np.testing.assert_allclose(dst1(x), shared.sine_matrix(n) @ x, rtol=0, atol=1e-13)

    def test_involution(self):
        # the normalized sine matrix is symmetric orthogonal
        rng = np.random.default_rng(21)
        x = rng.standard_normal(40)
        np.testing.assert_allclose(dst1(dst1(x)), x, rtol=0, atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(25)
        assert np.linalg.norm(dst1(x)) == pytest.approx(np.linalg.norm(x), rel=1e-13)

    def test_rejects_matrix_input(self):
        # the package transforms vectors only; the test oracles transform
        # matrices with the explicit sine matrix
        for shape in [(7, 4), (1, 3), (0,), ()]:
            with pytest.raises(ValueError):
                dst1(np.ones(shape))

    def test_linearity(self):
        rng = np.random.default_rng(24)
        x, y = rng.standard_normal((2, 12))
        np.testing.assert_allclose(
            dst1(2.0 * x - 3.0 * y), 2.0 * dst1(x) - 3.0 * dst1(y), rtol=0, atol=1e-13
        )


class TestCirculantTransform:
    @settings(deadline=None)
    @given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @example(n=3, seed=0)
    @example(n=4, seed=0)
    @example(n=64, seed=0)
    @example(n=65, seed=0)
    @example(n=255, seed=0)
    @example(n=257, seed=0)
    def test_matches_complex_fft_and_inverts(self, n, seed):
        # for w even about index 0 (w_k = w_{n-k}) the DFT is real and
        # the inverse DFT is the same cosine sum divided by n
        w = np.random.default_rng(seed).standard_normal(n)
        w = w + w[-np.arange(n)]
        h = _circulant_transform(w)
        np.testing.assert_allclose(h, np.fft.fft(w).real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_circulant_transform(h) / n, w, rtol=0, atol=1e-13)

    @settings(deadline=None)
    @given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @example(n=3, seed=0)
    @example(n=64, seed=0)
    @example(n=65, seed=0)
    def test_power_matches_complex_fft(self, n, seed):
        # the squared moduli of any real z's DFT, in the float type of z
        z = np.random.default_rng(seed).standard_normal(n)
        np.testing.assert_allclose(_circulant_power(z), np.abs(np.fft.fft(z)) ** 2,
                                   rtol=1e-12, atol=1e-12 * n)
        assert _circulant_power(z.astype(np.longdouble)).dtype == np.longdouble


class TestImportCost:
    def test_package_import_loads_no_scipy(self):
        # numpy is the only runtime dependency; scipy is a test oracle.
        # Importing scipy.fft or scipy.linalg alone costs a quarter or more
        # of the package's import time, so no module may load any of scipy
        env = dict(os.environ)
        src = str(Path(dofde.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, dofde, dofde.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"
