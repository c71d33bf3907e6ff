import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bound_correction,
    bound_correction_coeffs,
    laplacian_eigvec_transform,
    masked_dist_order_symbol,
    rescaled_remainder,
)
from dofde import build_laplacian, dist_order_symbol, limit_symbol
from dofde.quadrature import integrate_adaptive


def direct_sum(n, theta):
    # literal geometric sum, the definition the closed form must match
    theta = np.asarray(theta, dtype=float)
    x = n * np.abs(theta)
    total = np.zeros_like(theta)
    for j in range(n):
        with np.errstate(divide="ignore"):
            total += np.where(x > 0, x ** (-j / n), 1.0 if j == 0 else 0.0)
    return theta**2 * total


class TestDistOrderSymbol:
    @settings(deadline=None, max_examples=50)
    @given(n=st.integers(2, 5000),
           theta=st.lists(st.floats(-np.pi, np.pi), max_size=32),
           near=st.lists(st.floats(-1e-6, 1e-6), max_size=8))
    @example(n=2, theta=[1e-310, -5e-324, 2.2250738585072014e-308], near=[])
    def test_matches_masked_oracle(self, n, theta, near):
        # in place, bit for bit as on the gathered nonzero angles, at 0,
        # +-pi and on both branches: n|theta| within 1e-6 of 1 takes the
        # direct sum; a subnormal angle, where 1/(n|theta|) overflows, gives
        # 0 with no warning (the oracle gives NaN there)
        ones = (1.0 + np.array(near)) / n
        theta = np.r_[theta, 0.0, -0.0, np.pi, -np.pi, ones, -ones]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = dist_order_symbol(n, theta)
        subnormal = np.abs(theta) < np.finfo(float).tiny
        assert np.all(got[subnormal] == 0.0)
        np.testing.assert_array_equal(got[~subnormal],
                                      masked_dist_order_symbol(n, theta[~subnormal]))

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 8, 17, 64):
            theta = rng.uniform(1e-8, np.pi, size=50)
            np.testing.assert_allclose(
                dist_order_symbol(n, theta), direct_sum(n, theta),
                rtol=1e-12, atol=1e-300,
            )

    def test_zero_at_origin(self):
        assert dist_order_symbol(8, 0.0) == 0.0

    def test_even(self):
        theta = np.linspace(0.05, np.pi, 9)
        np.testing.assert_allclose(
            dist_order_symbol(12, theta), dist_order_symbol(12, -theta), rtol=1e-14
        )

    def test_frozen_value_at_pi(self):
        # high-precision reference, 30-digit arithmetic
        assert dist_order_symbol(8, np.pi) == pytest.approx(
            28.570521111135689275, rel=1e-13
        )

    def test_continuous_at_unit_argument(self):
        # x = n|theta| = 1 is removable: value is n theta^2 there
        n = 50
        theta = 1.0 / n
        assert dist_order_symbol(n, theta) == pytest.approx(n * theta**2, rel=1e-10)
        nearby = dist_order_symbol(n, theta * (1 + 1e-9))
        assert nearby == pytest.approx(n * theta**2, rel=1e-6)

    def test_positive_on_punctured_interval(self):
        theta = np.linspace(1e-6, np.pi, 200)
        assert np.all(dist_order_symbol(33, theta) > 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dist_order_symbol(8, 3.5)
        with pytest.raises(ValueError):
            dist_order_symbol(1, 0.5)


class TestLimitSymbol:
    def test_branch_values(self):
        assert limit_symbol(0.0) == 0.0
        assert limit_symbol(1.0) == 1.0

    def test_frozen_value(self):
        assert limit_symbol(np.e) == pytest.approx(4.6707742704716049919, rel=1e-13)

    def test_matches_definition(self):
        sigma = np.array([0.3, 0.9999, 1.0001, 2.0, 17.5])
        expected = (sigma**2 - sigma) / np.log(sigma)
        np.testing.assert_allclose(limit_symbol(sigma), expected, rtol=1e-10)

    def test_monotone_increasing(self):
        sigma = np.linspace(0.0, 40.0, 400)
        vals = limit_symbol(sigma)
        assert np.all(np.diff(vals) > 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            limit_symbol(-0.1)


class TestRescaledRemainder:
    def test_definition(self):
        # the n-term sum and g written out, not the helpers the remainder calls
        n, theta = 16, 0.7
        x = n * abs(theta)
        expected = n * direct_sum(n, theta) - (x**2 - x) / np.log(x)
        assert rescaled_remainder(n, theta) == pytest.approx(expected, rel=1e-14)

    def test_frozen_value(self):
        assert rescaled_remainder(64, np.pi / 2) == pytest.approx(
            79.10991508573797369, rel=1e-12
        )

    def test_growth_envelope(self):
        # |r_n| stays inside a fixed multiple of n theta^2 + |theta|
        theta = np.linspace(1e-4, np.pi, 300)
        for n in (16, 64, 256):
            ratio = np.abs(rescaled_remainder(n, theta)) / (n * theta**2 + theta)
            assert ratio.max() < 2.0


class TestLaplacianPieces:
    def test_symbol(self):
        # the Laplacian's spectrum samples its symbol 4 sin^2(theta/2)
        # at theta_j = j pi/(n+1)
        n = 40
        theta = np.arange(1, n + 1) * np.pi / (n + 1)
        np.testing.assert_allclose(
            np.sort(build_laplacian(n).spectrum), 4.0 * np.sin(theta / 2.0) ** 2,
            atol=1e-14, rtol=0,
        )

    def test_eigenfunction_frozen_modulus(self):
        val = laplacian_eigvec_transform(4, np.pi / 2)
        assert abs(val) == pytest.approx(0.15635160606788384, rel=1e-12)
        assert val.real == pytest.approx(0.11055728090000841, rel=1e-10)


class TestBoundCorrection:
    def test_vanishes_at_zero_crossing(self):
        # p(sigma) = 0 exactly where the folded growth factor hits k2
        sigma = np.linspace(0.0, np.pi, 64)
        vals = bound_correction(sigma)
        assert vals[0] == pytest.approx(bound_correction(0.0))
        # k2 is g's mean over a period, so p changes sign within [0, pi]
        assert vals.min() < 0 < vals.max()

    def test_periodicity(self):
        sigma = np.linspace(0.0, 2 * np.pi, 101)
        np.testing.assert_allclose(
            bound_correction(sigma + 2 * np.pi), bound_correction(sigma), atol=1e-10, rtol=0
        )

    def test_coefficients_vanish(self):
        # the first n cosine coefficients of p(n|theta|) are all zero:
        # the correction generates the zero matrix at order n
        for n in (4, 8):
            coeff = bound_correction_coeffs(n, n - 1)
            assert np.abs(coeff).max() < 1e-7

    def test_coefficient_oracle(self):
        # cross-check one coefficient against direct quadrature
        n, k = 6, 3
        res = integrate_adaptive(
            lambda t: bound_correction(n * np.abs(t)) * np.cos(k * t), 0.0, np.pi,
            tol=1e-11,
        )
        coeff = bound_correction_coeffs(n, n - 1)
        assert coeff[k] == pytest.approx(res.value / np.pi, abs=1e-9)

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            bound_correction_coeffs(4, 4)
