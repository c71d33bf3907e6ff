import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

import dofde.quadrature
from conftest import C_INF_REF, K1_REF, K2_REF, laplacian_eigvec_transform
from dofde import (
    QuadResult,
    QuadratureConvergenceError,
    integrate_adaptive,
    limit_symbol,
    lower_bound_constant,
    norm_constant,
    norm_constant_limit,
    upper_bound_constant,
)

ANALYTIC_CASES = [
    (lambda x: x**2, 0.0, 1.0, 1.0 / 3.0),
    (np.sin, 0.0, np.pi, 2.0),
    (np.exp, 0.0, 1.0, np.e - 1.0),
    (lambda x: 1.0 / (1.0 + x**2), 0.0, 1.0, np.pi / 4.0),
    (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
    (np.cos, 0.0, 2.0 * np.pi, 0.0),
    (lambda x: np.exp(-(x**2)), 0.0, 5.0, np.sqrt(np.pi) / 2.0 * erf(5.0)),
    (lambda x: x**20, 0.0, 1.0, 1.0 / 21.0),
    (np.log1p, 0.0, 1.0, 2.0 * np.log(2.0) - 1.0),
    (lambda x: 1.0 / (2.0 + np.cos(x)), 0.0, 2.0 * np.pi, 2.0 * np.pi / np.sqrt(3.0)),
    (lambda x: np.cos(7.0 * x) * np.exp(x / 3.0), 0.0, 10.0,
     (np.exp(10.0 / 3.0) * (np.cos(70.0) / 3.0 + 7.0 * np.sin(70.0)) - 1.0 / 3.0)
     / (1.0 / 9.0 + 49.0)),
]


class TestIntegrateAdaptive:
    @pytest.mark.parametrize("f,a,b,exact", ANALYTIC_CASES)
    def test_analytic_integrals(self, f, a, b, exact):
        res = integrate_adaptive(f, a, b, tol=1e-10)
        assert res.value == pytest.approx(exact, abs=2e-10)

    def test_error_estimate_is_honest(self):
        res = integrate_adaptive(np.sin, 0.0, np.pi, tol=1e-10)
        assert abs(res.value - 2.0) <= max(res.abs_error_estimate, 1e-10)
        assert res.evaluations > 0

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.exp, 1.0, 1.0, tol=1e-10)

    def test_nonfinite_integrand_raises(self):
        def bad(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 0.5)

        with pytest.raises(QuadratureConvergenceError):
            integrate_adaptive(bad, 0.0, 1.0, tol=1e-10)

    def test_tol_validation(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 0.0, 1.0, tol=0.0)
        with pytest.raises(ValueError):
            lower_bound_constant(tol=1e-13)
        # NaN fails every comparison: a check written as `tol <= 0` lets it
        # through to bisect until the interval budget runs out
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 0.0, 1.0, tol=np.nan)
        for constant in (lower_bound_constant, upper_bound_constant, norm_constant_limit):
            with pytest.raises(ValueError):
                constant(tol=np.nan)

    def test_infinite_tol_rejected(self):
        # an infinite tol would accept the first estimate, whatever its error
        with pytest.raises(ValueError, match="^tol must be finite$"):
            integrate_adaptive(np.sin, 0.0, 100.0, tol=np.inf)

    @pytest.mark.parametrize(
        "constant", [lower_bound_constant, upper_bound_constant, norm_constant_limit])
    def test_constants_need_a_finite_tol(self, constant):
        # an infinite tol would pass every estimate, error included
        with pytest.raises(ValueError, match="finite"):
            constant(tol=np.inf)

    def test_matches_library_quadrature(self):
        # independent oracle: adaptive Clenshaw-Curtis/QAGS from scipy
        for f, a, b in [
            (lambda x: limit_symbol(x) if np.ndim(x) else limit_symbol(float(x)), 0.0, np.pi),
            (lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 4.0),
        ]:
            mine = integrate_adaptive(f, a, b, tol=1e-10).value
            ref, _ = quad(f, a, b, epsabs=1e-12, epsrel=1e-12)
            assert mine == pytest.approx(ref, abs=1e-9)


class TestBoundConstants:
    def test_lower_constant(self):
        assert lower_bound_constant(tol=1e-10).value == pytest.approx(K2_REF, abs=1e-9)

    def test_upper_constant(self):
        assert upper_bound_constant(tol=1e-8).value == pytest.approx(K1_REF, abs=1e-6)

    def test_limit_constant_is_pi_over_sqrt2(self):
        assert norm_constant_limit(tol=1e-8).value == pytest.approx(C_INF_REF, abs=5e-8)

    def test_detail_reports(self):
        res = lower_bound_constant(tol=1e-9)
        assert isinstance(res, QuadResult)
        assert res.abs_error_estimate >= 0.0
        assert abs(res.value - K2_REF) < 1e-8

    def test_tolerance_stability(self):
        loose = lower_bound_constant(tol=1e-8).value
        tight = lower_bound_constant(tol=1e-10).value
        assert loose == pytest.approx(tight, abs=1e-8)

    def test_bundle(self):
        k2 = lower_bound_constant(tol=1e-8).value
        k1 = upper_bound_constant(tol=1e-8).value
        c_infinity = norm_constant_limit(tol=1e-8).value
        assert k2 == pytest.approx(K2_REF, abs=1e-7)
        assert k1 == pytest.approx(K1_REF, abs=1e-5)
        assert c_infinity == pytest.approx(C_INF_REF, abs=1e-6)

    def test_bundle_ordering_enforced(self):
        k2 = lower_bound_constant(tol=1e-8).value
        k1 = upper_bound_constant(tol=1e-8).value
        assert 0.0 < k2 < k1
        assert norm_constant_limit(tol=1e-8).value > 0.0


class TestEvaluationSums:
    def test_results_add_field_by_field(self):
        total = QuadResult(1.0, 0.5, 3) + QuadResult(2.0, 0.25, 4)
        assert total == QuadResult(3.0, 0.75, 7)

    @pytest.mark.parametrize(
        "constant", [lower_bound_constant, upper_bound_constant, norm_constant_limit])
    def test_evaluations_are_every_calls_sum(self, constant, monkeypatch):
        # every integrand evaluation is made inside integrate_adaptive, so
        # a piece dropped from a constant's QuadResult sum shows here
        calls = []
        original = dofde.quadrature.integrate_adaptive

        def recorder(*args, **kwargs):
            calls.append(original(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(dofde.quadrature, "integrate_adaptive", recorder)
        result = constant(tol=1e-8)
        assert len(calls) >= (1 if constant is lower_bound_constant else 3)
        assert result.evaluations == sum(call.evaluations for call in calls)

    def test_tail_is_a_result_with_its_majorant(self):
        # no block is integrated once the majorant is under the target
        tail = dofde.quadrature._integrate_dyadic_tail(np.exp, 1.0, 1e-8, lambda u: 1e-3, 1e-2)
        assert tail == QuadResult(0.0, 1e-3, 0)


class TestNormConstant:
    def test_small_order_frozen(self):
        assert norm_constant(8) == pytest.approx(2.1766028638317773718, rel=1e-15)

    def test_large_order_frozen(self):
        assert norm_constant(1024) == pytest.approx(2.2214379910322742, rel=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 256))
    @example(n=2)
    @example(n=3)
    @example(n=255)
    @example(n=256)
    @example(n=512)
    def test_closed_form_matches_quadrature(self, n):
        # the definition c_n = ((1/pi) int_0^pi |psi|^2)^(-1/2), psi by its
        # direct n-term sum, integrated by QUADPACK split at s = pi/(n+1)
        def mod_sq(theta):
            return abs(laplacian_eigvec_transform(n, theta)) ** 2

        s = np.pi / (n + 1)
        integral = sum(
            quad(mod_sq, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
            for lo, hi in ((0.0, s), (s, np.pi))
        )
        assert norm_constant(n) == pytest.approx((integral / np.pi) ** -0.5, rel=1e-12)

    def test_converges_to_limit(self):
        # the normalization sequence approaches pi/sqrt(2) from below
        c64 = norm_constant(64)
        c512 = norm_constant(512)
        assert abs(c512 - C_INF_REF) < abs(c64 - C_INF_REF)
        assert abs(c512 - C_INF_REF) < 1e-4

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            norm_constant(1)
