import dataclasses

import numpy as np
import pytest

import conftest as shared
import dofde.krylov
from dofde import (
    BreakdownError,
    PrecKind,
    SolveReport,
    StoppingRule,
    ToeplitzOperator,
    build_identity,
    build_laplacian,
    cg_smooth_step,
    pcg,
)


def scaled_operator(n):
    return ToeplitzOperator(shared.scaled_coeffs(n))


def iteration_count(n, kind, b=None):
    op = scaled_operator(n)
    P = shared.build_prec(kind, n)
    rhs = np.ones(n) if b is None else b
    return pcg(op, P, rhs).iterations


class TestPcgBasics:
    def test_identity_system_one_iteration(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal(30)
        report = pcg(lambda x: x, build_identity(30), b)
        assert report.converged
        assert report.iterations == 1
        np.testing.assert_allclose(report.solution, b, rtol=1e-12)

    def test_report_contract(self):
        report = pcg(scaled_operator(32), build_identity(32), np.ones(32))
        assert isinstance(report, SolveReport)
        assert len(report.residual_history) == report.iterations + 1
        assert report.converged
        assert report.residual_history[-1] < 1e-7

    def test_zero_rhs(self):
        report = pcg(scaled_operator(16), build_identity(16), np.zeros(16))
        assert report.converged
        assert report.iterations == 0
        np.testing.assert_array_equal(report.solution, np.zeros(16))

    def test_warm_start_at_solution(self):
        n = 20
        op = scaled_operator(n)
        b = np.ones(n)
        x_star = pcg(op, shared.build_prec(PrecKind.NATURAL_TAU, n), b).solution
        report = pcg(op, build_identity(n), b, x0=x_star)
        assert report.iterations == 0

    def test_accuracy_against_direct_solve(self):
        for n in (32, 128, 512):
            A = np.asarray(shared.dense_scaled(n))
            b = np.ones(n)
            x_ref = np.linalg.solve(A, b)
            report = pcg(
                scaled_operator(n), shared.build_prec(PrecKind.NATURAL_TAU, n), b
            )
            rel = np.linalg.norm(report.solution - x_ref) / np.linalg.norm(x_ref)
            assert rel < 1e-5

    def test_max_iterations_returns_unconverged(self):
        report = pcg(
            scaled_operator(64), build_identity(64), np.ones(64),
            stop=StoppingRule(max_iterations=3),
        )
        assert not report.converged
        assert report.iterations == 3
        assert len(report.residual_history) == 4

    def test_breakdown_on_indefinite_operator(self):
        with pytest.raises(BreakdownError):
            pcg(lambda x: -x, build_identity(8), np.ones(8))

    def test_stopping_rule_validation(self):
        with pytest.raises(ValueError):
            StoppingRule(tol=0.0)
        with pytest.raises(ValueError):
            StoppingRule(tol=np.nan)
        with pytest.raises(ValueError):
            StoppingRule(max_iterations=0)
        assert StoppingRule().resolve_max(100) == 1000

    @pytest.mark.parametrize("rule", [{"tol": np.inf}, {"max_iterations": 2.5},
                                      {"max_iterations": -np.inf}, {"max_iterations": "3"}])
    def test_stopping_rule_needs_finite_tol_and_integral_cap(self, rule):
        with pytest.raises(ValueError):
            StoppingRule(**rule)

    def test_numpy_integer_cap_counts_as_int(self):
        report = pcg(scaled_operator(64), build_identity(64), np.ones(64),
                     stop=StoppingRule(max_iterations=np.int64(3)))
        assert type(report.iterations) is int and report.iterations == 3

    def test_report_derives_its_step_count(self):
        # the count is read from the history, so the two cannot disagree
        assert [f.name for f in dataclasses.fields(SolveReport)] == [
            "residual_history", "converged", "solution"]
        report = SolveReport(np.array([1.0, 0.5, 0.25]), False, np.zeros(2))
        assert report.iterations == 2

    @pytest.mark.parametrize("cap", [1, 3])
    def test_nan_residual_never_converges(self, cap):
        def steps(x, r):
            while True:
                yield x, np.full_like(r, np.nan)

        report = dofde.krylov._iterate(lambda x: x, np.ones(4), None,
                                       StoppingRule(max_iterations=cap), steps)
        assert not report.converged and report.iterations == cap

    def test_x0_length_checked(self):
        with pytest.raises(ValueError):
            pcg(lambda x: x, build_identity(4), np.ones(4), x0=np.ones(5))

    def test_preconditioner_breakdown_precedes_the_first_step(self, monkeypatch):
        # a non-positive r.z stops the solve before its first operator
        # product; from zero the initial residual is b and takes none
        monkeypatch.setattr(dofde.krylov, "apply_inverse", lambda prec, r: -r)
        matvecs = []
        with pytest.raises(BreakdownError, match="preconditioned inner product"):
            pcg(lambda x: matvecs.append(x) or x, build_identity(8), np.ones(8))
        assert len(matvecs) == 0

    def test_zero_start_takes_no_product_before_its_first_step(self, operator_products):
        # each step takes one product; the initial residual of zero is b
        op = scaled_operator(64)
        for cap in (1, 2, 5):
            operator_products[0] = 0
            report = pcg(op, build_identity(64), np.ones(64),
                         stop=StoppingRule(tol=np.finfo(float).tiny, max_iterations=cap))
            assert report.iterations == cap
            assert operator_products[0] == cap

    def test_smoother_from_none_is_from_zero(self, operator_products):
        op, P = scaled_operator(32), build_laplacian(32)
        b = np.random.default_rng(3).standard_normal(32)
        x = cg_smooth_step(op, P, None, b, 2)
        assert operator_products[0] == 2
        np.testing.assert_array_equal(x, cg_smooth_step(op, P, np.zeros(32), b, 2))

    def test_nan_right_hand_side_breaks_down(self):
        # NaN fails every positivity test, so the solve stops on its first
        # step instead of running to the iteration cap
        b = np.ones(8)
        b[0] = np.nan
        with pytest.raises(BreakdownError, match="preconditioned inner product"):
            pcg(scaled_operator(8), build_identity(8), b)


class TestIterationCounts:
    def test_natural_tau_small(self):
        # published count for this setup is 5
        assert iteration_count(128, PrecKind.NATURAL_TAU) in range(3, 8)

    def test_unpreconditioned_reference_size(self):
        # with a generic right-hand side the count lands on the published 73
        e1 = np.zeros(64)
        e1[0] = 1.0
        count = iteration_count(64, PrecKind.IDENTITY, b=e1)
        assert 58 <= count <= 88

    def test_tau_counts_stay_bounded(self):
        for n in (32, 128, 512):
            assert iteration_count(n, PrecKind.NATURAL_TAU) <= 7
            assert iteration_count(n, PrecKind.FROBENIUS_TAU) <= 7

    def test_unpreconditioned_doubles(self):
        ratio = iteration_count(64, PrecKind.IDENTITY) / iteration_count(
            32, PrecKind.IDENTITY
        )
        assert 1.6 <= ratio <= 2.4

    def test_frobenius_circulant_sqrt_growth(self):
        ratio = iteration_count(2048, PrecKind.FROBENIUS_CIRCULANT) / iteration_count(
            512, PrecKind.FROBENIUS_CIRCULANT
        )
        assert 1.5 <= ratio <= 2.5


class TestRightHandSideParity:
    def test_ones_stays_flip_symmetric_and_halves_the_count(self):
        # why acceptance criterion 5 does not solve with b = ones
        n = 64
        A = np.asarray(shared.dense_scaled(n))
        # symmetric Toeplitz: A_n commutes with the flip J
        np.testing.assert_array_equal(A[::-1, ::-1], A)

        op = scaled_operator(n)
        P = build_identity(n)

        def odd_part(b, k):
            x = pcg(op, P, b, stop=StoppingRule(max_iterations=k)).solution
            return np.linalg.norm(x - x[::-1]) / np.linalg.norm(x)

        ones = np.ones(n)
        count_ones = pcg(op, P, ones).iterations
        # In exact arithmetic every iterate from J-even ones is J-even.  In
        # floating point the odd part starts at rounding level and the CG
        # polynomial amplifies it late in the solve (2.8e-5 at worst here),
        # far below the O(1) odd part a generic right-hand side carries.
        assert max(odd_part(ones, k) for k in range(1, count_ones + 1)) <= 1e-2

        manufactured = shared.manufactured_rhs(n)
        count_manufactured = pcg(op, P, manufactured).iterations
        assert odd_part(manufactured, 1) >= 0.5
        assert count_ones <= 0.6 * count_manufactured


class TestSmoothStep:
    def test_exact_preconditioner_lands_in_one_step(self):
        n = 31
        P = build_laplacian(n)
        A = (
            np.diag(np.full(n, 2.0))
            - np.diag(np.ones(n - 1), 1)
            - np.diag(np.ones(n - 1), -1)
        )
        rng = np.random.default_rng(14)
        b = rng.standard_normal(n)
        x = cg_smooth_step(lambda v: A @ v, P, np.zeros(n), b, steps=1)
        np.testing.assert_allclose(A @ x, b, atol=1e-10, rtol=0)

    def test_errors_decrease_monotonically_in_energy_norm(self):
        n = 64
        A = np.asarray(shared.dense_scaled(n))
        b = np.ones(n)
        x_ref = np.linalg.solve(A, b)
        P = shared.build_prec(PrecKind.NATURAL_TAU, n)
        x = np.zeros(n)
        energies = []
        for _ in range(6):
            e = x - x_ref
            energies.append(float(e @ (A @ e)))
            x = cg_smooth_step(lambda v: A @ v, P, x, b, steps=1)
        assert all(b < a * (1 + 1e-12) for a, b in zip(energies, energies[1:]))

    def test_restart_semantics(self):
        # two single-step calls differ from one two-step call: the second
        # call rebuilds its Krylov space from the new iterate
        n = 48
        A = np.asarray(shared.dense_scaled(n))
        b = np.ones(n)
        P = build_identity(n)
        one_then_one = cg_smooth_step(
            lambda v: A @ v, P, cg_smooth_step(lambda v: A @ v, P, np.zeros(n), b, 1), b, 1
        )
        two = cg_smooth_step(lambda v: A @ v, P, np.zeros(n), b, 2)
        assert np.linalg.norm(one_then_one - two) > 1e-12

    def test_early_exit_at_solution(self):
        n = 10
        P = build_laplacian(n)
        A = (
            np.diag(np.full(n, 2.0))
            - np.diag(np.ones(n - 1), 1)
            - np.diag(np.ones(n - 1), -1)
        )
        b = np.ones(n)
        x_star = np.linalg.solve(A, b)
        out = cg_smooth_step(lambda v: A @ v, P, x_star, b, steps=3)
        np.testing.assert_allclose(out, x_star, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_one_preconditioner_apply_per_step(self, monkeypatch, steps):
        # no apply is formed for a step past the last one permitted
        n = 64
        op = scaled_operator(n)
        P = shared.build_prec(PrecKind.NATURAL_TAU, n)
        calls = []
        original = dofde.krylov.apply_inverse
        monkeypatch.setattr(dofde.krylov, "apply_inverse",
                            lambda prec, r: calls.append(r) or original(prec, r))
        cg_smooth_step(op, P, np.zeros(n), np.ones(n), steps=steps)
        assert len(calls) == steps
        calls.clear()
        report = pcg(op, build_identity(n), np.ones(n),
                     stop=StoppingRule(max_iterations=steps))
        assert not report.converged and report.iterations == steps
        assert len(calls) == steps

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            cg_smooth_step(lambda v: v, build_identity(3), np.zeros(3), np.ones(3), 0)
