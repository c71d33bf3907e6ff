from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import conftest as shared
import dofde.krylov
import dofde.multigrid
from dofde import (
    MGM_CASES,
    GridLevel,
    Hierarchy,
    StoppingRule,
    ToeplitzCoeffs,
    assemble_dense,
    build_hierarchy,
    gauss_seidel_sweep,
    prolong,
    restrict,
    tgm,
    vcycle,
)


def hierarchy(n):
    return build_hierarchy(shared.scaled_coeffs(n))


def level(a):
    a = np.asarray(a, dtype=float)
    return GridLevel(ToeplitzCoeffs(a.size, a))


@st.composite
def random_system(draw):
    """n = 2^k - 1, k = 2..9, and random symmetric Toeplitz coefficients
    of a random bandwidth whose symbol is nonnegative."""
    n = 2 ** draw(st.integers(2, 9)) - 1
    width = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return shared.nonnegative_symbol_coeffs(n, rng, width)


class TestRestriction:
    def test_smallest(self):
        np.testing.assert_array_equal(restrict([1.0, 10.0, 100.0]), [121.0])

    def test_stencil_placement(self):
        R = np.column_stack([restrict(e) for e in np.eye(7)])
        assert R.shape == (3, 7)
        expected = np.zeros((3, 7))
        for i in range(3):
            expected[i, 2 * i : 2 * i + 3] = [1.0, 2.0, 1.0]
        np.testing.assert_array_equal(R, expected)
        P = np.column_stack([prolong(e) for e in np.eye(3)])
        np.testing.assert_array_equal(P, expected.T)

    def test_constant_vector(self):
        np.testing.assert_allclose(restrict(np.full(15, 3.0)), np.full(7, 12.0))

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            restrict(np.ones(8))
        with pytest.raises(ValueError):
            restrict(np.ones(1))

    @pytest.mark.parametrize("transfer, x", [
        (restrict, np.ones((7, 2))),
        (restrict, np.array(2.0)),
        (restrict, np.ones(8)),
        (restrict, np.ones(1)),
        (prolong, np.ones((3, 2))),
        (prolong, np.array(2.0)),
        (prolong, np.float64(2.0)),
    ], ids=["restrict-7x2", "restrict-0d", "restrict-even", "restrict-short",
            "prolong-3x2", "prolong-0d", "prolong-scalar"])
    def test_only_vectors_of_a_valid_length_accepted(self, transfer, x):
        with pytest.raises(ValueError):
            transfer(x)

    @settings(deadline=None)
    @given(k=st.integers(2, 9), seed=st.integers(0, 2**32 - 1))
    def test_stencils_equal_sparse_oracle(self, k, seed):
        n = 2**k - 1
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(n), rng.standard_normal((n - 1) // 2)
        R = shared.build_restriction(n)
        np.testing.assert_array_equal(restrict(x), R @ x)
        np.testing.assert_array_equal(prolong(y), R.T @ y)

    @settings(deadline=None)
    @given(y=st.integers(0, 1100).flatmap(lambda m: arrays(np.float64, m)))
    @example(y=np.arange(1.0, 8.0))
    @example(y=np.linspace(-1.0, 1.0, 63))
    @example(y=np.random.default_rng(1023).standard_normal(1023))
    def test_prolong_equals_concatenated_form(self, y):
        # the even entries are y_k + y_(k-1) in the same operand order as
        # [y, 0] + [0, y]: equal as floats, overflow, inf and NaN included
        # (a first entry of -0.0 stays -0.0 where y_0 + 0.0 gave +0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_array_equal(prolong(y), shared.prolong_concatenated(y))


class TestHierarchy:
    def test_galerkin_triple_product(self):
        c = shared.laplacian_coeffs(7)
        h = build_hierarchy(c)
        A = assemble_dense(c)
        R = shared.build_restriction(7).toarray()
        coarse = assemble_dense(h.levels[1].coeffs)
        np.testing.assert_allclose(coarse, R @ A @ R.T, atol=1e-13, rtol=0)
        assert np.all(np.diag(coarse) > 0)
        # tridiagonal: nothing beyond the first off-diagonal
        assert abs(coarse[0, 2]) < 1e-14

    @settings(deadline=None, max_examples=60)
    @given(c=random_system())
    @example(c=shared.nonnegative_symbol_coeffs(3, np.random.default_rng(3)))
    @example(c=shared.nonnegative_symbol_coeffs(7, np.random.default_rng(7)))
    @example(c=shared.nonnegative_symbol_coeffs(15, np.random.default_rng(15)))
    def test_recurrence_matches_dense_galerkin_oracle(self, c):
        # every hierarchy coarsens at least once, then down to order 15
        h = build_hierarchy(c)
        k = c.n.bit_length()
        assert [lv.n for lv in h.levels] == [2**j - 1 for j in range(k, min(k - 1, 4) - 1, -1)]
        dense = assemble_dense(c)
        for lv in h.levels[1:]:
            dense = shared.galerkin_dense(dense)
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(assemble_dense(lv.coeffs) - dense)) <= 1e-13 * scale

    def test_threshold_stops_after_one_coarsening(self):
        assert [m.shape[0] for m in hierarchy(31).matrices] == [31, 15]

    def test_every_level_symmetric(self):
        # levels are stored as symmetric Toeplitz columns; Galerkin
        # coarsening must also keep every one positive definite
        h = hierarchy(63)
        for lv in h.levels:
            M = assemble_dense(lv.coeffs)
            assert np.abs(M - M.T).max() == 0.0
            assert np.linalg.eigvalsh(M)[0] > 0.0

    def test_size_validation(self):
        for n in (6, 9):
            with pytest.raises(ValueError):
                build_hierarchy(ToeplitzCoeffs(n, np.eye(n)[0]))
        with pytest.raises(TypeError):
            build_hierarchy(np.eye(7))

    def test_galerkin_consistency(self):
        # at the exact solution the restricted residual vanishes
        n = 31
        A = np.asarray(shared.dense_scaled(n))
        b = np.ones(n)
        x_star = np.linalg.solve(A, b)
        coarse_residual = restrict(b - hierarchy(n).levels[0].matvec(x_star))
        assert np.abs(coarse_residual).max() < 1e-12


class TestGaussSeidel:
    def test_diagonal_system_one_sweep(self):
        b = np.array([2.0, 8.0, 32.0])
        x = gauss_seidel_sweep(level([2.0, 0.0, 0.0]), np.zeros(3), b, sweeps=1)
        np.testing.assert_allclose(x, [1.0, 4.0, 16.0], atol=1e-14, rtol=0)

    def test_hand_worked_two_by_two(self):
        # [[2, 1], [1, 2]] from zero: x0 = 1/2, x1 = (2 - 1/2)/2
        b = np.array([1.0, 2.0])
        x = gauss_seidel_sweep(level([2.0, 1.0]), np.zeros(2), b, sweeps=1)
        np.testing.assert_allclose(x, [0.5, 0.75], atol=1e-14, rtol=0)

    def test_energy_error_non_increasing(self):
        rng = np.random.default_rng(77)
        c = shared.nonnegative_symbol_coeffs(12, rng)
        A = assemble_dense(c)
        b = rng.standard_normal(12)
        x_ref = np.linalg.solve(A, b)
        x = np.zeros(12)
        prev = np.inf
        for _ in range(5):
            x = gauss_seidel_sweep(GridLevel(c), x, b, sweeps=1)
            e = x - x_ref
            energy = float(e @ (A @ e))
            assert energy <= prev * (1 + 1e-12)
            prev = energy

    def test_from_none_is_from_zero_without_a_product(self, operator_products):
        # from zero the first sweep is tril(T)^{-1} b; each later sweep
        # takes one product for its residual
        rng = np.random.default_rng(5)
        c = shared.nonnegative_symbol_coeffs(31, rng)
        lv, b = GridLevel(c), rng.standard_normal(31)
        for sweeps in (1, 2, 3):
            operator_products[0] = 0
            x = gauss_seidel_sweep(lv, None, b, sweeps=sweeps)
            assert operator_products[0] == sweeps - 1
            np.testing.assert_array_equal(x, gauss_seidel_sweep(lv, np.zeros(31), b, sweeps))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            gauss_seidel_sweep(level([0.0, 1.0]), np.zeros(2), np.ones(2))

    @pytest.mark.parametrize("sweeps", [0, -3])
    def test_sweep_count_validated(self, sweeps):
        with pytest.raises(ValueError, match="sweeps"):
            gauss_seidel_sweep(level([2.0, 1.0]), np.zeros(2), np.ones(2), sweeps=sweeps)

    @settings(deadline=None, max_examples=60)
    @given(c=random_system(), seed=st.integers(0, 2**32 - 1), sweeps=st.integers(1, 3))
    def test_matches_dense_oracle(self, c, seed, sweeps):
        rng = np.random.default_rng(seed)
        x, b = rng.standard_normal((2, c.n))
        A = assemble_dense(c)
        expected = x
        for _ in range(sweeps):
            expected = shared.gauss_seidel_dense(A, expected, b)
        got = gauss_seidel_sweep(GridLevel(c), x, b, sweeps=sweeps)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=1)
    @example(n=2, seed=2)
    def test_solve_lower_matches_dense_triangular_solve(self, n, seed):
        rng = np.random.default_rng(seed)
        c = shared.nonnegative_symbol_coeffs(n, rng, int(rng.integers(1, n + 1)))
        r = rng.standard_normal(n)
        expected = np.linalg.solve(np.tril(assemble_dense(c)), r)
        got = GridLevel(c).solve_lower(r)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestExactSolve:
    @settings(deadline=None, max_examples=60)
    @given(c=random_system(), seed=st.integers(0, 2**32 - 1))
    @example(c=ToeplitzCoeffs(1, np.array([0.5])), seed=1)
    @example(c=ToeplitzCoeffs(3, np.array([4.0, -1.5, 0.5])), seed=3)
    @example(c=shared.laplacian_coeffs(255), seed=255)
    def test_matches_dense_cholesky_oracle(self, c, seed):
        b = np.random.default_rng(seed).standard_normal(c.n)
        T = assemble_dense(c)
        x = GridLevel(c).solve(b)
        assert np.linalg.norm(b - T @ x) <= 1e-11 * np.linalg.norm(b)
        # a backward error of 1e-11 allows a forward error of cond(T) times it
        expected = shared.cholesky_solve_dense(c, b)
        assert (np.linalg.norm(x - expected)
                <= 1e-11 * np.linalg.cond(T) * np.linalg.norm(expected))

    def test_unconverged_first_column_raises(self, monkeypatch):
        # an inverse generated from an inexact T^{-1} e_1 is never used
        monkeypatch.setattr(dofde.krylov, "pcg", shared.one_step_pcg)
        c = shared.nonnegative_symbol_coeffs(7, np.random.default_rng(7))
        with pytest.raises(ValueError, match="T\\^-1 e_1"):
            GridLevel(c).solve(np.ones(7))

    def test_nonpositive_first_entry_raises(self, monkeypatch):
        # x_0 = e_1^T T^{-1} e_1 is positive for an SPD T, and the inverse
        # divides by it; a solve that hands back -x converges, and so does
        # its refinement (negated too), but x_0 comes out negative, which
        # the level refuses as the spectral layer does
        pcg = dofde.krylov.pcg

        def negated(*args, **kwargs):
            report = pcg(*args, **kwargs)
            return replace(report, solution=-report.solution)

        monkeypatch.setattr(dofde.krylov, "pcg", negated)
        c = shared.nonnegative_symbol_coeffs(7, np.random.default_rng(7))
        with pytest.raises(ValueError, match="converged True, x_0 = -"):
            GridLevel(c).solve(np.ones(7))


class TestCaseConfigs:
    def test_case_table(self):
        assert list(MGM_CASES) == ["alpha", "beta", "gamma", "delta", "finest_only"]
        for finest, coarse in MGM_CASES.values():
            for method, steps in finest + coarse:
                assert method in ("gs", "laplacian", "natural_tau", "frobenius_tau")
                assert steps >= 1
        # natural tau smooths the finest level and Frobenius tau the others;
        # gamma smooths once before and once after, delta twice after;
        # finest_only falls back to Gauss-Seidel below the finest level
        assert MGM_CASES["beta"] == ((("gs", 1), ("natural_tau", 1)),
                                     (("gs", 1), ("frobenius_tau", 1)))
        assert MGM_CASES["gamma"] == ((("laplacian", 1), ("natural_tau", 1)),
                                      (("laplacian", 1), ("frobenius_tau", 1)))
        assert MGM_CASES["delta"] == ((("laplacian", 1), ("natural_tau", 2)),
                                      (("laplacian", 1), ("frobenius_tau", 2)))
        assert MGM_CASES["finest_only"][0] == (("laplacian", 1), ("natural_tau", 1))
        assert MGM_CASES["finest_only"][1] == MGM_CASES["alpha"][1]

    def test_unknown_case_rejected(self):
        b = np.ones(63)
        for name in ("epsilon", "Alpha", ""):
            with pytest.raises(ValueError, match="unknown multigrid case"):
                vcycle(hierarchy(63), name, b)
            with pytest.raises(ValueError, match="unknown multigrid case"):
                tgm(hierarchy(63), name, b)
        with pytest.raises(ValueError, match="unknown multigrid case"):
            vcycle(hierarchy(31), "epsilon", np.zeros(31))

    def test_smoothers_looked_up_at_call_time(self, monkeypatch):
        # the traced benchmark wraps these module globals after import
        calls = {"gauss_seidel_sweep": 0, "cg_smooth_step": 0}
        for name in calls:
            original = getattr(dofde.multigrid, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(dofde.multigrid, name, counted)
        report = vcycle(hierarchy(63), "beta", np.ones(63))
        assert report.converged
        # one presweep and one PCG postsmoothing step per non-coarsest level
        assert calls["gauss_seidel_sweep"] == calls["cg_smooth_step"] == 2 * report.iterations

    def test_each_level_builds_each_kind_once(self, monkeypatch):
        # the smoothers and the exact solves of every case share one
        # preconditioner per level and kind
        built = []
        original = dofde.multigrid.build_preconditioner

        def counted(kind, c):
            built.append((c.n, kind.value))
            return original(kind, c)

        monkeypatch.setattr(dofde.multigrid, "build_preconditioner", counted)
        h = hierarchy(63)
        for case in MGM_CASES:
            assert tgm(h, case, np.ones(63)).converged
            assert vcycle(h, case, np.ones(63)).converged
        assert sorted(built) == sorted([(63, "laplacian"), (63, "natural_tau"),
                                        (31, "laplacian"), (31, "frobenius_tau"),
                                        (15, "frobenius_tau")])


class TestProductCounts:
    # products of A in one cycle and its true residual, the exact coarse
    # solves already built: per smoothed level, a pre-smoother from zero
    # forms no residual (a Gauss-Seidel sweep takes none, a PCG step one),
    # the coarse right-hand side takes one, a Gauss-Seidel post-smoother
    # one and s PCG post-steps s + 1; alpha, gamma and delta make 2, 4 and
    # 5 per level, and the true residual adds one
    VCYCLE = {63: (5, 9, 11), 2047: (15, 29, 36)}
    TGM = (3, 5, 6)

    @pytest.mark.parametrize("n", [63, 2047])
    @pytest.mark.parametrize("solver", [vcycle, tgm], ids=["vcycle", "tgm"])
    def test_one_cycle(self, operator_products, solver, n):
        h = hierarchy(n)
        stop = StoppingRule(tol=np.finfo(float).tiny, max_iterations=1)
        counts = []
        for case in ("alpha", "gamma", "delta"):
            solver(h, case, np.ones(n), stop=stop)
            operator_products[0] = 0
            assert solver(h, case, np.ones(n), stop=stop).iterations == 1
            counts.append(operator_products[0])
        assert tuple(counts) == (self.VCYCLE[n] if solver is vcycle else self.TGM)


class TestCycleOracle:
    @settings(deadline=None, max_examples=40)
    @given(k=st.integers(3, 8), seed=st.integers(0, 2**32 - 1),
           case=st.sampled_from(list(MGM_CASES)), two_grid=st.booleans())
    def test_matches_x_form_cycle(self, k, seed, case, two_grid):
        # the correction form computes the V-cycle the package ran in
        # x-form (`conftest.x_form_cycle`), up to rounding
        n = 2**k - 1
        rng = np.random.default_rng(seed)
        c = shared.nonnegative_symbol_coeffs(n, rng, int(rng.integers(1, n + 1)))
        b = rng.standard_normal(n)
        h = build_hierarchy(c)
        solver, levels = (tgm, h.levels[:2]) if two_grid else (vcycle, h.levels)
        expected = shared.x_form_iterates(levels, case, b, 3)
        for cycles in (1, 2, 3):
            stop = StoppingRule(tol=np.finfo(float).tiny, max_iterations=cycles)
            got = solver(h, case, b, stop=stop).solution
            x = expected[cycles - 1]
            assert np.linalg.norm(got - x) <= 1e-10 * np.linalg.norm(x), (cycles, case)


class TestSolvers:
    def test_exact_smoother_converges_immediately(self):
        # on the pure stencil matrix the Laplacian smoother is exact
        n = 15
        h = build_hierarchy(shared.laplacian_coeffs(n))
        report = tgm(h, "gamma", np.ones(n))
        assert report.converged
        assert report.iterations == 1

    def test_alpha_count_smallest_size(self):
        report = vcycle(hierarchy(31), "alpha", np.ones(31))
        assert report.converged
        assert 8 <= report.iterations <= 10

    def test_gamma_count_midrange(self):
        report = vcycle(hierarchy(511), "gamma", np.ones(511))
        assert 2 <= report.iterations <= 4

    def test_delta_count(self):
        for n in (63, 127):
            report = vcycle(hierarchy(n), "delta", np.ones(n))
            assert 1 <= report.iterations <= 3

    def test_beta_two_grid_count(self):
        report = tgm(hierarchy(63), "beta", np.ones(63))
        assert 3 <= report.iterations <= 5

    def test_finest_only_count(self):
        report = vcycle(hierarchy(127), "finest_only", np.ones(127))
        assert 2 <= report.iterations <= 4

    def test_two_grid_matches_vcycle_counts(self):
        n = 63
        h = hierarchy(n)
        for case in ("alpha", "beta", "gamma", "delta"):
            t = tgm(h, case, np.ones(n))
            v = vcycle(h, case, np.ones(n))
            assert t.iterations == v.iterations

    def test_h_independence(self):
        for case in ("beta", "gamma", "delta"):
            counts = [
                vcycle(hierarchy(n), case, np.ones(n)).iterations
                for n in (31, 63, 127, 255)
            ]
            assert max(counts) - min(counts) <= 2

    def test_residuals_decrease_monotonically(self):
        n = 63
        for case in ("alpha", "beta", "gamma", "delta"):
            report = vcycle(hierarchy(n), case, np.ones(n))
            hist = report.residual_history
            assert np.all(np.diff(hist) < 0)

    def test_two_grid_runs_first_two_levels(self):
        # the levels below the second never enter a two-grid solve
        for n in (63, 255):
            h = hierarchy(n)
            two = Hierarchy(build_hierarchy(shared.scaled_coeffs(n)).levels[:2])
            for case in MGM_CASES:
                full, first_two = tgm(h, case, np.ones(n)), tgm(two, case, np.ones(n))
                assert full.iterations == first_two.iterations, (n, case)
                np.testing.assert_array_equal(full.residual_history, first_two.residual_history)
                np.testing.assert_array_equal(full.solution, first_two.solution)

    def test_smallest_hierarchies_have_two_levels(self):
        # at n <= 15 the one coarsening reaches the coarsest size, so the
        # V-cycle is the two-grid method
        for n in (3, 7, 15):
            h = hierarchy(n)
            assert [lv.n for lv in h.levels] == [n, (n - 1) // 2]
            for case in MGM_CASES:
                v, t = vcycle(h, case, np.ones(n)), tgm(h, case, np.ones(n))
                assert v.iterations == t.iterations, (n, case)
                np.testing.assert_array_equal(v.residual_history, t.residual_history)
                np.testing.assert_array_equal(v.solution, t.solution)

    def test_max_iterations_unconverged(self):
        report = vcycle(
            hierarchy(31), "alpha", np.ones(31), stop=StoppingRule(max_iterations=2)
        )
        assert not report.converged
        assert report.iterations == 2

    def test_zero_rhs(self):
        report = vcycle(hierarchy(31), "alpha", np.zeros(31))
        assert report.converged and report.iterations == 0


class TestScale:
    def test_vcycles_at_65535(self):
        # the coefficient hierarchy keeps 8 (n + n/2 + ...) < 16 n bytes;
        # a dense finest level alone would take 34 GB at this size
        n = 2**16 - 1
        h = hierarchy(n)
        assert len(h.levels) == 13
        assert sum(m.nbytes for m in h.matrices) <= 16 * n
        # the residual's rounding floor here is 5e-8 to 9e-8, so cap the
        # cycles: a solve that misses 1e-7 fails instead of running 10 n
        stop = StoppingRule(tol=1e-7, max_iterations=30)
        for case in ("alpha", "gamma"):
            report = vcycle(h, case, np.ones(n), stop=stop)
            assert report.converged, case

    def test_two_grid_at_65535(self):
        # the exact coarse solve on order 32767 needs no dense level; the
        # cap as in test_vcycles_at_65535
        n = 2**16 - 1
        stop = StoppingRule(tol=1e-7, max_iterations=30)
        assert tgm(hierarchy(n), "gamma", np.ones(n), stop=stop).converged

    def test_two_grid_memory_at_8191(self):
        # a dense coarse level of order (n - 1)/2 alone would hold n^2/4
        # floats, about 2,000 n here; the hierarchy and the solve stay O(n)
        n = 8191
        c = shared.scaled_coeffs(n)
        peak, report = shared.peak_traced_bytes(
            lambda: tgm(build_hierarchy(c), "gamma", np.ones(n)))
        assert report.converged
        assert peak <= 64 * 8 * n
