from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest as shared
import dofde.toeplitz
from dofde import (
    CoeffStabilizationError,
    GridLevel,
    ToeplitzCoeffs,
    ToeplitzOperator,
    apply_inverse,
    apply_inverse_sqrt,
    assemble_dense,
    build_frobenius_tau,
    build_identity,
    coeff_oracle,
    coeffs_via_fft,
    dist_order_symbol,
)


def rfft_lengths(patch):
    """The lengths of the np.fft.rfft calls made after this one, in order,
    recorded by a spy that patch sets."""
    lengths = []
    rfft = np.fft.rfft

    def spy(x, *args, **kwargs):
        lengths.append(len(x))
        return rfft(x, *args, **kwargs)

    patch.setattr(np.fft, "rfft", spy)
    return lengths


class TestCoeffs:
    def test_against_quadrature_oracle_small(self):
        c = shared.coeffs(8)
        for k in range(8):
            ref = coeff_oracle(8, k)
            assert c.a[k] == pytest.approx(ref, abs=1e-8)

    def test_against_quadrature_oracle_spot(self):
        c = shared.coeffs(16)
        for k in (0, 1, 7, 15):
            assert c.a[k] == pytest.approx(coeff_oracle(16, k), abs=1e-8)

    def test_stabilization_failure_raises(self, monkeypatch):
        # a jump off the sampling grid converges too slowly for the budget:
        # its aliasing error is still far above 1e-10 after four doublings,
        # one rfft per grid
        monkeypatch.setattr(dofde.toeplitz, "dist_order_symbol",
                            lambda n, t: (np.abs(t) < 1.0).astype(float))
        lengths = rfft_lengths(monkeypatch)
        with pytest.raises(CoeffStabilizationError, match="within 4 doublings"):
            coeffs_via_fft(4)
        assert lengths == [1 << 17, 1 << 18, 1 << 19, 1 << 20]

    def test_odd_symbol_raises(self, monkeypatch):
        monkeypatch.setattr(dofde.toeplitz, "dist_order_symbol", lambda n, t: np.sin(t))
        with pytest.raises(CoeffStabilizationError, match="sampled symbol is not even"):
            coeffs_via_fft(4)

    @pytest.mark.parametrize("n, symbol, grids", [
        (2, dist_order_symbol, [1 << 17]),
        (2048, dist_order_symbol, [1 << 17]),
        (16384, dist_order_symbol, [1 << 17, 1 << 18]),
        (4, lambda n, t: dist_order_symbol(n, t) + np.cos(2.0**16 * t), [1 << 17, 1 << 18]),
    ], ids=["n2", "n2048", "n16384", "nyquist"])
    def test_one_rfft_per_grid(self, monkeypatch, n, symbol, grids):
        # each grid is transformed once, its folded tail deciding whether
        # to double: the symbol passes on its first grid, 2^17 points, at
        # n = 2 and 2048, and on the second at n = 16384, where the first
        # has only 8 points per coefficient; a cosine added at the first
        # grid's Nyquist frequency lies wholly in X_(m/2), the tail's k = 0
        # term, so it doubles once
        monkeypatch.setattr(dofde.toeplitz, "dist_order_symbol", symbol)
        lengths = rfft_lengths(monkeypatch)
        coeffs_via_fft(n)
        assert lengths == grids

    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(2, 5000))
    @example(n=2049)
    @example(n=16384)
    @example(n=32768)
    @example(n=65535)
    def test_matches_two_grid_oracle(self, n):
        # the coefficients and the final sample count bit for bit: the
        # folded tail decides as the full transform of the grid of half
        # the size does
        with pytest.MonkeyPatch.context() as patch:
            lengths = rfft_lengths(patch)
            a = coeffs_via_fft(n).a
        want, samples = shared.two_grid_coeffs(n)
        np.testing.assert_array_equal(a, want)
        assert lengths[-1] == samples

    def test_sampling_memory_is_linear_in_the_samples(self, monkeypatch):
        # the samples fill one array chunk by chunk and go through one
        # rfft, so the peak is that array plus the m/2 + 1 complex outputs,
        # about 2 m floats at the final sample count m = 2^19, each grid
        # point evaluated once (the first grid is twice the least power of
        # two >= 4n = 2^18, and its folded tail verifies it)
        evaluated = []
        symbol = dofde.toeplitz.dist_order_symbol

        def counting(n, theta):
            evaluated.append(np.size(theta))
            return symbol(n, theta)

        monkeypatch.setattr(dofde.toeplitz, "dist_order_symbol", counting)
        peak, _ = shared.peak_traced_bytes(lambda: coeffs_via_fft(65536))
        m = 1 << 19
        assert sum(evaluated) == m
        assert peak <= 3 * m * 8

    @settings(deadline=None, max_examples=25)
    @given(nk=st.integers(2, 4096).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, min(n, 2048) - 1))))
    @example(nk=(4096, 2047))
    @example(nk=(2049, 2047))
    @example(nk=(2, 1))
    def test_matches_quadrature_oracle_random(self, nk):
        # 1e-9 absolute is the tolerance the benchmark checks coefficients
        # to; k stays below 2048, because at n = 4096 and k near n the
        # oracle's adaptive quadrature exhausts its interval budget
        n, k = nk
        assert abs(shared.coeffs(n).a[k] - coeff_oracle(n, k)) <= 1e-9

    def test_leading_coefficient_positive(self):
        for n in (4, 32, 256):
            assert shared.coeffs(n).a[0] > 0

    def test_tail_decay(self):
        # off-diagonal magnitudes decrease once past the first few
        a = shared.coeffs(128).a
        tail = np.abs(a[2:])
        assert np.all(np.diff(tail) < 0)

    def test_container_validation(self):
        with pytest.raises(ValueError):
            ToeplitzCoeffs(4, np.zeros(3))
        with pytest.raises(ValueError, match="n must be positive"):
            ToeplitzCoeffs(0, np.empty(0))
        c = ToeplitzCoeffs(3, np.array([2.0, -1.0, 0.0]))
        with pytest.raises(ValueError):
            c.a[0] = 5.0

    def test_container_keeps_a_private_copy(self):
        a = np.array([2.0, -1.0, 0.0, 0.0])
        c = ToeplitzCoeffs(4, a)
        a[0] = 3.0
        assert a.flags.writeable
        np.testing.assert_array_equal(c.a, [2.0, -1.0, 0.0, 0.0])


class TestDenseAndMatvec:
    def test_assemble_structure(self):
        c = ToeplitzCoeffs(4, np.array([5.0, 1.0, 2.0, 3.0]))
        A = assemble_dense(c)
        expected = np.array(
            [
                [5.0, 1.0, 2.0, 3.0],
                [1.0, 5.0, 1.0, 2.0],
                [2.0, 1.0, 5.0, 1.0],
                [3.0, 2.0, 1.0, 5.0],
            ]
        )
        np.testing.assert_array_equal(A, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 128])
    def test_matvec_matches_dense(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n)
        c = ToeplitzCoeffs(n, a)
        A = assemble_dense(c)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(ToeplitzOperator(c)(x), A @ x, atol=1e-11, rtol=0)

    @settings(deadline=None)
    @given(n=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
    @example(n=1000, seed=0)
    def test_matvec_matches_dense_random(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n)
        c = ToeplitzCoeffs(n, a)
        A = assemble_dense(c)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(ToeplitzOperator(c)(x), A @ x, atol=1e-11, rtol=0)

    def test_operator_reuse(self):
        c = shared.coeffs(64)
        op = ToeplitzOperator(c)
        A = assemble_dense(c)
        rng = np.random.default_rng(3)
        for _ in range(3):
            x = rng.standard_normal(64)
            np.testing.assert_allclose(op(x), A @ x, rtol=1e-12, atol=1e-11)

    def test_operator_shape_check(self):
        op = ToeplitzOperator(shared.coeffs(8))
        with pytest.raises(ValueError):
            op(np.ones(9))


# Every fast operator of order n, by name; each runs `_product` or, for the
# identity preconditioner, `preconditioners._vector`.
OPERATORS = {
    "GridLevel.solve": lambda c: GridLevel(c).solve,
    "GridLevel.solve_lower": lambda c: GridLevel(c).solve_lower,
    "_gohberg_semencul": lambda c: dofde.toeplitz._gohberg_semencul(
        np.linalg.solve(assemble_dense(c), np.eye(1, c.n)[0])),
    "ToeplitzOperator": ToeplitzOperator,
    "apply_inverse[identity]": lambda c: partial(apply_inverse, build_identity(c.n)),
    "apply_inverse[frobenius_tau]": lambda c: partial(apply_inverse, build_frobenius_tau(c)),
    "apply_inverse_sqrt[identity]": lambda c: partial(apply_inverse_sqrt, build_identity(c.n)),
    "apply_inverse_sqrt[frobenius_tau]":
        lambda c: partial(apply_inverse_sqrt, build_frobenius_tau(c)),
}


class TestGohbergSemencul:
    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @example(n=3, seed=0)
    def test_solves_like_the_dense_matrix(self, n, seed):
        # the inverse from x = T^{-1} e_1 alone, against a dense solve with T
        rng = np.random.default_rng(seed)
        c = shared.nonnegative_symbol_coeffs(n, rng)
        A = assemble_dense(c)
        solve = dofde.toeplitz._gohberg_semencul(np.linalg.solve(A, np.eye(1, n)[0]))
        r = rng.standard_normal(n)
        want = np.linalg.solve(A, r)
        assert np.linalg.norm(solve(r) - want) <= 1e-10 * np.linalg.norm(want)


class TestOperandCheck:
    @pytest.mark.parametrize("name", OPERATORS)
    @pytest.mark.parametrize("shape", [(8,), (7, 2)], ids=["too_long", "two_columns"])
    def test_wrong_shape_rejected(self, name, shape):
        # one entry too long, or one column per right-hand side
        c = shared.nonnegative_symbol_coeffs(7, np.random.default_rng(7))
        op = OPERATORS[name](c)
        with pytest.raises(ValueError):
            op(np.ones(shape))
        assert op(np.ones(7)).shape == (7,)


class TestSeriesReciprocal:
    def test_newton_steps_run_at_one_fft_length(self, monkeypatch):
        # each of the 11 Newton steps to 2047 terms transforms a, g and h
        # once, at the least power of two >= the terms it makes
        terms = 2047
        a = shared.nonnegative_symbol_coeffs(terms, np.random.default_rng(terms)).a
        lengths = []
        rfft = np.fft.rfft

        def spy(x, n=None, *args, **kwargs):
            lengths.append(len(x) if n is None else n)
            return rfft(x, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        g = dofde.toeplitz._series_reciprocal(a)
        monkeypatch.undo()
        assert max(lengths) <= 2048
        assert len(lengths) == 3 * 11
        residual = np.convolve(a, g)[:terms] - np.eye(1, terms)[0]
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(g)


class TestStiffnessMatrix:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_spd(self, n):
        w = np.linalg.eigvalsh(np.asarray(shared.dense_unscaled(n)))
        assert w[0] > 0

    def test_min_eigenvalue_decreases(self):
        lam = [
            np.linalg.eigvalsh(np.asarray(shared.dense_unscaled(n)))[0]
            for n in (16, 32, 64)
        ]
        assert lam[2] < lam[1] < lam[0]
