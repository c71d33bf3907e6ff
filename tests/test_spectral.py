import json
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import conftest as shared
import dofde.spectral
from dofde import (
    NotSPDError,
    PrecKind,
    SpectrumReport,
    ToeplitzCoeffs,
    assemble_dense,
    build_frobenius_circulant,
    build_frobenius_tau,
    build_identity,
    build_laplacian,
    build_natural_tau,
    build_preconditioner,
    build_strang,
    coeffs_via_fft,
    dense_sym_eigs,
    count_below,
    lanczos_extremes,
    min_eig_normalized,
    preconditioned_spectrum,
)
from dofde.cli import main
from dofde.spectral import _flip_block, _inverse_end, _sine_block, _sine_generators


def char_poly_coeffs(A):
    # Faddeev-LeVerrier recursion: exact polynomial coefficients without
    # any eigen machinery
    n = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A @ M) / k)
    return np.array(coeffs)


class TestDenseEigs:
    def test_diagonal(self):
        rep = dense_sym_eigs(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(rep.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14, rtol=0)
        assert rep.lambda_min == 1.0 and rep.lambda_max == 3.0

    def test_stencil_closed_form(self):
        rep = dense_sym_eigs(assemble_dense(shared.laplacian_coeffs(5)))
        j = np.arange(1, 6)
        np.testing.assert_allclose(
            rep.eigenvalues, 2.0 - 2.0 * np.cos(j * np.pi / 6.0), atol=1e-12, rtol=0
        )
        assert rep.lambda_min == pytest.approx(4 * np.sin(np.pi / 12.0) ** 2, rel=1e-12)

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(66)
        M = rng.standard_normal((6, 6))
        A = 0.5 * (M + M.T)
        rep = dense_sym_eigs(A)
        assert rep.eigenvalues.sum() == pytest.approx(np.trace(A), abs=1e-10)
        assert np.prod(rep.eigenvalues) == pytest.approx(np.linalg.det(A), rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_characteristic_polynomial(self, n):
        rng = np.random.default_rng(100 + n)
        M = rng.standard_normal((n, n))
        A = 0.5 * (M + M.T)
        roots = np.sort(np.roots(char_poly_coeffs(A)).real)
        rep = dense_sym_eigs(A)
        np.testing.assert_allclose(rep.eigenvalues, roots,
                                   atol=1e-10 * max(1, np.abs(A).max()), rtol=0)

    def test_sorted_invariant(self):
        rep = dense_sym_eigs(np.asarray(shared.dense_scaled(32)))
        assert np.all(np.diff(rep.eigenvalues) >= 0)
        assert rep.lambda_min == rep.eigenvalues[0]
        assert rep.lambda_max == rep.eigenvalues[-1]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            dense_sym_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry, value, message", [
        ((0, 0), np.nan, "finite"),
        ((0, 1), np.nan, "finite"),
        ((1, 2), np.inf, "finite"),
        ((2, 2), -np.inf, "finite"),
        (None, None, "empty"),
    ], ids=["nan-diagonal", "nan-off-diagonal", "inf", "minus-inf", "empty"])
    def test_rejects_non_finite_and_empty(self, entry, value, message):
        # NaN passes a max-norm symmetry test, and an empty matrix has no
        # max: each is a ValueError naming the fault before the eigensolve
        A = np.zeros((0, 0)) if entry is None else np.eye(3)
        if entry is not None:
            A[entry] = value
        with pytest.raises(ValueError, match=message):
            dense_sym_eigs(A)


class TestMinEigNormalized:
    def test_frozen_midsize(self):
        assert min_eig_normalized(shared.coeffs(64)) == pytest.approx(5.039164, abs=5e-6)

    def test_small_orders_match_dense(self):
        # the identity row folds every order, so no small n is special:
        # the coefficients (orders 2 to 5) and random nonnegative symbols
        # (orders 1 to 5) against the full dense eigensolve
        rng = np.random.default_rng(5)
        cases = [shared.coeffs(n) for n in range(2, 6)]
        cases += [shared.nonnegative_symbol_coeffs(n, rng) for n in range(1, 6)]
        for c in cases:
            oracle = c.n * np.linalg.eigvalsh(assemble_dense(c))[0]
            assert min_eig_normalized(c) == pytest.approx(oracle, rel=1e-12), c.n

    @pytest.mark.parametrize("argv, n, floats", [
        pytest.param(["mineig"], 2048, 330, id="mineig-330"),
        pytest.param(["outliers"], 2048, 165, id="outliers-165"),
        pytest.param(["spectrum", "--precs", "frobenius_circulant"], 32768, 137,
                     id="spectrum-frobenius_circulant-137"),
    ])
    def test_commands_hold_o_n_floats(self, argv, n, floats, tmp_path):
        # no n^2/4 block (512 n floats at n = 2048) is formed: measured
        # peaks 295 n (mineig: the coefficients, the bound constants and
        # the 96-row Lanczos basis), 147 n (outliers: the coefficient
        # samples) and 122 n (the Frobenius circulant's spectrum at 32768,
        # whose lambda_min the plain run does not certify within its budget
        # there: the 96-row Lanczos bases of its two runs, one at a time),
        # with a margin of about 12%
        argv = argv + ["--sizes", str(n), "--out", str(tmp_path)]
        assert main(argv) == 0  # lazy imports and caches first
        peak, status = shared.peak_traced_bytes(lambda: main(argv))
        assert status == 0
        assert peak < floats * n * 8, peak / (n * 8)

    @settings(deadline=None, max_examples=20)
    @given(n=st.integers(1, 300))
    @example(n=1)
    @example(n=2)
    @example(n=3)
    @example(n=4)
    @example(n=5)
    def test_inverse_routes_match_dense(self, n):
        # A^(-1) for the package's and a random nonnegative symbol and for
        # a = e_1 + 0.9 e_n, whose natural tau is indefinite from n = 3 on
        # (but at 5), and the Laplacian's shift-and-invert for the
        # package's, each matrix-free
        cases = [shared.nonnegative_symbol_coeffs(n, np.random.default_rng(n))]
        if n > 1:
            cases.append(shared.coeffs(n))
        if n > 2:
            cases.append(ToeplitzCoeffs(n, np.eye(n)[0] + 0.9 * np.eye(n)[-1]))
        for c in cases:
            identity = build_identity(n)
            found = _inverse_end(c, identity, 0, dofde.spectral._A_INVERSE)
            dense = preconditioned_spectrum(c, identity).lambda_min
            assert found is not None and found.value == pytest.approx(dense, rel=1e-9, abs=0), n
            assert min_eig_normalized(c) == n * found.value
        if n > 1:
            c = shared.scaled_coeffs(n)
            P = build_laplacian(n)
            found = lanczos_extremes(c, P)
            dense = preconditioned_spectrum(c, P)
            assert found is not None and found.lower.shift >= 0.0 and found.lower.steps >= 1
            assert found.lambda_min == pytest.approx(dense.lambda_min, rel=1e-9, abs=0), n

    @pytest.mark.parametrize("n", [3, 4, 64])
    def test_positive_definite_a_with_indefinite_natural_tau(self, n):
        # A = I + 0.9 (e_1 e_n^T + e_n e_1^T) has eigenvalues 0.1, 1 and 1.9,
        # but its natural tau samples 1 + 1.8 cos((n - 1) theta), negative
        # on the sine grid; A^(-1) runs on A's Frobenius tau instead
        c = ToeplitzCoeffs(n, np.eye(n)[0] + 0.9 * np.eye(n)[-1])
        with pytest.raises(NotSPDError):
            build_natural_tau(c)
        assert min_eig_normalized(c) == pytest.approx(0.1 * n, rel=1e-12)

    def test_failed_run_gives_none(self, monkeypatch):
        # an unconverged generator solve settles nothing, and no other
        # route stands in for it
        monkeypatch.setattr(dofde.krylov, "pcg", shared.one_step_pcg)
        assert min_eig_normalized(shared.coeffs(64)) is None


class TestPreconditionedSpectrum:
    def test_exact_preconditioner_gives_ones(self):
        n = 40
        rep = preconditioned_spectrum(shared.laplacian_coeffs(n), build_laplacian(n))
        np.testing.assert_allclose(rep.eigenvalues, np.ones(n), atol=1e-10, rtol=0)

    def test_published_anchor_small(self):
        rep = shared.prec_spectrum(PrecKind.NATURAL_TAU, 32)
        assert rep.lambda_min == pytest.approx(8.1574e-1, rel=1e-3)
        assert rep.lambda_max == pytest.approx(1.1475, rel=1e-3)

    def test_similarity_with_general_eigensolver(self):
        for n, kind in ((16, PrecKind.STRANG_CIRCULANT), (32, PrecKind.NATURAL_TAU)):
            A = np.asarray(shared.dense_scaled(n))
            P = shared.build_prec(kind, n)
            product = shared.prec_power_dense(P, -1.0) @ A  # P^(-1) A, not symmetric
            general = np.sort(np.linalg.eigvals(product).real)
            sym = shared.prec_spectrum(kind, n).eigenvalues
            np.testing.assert_allclose(sym, general, atol=1e-8, rtol=0)

    def test_scaling_invariance(self):
        n = 24
        c = shared.scaled_coeffs(n)
        base = preconditioned_spectrum(c, build_natural_tau(c))
        c_big = ToeplitzCoeffs(n, 3.7 * c.a)
        scaled = preconditioned_spectrum(c_big, build_natural_tau(c_big))
        np.testing.assert_allclose(base.eigenvalues, scaled.eigenvalues, rtol=1e-10)


class TestParitySpectra:
    """The flip-parity, transform-domain spectra against the explicit
    full-size P^(-1/2) A P^(-1/2) and the full-size dense eigensolve."""

    @settings(deadline=None, max_examples=40)
    @given(
        tail=st.integers(1, 199).flatmap(
            lambda m: arrays(np.float64, m, elements=st.floats(-1.0, 1.0))
        ),
        margin=st.floats(1e-2, 1.0),
    )
    @example(tail=np.array([0.5]), margin=0.1)
    @example(tail=np.array([0.5, -0.25]), margin=0.1)
    def test_six_kinds_match_explicit_matrix(self, tail, margin):
        # a0 above 2 sum |a_k| keeps A and every circulant and tau SPD
        a = np.concatenate([[2.0 * np.abs(tail).sum() + margin], tail])
        n = len(a)
        c = ToeplitzCoeffs(n, a)
        A = assemble_dense(c)
        precs = [
            build_identity(n),
            build_strang(c),
            build_frobenius_circulant(c),
            build_natural_tau(c),
            build_frobenius_tau(c),
            build_laplacian(n),
        ]
        generators = _sine_generators(a)
        for P in precs:
            oracle = dense_sym_eigs(shared.explicit_preconditioned(A, P)).eigenvalues
            rep = preconditioned_spectrum(c, P)
            if P.kind in (PrecKind.NATURAL_TAU, PrecKind.FROBENIUS_TAU, PrecKind.LAPLACIAN):
                # scaled in place, to the bit what a scaled copy gives
                s = 1.0 / np.sqrt(P.spectrum)
                copies = [np.linalg.eigvalsh(s[p::2, None] * _sine_block(generators, p) * s[p::2])
                          for p in (0, 1)]
                np.testing.assert_array_equal(rep.eigenvalues, np.sort(np.concatenate(copies)))
            assert rep.eigenvalues.shape == (n,)
            assert np.abs(rep.eigenvalues - oracle).max() <= 1e-12 * oracle.max(), P.kind
            assert (rep.lambda_min, rep.lambda_max) == (rep.eigenvalues[0], rep.eigenvalues[-1])

    @settings(deadline=None, max_examples=20)
    @given(n=st.integers(4, 200))
    @example(n=4)
    @example(n=5)
    def test_min_eig_matches_full_eigensolve(self, n):
        oracle = n * dense_sym_eigs(assemble_dense(coeffs_via_fft(n))).lambda_min
        assert min_eig_normalized(shared.coeffs(n)) == pytest.approx(oracle, rel=1e-10)

    def test_rejects_symmetric_matrix_that_does_not_commute_with_flip(self):
        # only ToeplitzCoeffs are accepted, so no dense matrix, Toeplitz
        # or not, can reach the Toeplitz-only block formulas
        A = np.diag([4.0, 3.0, 2.0]) + np.diag([1.0, 1.0], 1) + np.diag([1.0, 1.0], -1)
        dense_sym_eigs(A)  # symmetric, so the generic eigensolver accepts it
        for dense in (A, assemble_dense(shared.laplacian_coeffs(3))):
            with pytest.raises(TypeError):
                preconditioned_spectrum(dense, build_identity(3))
            with pytest.raises(TypeError):
                preconditioned_spectrum(dense, build_laplacian(3))

    def test_rejects_order_mismatch(self):
        with pytest.raises(ValueError):
            preconditioned_spectrum(shared.laplacian_coeffs(4), build_identity(5))

    def test_order_mismatch_raises_before_any_eigensolve(self, monkeypatch):
        # a wrong order fails before any block is formed or solved, on
        # the identity's, a circulant's and a sine kind's route alike
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        c = shared.scaled_coeffs(6)
        for P in (build_identity(6), build_strang(c), build_natural_tau(c), build_laplacian(6)):
            with pytest.raises(ValueError):
                preconditioned_spectrum(shared.scaled_coeffs(7), P)
        assert calls == []

    def test_circulant_root_comes_from_apply_inverse_sqrt(self, monkeypatch):
        # one P^(-1/2) source: each circulant's first column is one
        # apply_inverse_sqrt of e_1, and no other kind applies the root
        calls = []
        apply = dofde.spectral.apply_inverse_sqrt
        monkeypatch.setattr(dofde.spectral, "apply_inverse_sqrt",
                            lambda P, x: calls.append(P.kind) or apply(P, x))
        n = 33
        c = shared.scaled_coeffs(n)
        precs = [build_preconditioner(kind, c) for kind in PrecKind]
        for _ in range(2):
            for P in precs:
                preconditioned_spectrum(c, P)
        circulants = [PrecKind.STRANG_CIRCULANT, PrecKind.FROBENIUS_CIRCULANT]
        assert calls == 2 * circulants
        calls.clear()
        for P in precs:
            if P.kind not in circulants:
                preconditioned_spectrum(c, P)
        assert calls == []


class TestFlipBlocks:
    """The parity blocks folded from the first column against the blocks
    taken from the rows of the assembled matrix, and the circulant kinds
    folded without it."""

    @settings(deadline=None, max_examples=60)
    @given(a=st.integers(1, 300).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(-1.0, 1.0))))
    @example(a=np.array([0.7]))
    @example(a=np.array([0.7, -0.3]))
    @example(a=np.array([0.7, -0.3, 0.1]))
    def test_fold_equals_dense_oracle(self, a):
        n = len(a)
        blocks = [_flip_block(a, p) for p in (0, 1)]
        oracle = shared.flip_blocks_dense(assemble_dense(ToeplitzCoeffs(n, a)))
        assert [b.shape for b in blocks] == [(n - n // 2,) * 2, (n // 2,) * 2]
        for block, want in zip(blocks, oracle):
            np.testing.assert_array_equal(block, want)

    def test_circulant_spectra_stay_below_dense_memory(self):
        # one flip parity at a time: a circulant kind holds A's block, S's
        # block and the product S A, three n^2/4 arrays (0.754 n^2 floats
        # measured over the five kinds `dofde spectrum` can fall back on,
        # run one after another; the bound leaves 0.046 n^2 for the O(n)
        # vectors).
        # Forming both parities' blocks before the first eigensolve needs
        # a fourth, 1.0 n^2; assembling A and transforming it column by
        # column peaked near 7.5 n^2
        n = 1024
        c = shared.scaled_coeffs(n)
        kinds = [k for k in PrecKind if k is not PrecKind.IDENTITY]
        precs = [shared.build_prec(kind, n) for kind in kinds]
        peak, _ = shared.peak_traced_bytes(lambda: [preconditioned_spectrum(c, P) for P in precs])
        assert peak < 0.8 * n * n * 8, peak / (n * n * 8)


class TestParityBuilders:
    """The per-parity builders, which fold from strided views, against the
    gather-based builders they replaced, bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(a=st.integers(1, 300).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(-1.0, 1.0))))
    @example(a=np.array([0.7]))
    @example(a=np.array([0.7, -0.3]))
    @example(a=np.array([0.7, -0.3, 0.1]))
    @example(a=np.array([0.7, -0.3, 0.1, -0.05]))
    @example(a=np.array([0.7, -0.3, 0.1, -0.05, 0.02]))
    def test_blocks_equal_gather_oracles(self, a):
        generators = _sine_generators(a)
        for p, (flip, sine) in enumerate(zip(shared.flip_blocks_gather(a),
                                             shared.sine_blocks_gather(a))):
            assert np.array_equal(_flip_block(a, p), flip), p
            assert np.array_equal(_sine_block(generators, p), sine), p


class TestSineBlocks:
    """The parity blocks of B = Q A Q from the displacement identity
    against the explicit sine matrix."""

    # nonzero entries stay clear of gradual underflow: once B's entries
    # are subnormal, a relative bound of 1e-13 is below one ulp
    @settings(deadline=None, max_examples=60)
    @given(a=st.integers(1, 300).flatmap(
        lambda n: arrays(np.float64, n, elements=st.floats(-1.0, 1.0).filter(
            lambda x: x == 0.0 or abs(x) >= 1e-300))))
    @example(a=np.array([0.7]))
    @example(a=np.array([0.7, -0.3]))
    @example(a=np.array([0.7, -0.3, 0.1]))
    def test_blocks_match_dense_oracle(self, a):
        n = len(a)
        B = shared.sine_transform_dense(assemble_dense(ToeplitzCoeffs(n, a)))
        generators = _sine_generators(a)
        blocks = [_sine_block(generators, p) for p in (0, 1)]
        scale = np.abs(B).max()
        for p, block in enumerate(blocks):
            assert block.shape == B[p::2, p::2].shape
            assert np.array_equal(block, block.T)
            if block.size:
                assert np.abs(block - B[p::2, p::2]).max() <= 1e-13 * scale, (n, p)

    def test_extremes_at_1024_match_full_size_eigensolve(self):
        n = 1024
        c = shared.scaled_coeffs(n)
        A = np.asarray(shared.dense_scaled(n))
        kinds = [PrecKind.NATURAL_TAU, PrecKind.FROBENIUS_TAU, PrecKind.LAPLACIAN]
        precs = [shared.build_prec(kind, n) for kind in kinds]
        for P in precs:
            rep = preconditioned_spectrum(c, P)
            oracle = dense_sym_eigs(shared.explicit_preconditioned(A, P))
            assert rep.lambda_min == pytest.approx(oracle.lambda_min, rel=1e-9), P.kind
            assert rep.lambda_max == pytest.approx(oracle.lambda_max, rel=1e-9), P.kind

    def test_sine_spectra_hold_two_quarter_blocks(self):
        # the `outliers` pair, one after the other: the numerator and
        # denominator while a block of Q A Q is formed, which is then
        # scaled in place: 0.525 n^2 floats measured, and a margin of
        # 0.045 n^2; both parities' blocks at once need 0.75
        n = 1024
        c = shared.scaled_coeffs(n)
        kinds = [PrecKind.NATURAL_TAU, PrecKind.FROBENIUS_TAU]
        precs = [shared.build_prec(kind, n) for kind in kinds]
        peak, _ = shared.peak_traced_bytes(lambda: [preconditioned_spectrum(c, P) for P in precs])
        assert peak < 0.57 * n * n * 8, peak / (n * n * 8)


_STEPS = dofde.spectral._LANCZOS_STEPS


class TestLanczosExtremes:
    """The matrix-free Lanczos extremes against the dense spectra, their
    test oracle."""

    @settings(deadline=None, max_examples=20)
    @given(n=st.integers(2, 300))
    @example(n=2)
    @example(n=3)
    @example(n=4)
    @example(n=5)
    @example(n=_STEPS + 1)
    @example(n=_STEPS + 2)
    def test_extremes_match_dense_spectra(self, n):
        c = shared.scaled_coeffs(n)
        precs = []
        for kind in PrecKind:
            try:
                precs.append(build_preconditioner(kind, c))
            except NotSPDError:  # Strang's wrap at some small n
                pass
        for P in precs:
            dense = preconditioned_spectrum(c, P)
            found = lanczos_extremes(c, P)
            if n <= _STEPS:
                # at the latest k = n, where the Krylov space is all of R^n
                assert found is not None and found.upper.steps <= n, P.kind
            else:
                # clustered spectra, and the shifted ends of the identity and
                # the Laplacian: certified well inside the budget
                assert found is not None, P.kind
            assert found.upper.steps == n or all(
                end.bound <= 1e-10 * abs(end.value) for end in (found.lower, found.upper))
            assert found.lambda_min == pytest.approx(dense.lambda_min, rel=1e-9, abs=0), (n, P.kind)
            assert found.lambda_max == pytest.approx(dense.lambda_max, rel=1e-9, abs=0), (n, P.kind)

    def test_laplacian_at_512_takes_the_shifted_route(self, monkeypatch, tmp_path):
        # its lower end is too densely packed for the plain step budget, so
        # it comes from the shift-and-invert run, whose outer steps and
        # generator solve's iterations the route gives; the row is the dense
        # spectrum's to the last printed digit, lambda_min to 1e-12 and
        # lambda_max, where the dense route carries the sine blocks'
        # rounding, to the oracle's 1e-12
        n = 512
        c = shared.scaled_coeffs(n)
        P = build_laplacian(n)
        solves = []
        pcg = dofde.krylov.pcg
        monkeypatch.setattr(dofde.krylov, "pcg",
                            lambda *args, **kwargs: solves.append(pcg(*args, **kwargs))
                            or solves[-1])
        found = lanczos_extremes(c, P)
        monkeypatch.undo()
        dense = preconditioned_spectrum(c, P)
        assert main(["spectrum", "--sizes", str(n), "--precs", "laplacian",
                     "--format", "json", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        route = payload["routes"][f"n={n},laplacian"]
        assert route == {"lower": asdict(found.lower), "upper": asdict(found.upper)}
        assert found.upper.steps < _STEPS and 1 <= found.lower.steps < _STEPS
        assert [found.lower.inner_steps] == [report.iterations for report in solves]
        assert found.lower.inner_steps >= 1 and found.upper.inner_steps is None
        assert 0.0 < found.lower.shift < found.lambda_min
        assert payload["rows"] == [[str(n), "laplacian", "%.10e" % dense.lambda_min,
                                    "%.10e" % dense.lambda_max]]
        assert found.lambda_min == pytest.approx(dense.lambda_min, rel=1e-12, abs=0)
        oracle = shared.rayleigh_oracle(c, P)
        assert found.lambda_max == pytest.approx(oracle[1], rel=1e-12, abs=0)

    def test_generator_refines_from_its_true_residual(self, monkeypatch):
        # pcg tests its recursive residual: on the Laplacian's shifted S at
        # 2048 it passes tol 1e-13 while r = e_1 - S x does not, so one more
        # solve takes S d = r, x + d has a true residual under tol, and
        # inner_steps counts both solves
        n = 2048
        calls = []
        pcg = dofde.krylov.pcg

        def recorded(apply_A, P, b, stop=None):
            calls.append((apply_A, b, pcg(apply_A, P, b, stop=stop)))
            return calls[-1][2]

        monkeypatch.setattr(dofde.krylov, "pcg", recorded)
        found = _inverse_end(shared.scaled_coeffs(n), build_laplacian(n), 0,
                             dofde.spectral._ENDS[PrecKind.LAPLACIAN][0])
        (S, e1, first), (_, r, second) = calls
        assert np.array_equal(e1, np.eye(1, n)[0])
        assert first.residual_history[-1] < 1e-13 <= np.linalg.norm(r)
        assert np.array_equal(r, e1 - S(first.solution))
        assert np.linalg.norm(e1 - S(first.solution + second.solution)) < 1e-13
        assert found.inner_steps == first.iterations + second.iterations

    @pytest.mark.parametrize("run", [
        lambda c: lanczos_extremes(c, build_laplacian(c.n)),
        lambda c: min_eig_normalized(c),
    ], ids=["laplacian", "mineig"])
    def test_one_pcg_per_inverse_run(self, run, monkeypatch):
        # the run's products apply the Gohberg-Semencul inverse of one
        # generator solve; a solve per product would call pcg once a step
        calls = []
        pcg = dofde.krylov.pcg
        monkeypatch.setattr(dofde.krylov, "pcg",
                            lambda *args, **kwargs: calls.append(1) or pcg(*args, **kwargs))
        assert run(shared.scaled_coeffs(512)) is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("kind, inverse_runs", [
        (PrecKind.STRANG_CIRCULANT, 0),
        (PrecKind.NATURAL_TAU, 0),
        (PrecKind.LAPLACIAN, 1),
        (PrecKind.IDENTITY, 2),
    ])
    def test_runs_build_only_the_square_root(self, kind, inverse_runs, monkeypatch):
        # every run takes P^(-1/2) from P, where it is built once; only an
        # inverse run builds a product, its P^(1/2)
        c = shared.scaled_coeffs(64)
        P = build_preconditioner(kind, c)
        built = []
        product = dofde.spectral._algebra_product
        monkeypatch.setattr(dofde.spectral, "_algebra_product",
                            lambda kind, w: built.append(w) or product(kind, w))
        assert lanczos_extremes(c, P) is not None
        assert len(built) == inverse_runs
        for w in built:
            np.testing.assert_array_equal(w, P.spectrum ** 0.5)

    def test_rejects_what_preconditioned_spectrum_rejects(self):
        c = shared.scaled_coeffs(6)
        with pytest.raises(TypeError):
            lanczos_extremes(assemble_dense(c), build_identity(6))
        with pytest.raises(ValueError):
            lanczos_extremes(c, build_laplacian(7))

    def test_ends_table_routes_each_kind_once(self):
        # one (lower, upper) pair per kind; a route is the plain run (None)
        # or a shift from A's first column and the tau builder of the
        # generator solve; the identity and the Frobenius circulant share
        # the lower route of A^(-1), shift 0 on A's Frobenius tau, every
        # shifted route solves on its natural tau, and only the identity
        # routes its upper end through an inverse run
        ends = dofde.spectral._ENDS
        assert list(ends) == list(PrecKind)
        for kind, routes in ends.items():
            assert len(routes) == 2, kind
            for route in routes:
                assert route is None or (len(route) == 2 and callable(route[0])), kind
        a_inverse = ends[PrecKind.IDENTITY][0]
        assert a_inverse is ends[PrecKind.FROBENIUS_CIRCULANT][0] is not None
        assert a_inverse[0](shared.coeffs(16).a) == 0.0
        assert a_inverse[1] is build_frobenius_tau
        shifted = [route for routes in ends.values() for route in routes
                   if route is not None and route is not a_inverse]
        assert len(shifted) == 2 and all(tau is build_natural_tau for _, tau in shifted)
        assert [kind for kind, (_, upper) in ends.items() if upper] == [PrecKind.IDENTITY]

    @pytest.mark.parametrize("argv, inverse_ends", [
        (["spectrum", "--precs", "all", "--sizes", "32..128"], 12),
        (["mineig", "--sizes", "16..64"], 3),
    ], ids=["spectrum", "mineig"])
    def test_inverse_ends_solve_on_their_routes_tau(self, argv, inverse_ends,
                                                    monkeypatch, capsys):
        # every inverse end builds exactly one preconditioner, its route's
        # tau of its pencil column +-(a - sigma p): A's Frobenius tau for
        # the lower end of the identity and the Frobenius circulant, the
        # natural tau for every shifted end
        builds = []

        def recording(build):
            def record(c):
                builds[-1].append((build, c.a.copy()))
                return build(c)
            return record

        ends = {kind: tuple(route and (route[0], recording(route[1])) for route in routes)
                for kind, routes in dofde.spectral._ENDS.items()}
        monkeypatch.setattr(dofde.spectral, "_ENDS", ends)
        inverse_end = dofde.spectral._inverse_end

        def traced(c, P, end, route):
            builds.append([])
            found = inverse_end(c, P, end, route)
            assert found is not None
            pencil = c.a - found.shift * dofde.spectral._toeplitz_column(P)
            a_inverse = end == 0 and P.kind in (PrecKind.IDENTITY, PrecKind.FROBENIUS_CIRCULANT)
            assert [build for build, _ in builds[-1]] == [
                build_frobenius_tau if a_inverse else build_natural_tau], (P.kind, end)
            np.testing.assert_array_equal(builds[-1][0][1], -pencil if end else pencil)
            return found

        monkeypatch.setattr(dofde.spectral, "_inverse_end", traced)
        assert main(argv) == 0
        capsys.readouterr()
        assert len(builds) == inverse_ends


class TestInertiaCounts:
    """`count_below`'s Cauchy-like inertia counts against eigvalsh of the
    assembled P^(-1/2) A P^(-1/2)."""

    @settings(deadline=None, max_examples=40)
    @given(
        tail=st.integers(0, 199).flatmap(
            lambda m: arrays(np.float64, m, elements=st.floats(-1.0, 1.0))
        ),
        margin=st.floats(1e-2, 1.0),
        picks=st.lists(st.tuples(st.floats(0.0, 1.0), st.sampled_from([-1.0, 1.0]),
                                 st.floats(-8.0, -6.0)), min_size=1, max_size=4),
    )
    @example(tail=np.array([]), margin=0.1, picks=[(0.5, 1.0, -6.0)])
    @example(tail=np.array([]), margin=0.5, picks=[(0.0, -1.0, -6.0)])
    @example(tail=np.array([]), margin=1.0, picks=[(0.0, -1.0, -6.0)])
    @example(tail=np.array([0.5]), margin=0.1, picks=[(0.0, -1.0, -6.0), (1.0, 1.0, -7.0)])
    @example(tail=np.array([0.5, -0.25]), margin=0.1, picks=[(0.5, 1.0, -8.0)])
    # odd orders, whose short flip-odd block takes a sentinel column
    @example(tail=np.array([0.5, -0.25, 0.125, -0.0625]), margin=0.1,
             picks=[(0.0, 1.0, -6.0), (1.0, -1.0, -7.0)])
    @example(tail=np.linspace(0.5, -0.5, 62), margin=0.05,
             picks=[(0.0, 1.0, -6.0), (0.5, -1.0, -8.0), (1.0, 1.0, -7.0)])
    @example(tail=np.linspace(0.3, -0.2, 8), margin=0.02,
             picks=[(0.25, -1.0, -6.0), (0.75, 1.0, -6.0)])
    def test_counts_match_eigvalsh(self, tail, margin, picks):
        # a0 above 2 sum |a_k| keeps A and every kind SPD; each shift is an
        # eigenvalue of a kind moved by 1e-8 to 1e-6 relative, to either
        # side, and 0.5 and 1.5 are in every batch too.  The sine kinds
        # shift the diagonal of Q A Q; the identity and the circulants are
        # Toeplitz, so their generators shift too
        a = np.concatenate([[2.0 * np.abs(tail).sum() + margin], tail])
        n = len(a)
        c = ToeplitzCoeffs(n, a)
        A = assemble_dense(c)
        precs = [build_identity(n), build_natural_tau(c), build_frobenius_tau(c),
                 build_laplacian(n)]
        if n > 1:
            precs += [build_strang(c), build_frobenius_circulant(c)]
        spectra = [np.linalg.eigvalsh(shared.explicit_preconditioned(A, P)) for P in precs]
        rows = []
        for P, w in zip(precs, spectra):
            # a fixed shift on an eigenvalue, as 0.5 is at n = 1 for a_0 = 0.5
            # (the identity) or 1 (the Laplacian), has no count: count_below
            # gives None there
            fixed = [s for s in (0.5, 1.5) if not np.isclose(w, s, rtol=1e-12, atol=0).any()]
            shifts = fixed + [w[min(int(at * n), n - 1)] * (1.0 + side * 10.0**power)
                              for at, side, power in picks]
            rows += [(P, shift) for shift in shifts]
        want = [int(np.count_nonzero(w < shift))
                for w, P in zip(spectra, precs) for Q, shift in rows if Q is P]
        assert count_below(c, rows) == want

    def test_non_sine_kinds_and_order_mismatch(self):
        # every kind gets a count, in the order of the rows; not at 1, an
        # eigenvalue of Strang's P^(-1) A, where the Frobenius tau's B - D
        # also starts with a zero diagonal
        c = shared.scaled_coeffs(16)
        precs = [build_preconditioner(kind, c) for kind in PrecKind]
        counts = count_below(c, [(P, 1.1) for P in precs])
        assert all(type(count) is int for count in counts)
        assert counts == [int(np.count_nonzero(shared.prec_spectrum(P.kind, 16).eigenvalues < 1.1))
                          for P in precs]
        with pytest.raises(ValueError):
            count_below(c, [(build_laplacian(17), 1.0)])
        with pytest.raises(TypeError):
            count_below(assemble_dense(c), [(build_laplacian(16), 1.0)])
        assert count_below(c, []) == []

    def test_zero_pivot_gives_no_count(self):
        # A = 2 I is its own Frobenius tau, to the bit, so at shift 1 the
        # matrix B - D is zero: every pivot is 0 and the row has no count,
        # which the CLI reports as an error; at 1.5 every pivot is -1
        n = 9
        c = ToeplitzCoeffs(n, np.eye(n)[0] * 2.0)
        P = build_frobenius_tau(c)
        assert np.all(P.spectrum == 2.0)
        assert count_below(c, [(P, 1.0), (P, 1.5)]) == [None, n]


class TestLongDoubleOracle:
    """Every `mineig` cell and every `spectrum` extreme at the default sizes
    up to 512 within 1e-12 of the long-double Rayleigh quotient of the
    dense eigenvector (conftest.rayleigh_oracle)."""

    def test_spectrum_extremes(self):
        kinds = [kind for kind in PrecKind if kind is not PrecKind.IDENTITY]
        for n in (32, 64, 128, 256, 512):
            c = shared.scaled_coeffs(n)
            for kind in kinds:
                P = build_preconditioner(kind, c)
                found = lanczos_extremes(c, P)
                oracle = shared.rayleigh_oracle(c, P)
                for got, want in zip((found.lambda_min, found.lambda_max), oracle):
                    assert got == pytest.approx(want, rel=1e-12, abs=0), (n, kind)

    def test_mineig_cells(self):
        for n in (16, 32, 64, 128, 256, 512):
            oracle = n * shared.rayleigh_oracle(shared.coeffs(n), build_identity(n))[0]
            assert min_eig_normalized(shared.coeffs(n)) == pytest.approx(oracle, rel=1e-12, abs=0)


class TestRayleighQuotient:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(PrecKind)), n=st.integers(2, 64),
           seed=st.integers(0, 2**32 - 1))
    @example(kind=PrecKind.STRANG_CIRCULANT, n=2, seed=0)
    @example(kind=PrecKind.FROBENIUS_TAU, n=64, seed=1)
    def test_matches_dense_long_double_quotient(self, kind, n, seed):
        # the quotient over P's own double spectrum, by long-double FFTs,
        # against the same quotient with A and P assembled densely; the
        # coefficients are diagonally dominant, so every kind is SPD
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.0, 1.0, n) / (1.0 + np.arange(n)) ** 2
        a[0] = 3.0
        c = ToeplitzCoeffs(n, a)
        P = build_preconditioner(kind, c)
        z = rng.standard_normal(n)
        want = float(shared.long_double_quotient(c, P, z.astype(shared.LD)))
        got = dofde.spectral._rayleigh_quotients(c, P)(z)
        assert got == pytest.approx(want, rel=1e-15, abs=0)

    def test_circulant_energy_does_not_cancel(self):
        # Strang's least eigenvalue at n = 512 is its DFT mode 0, 3.7e5
        # times below its largest; along that mode the Toeplitz form of
        # z^T P z cancels by about that factor (1.5e-14 relative), while
        # the sum over the DFT domain does not
        c = shared.scaled_coeffs(512)
        P = build_strang(c)
        assert np.argmin(P.spectrum) == 0 and P.spectrum.max() > 1e5 * P.spectrum[0]
        z = np.ones(512)
        want = float(shared.long_double_quotient(c, P, z.astype(shared.LD)))
        got = dofde.spectral._rayleigh_quotients(c, P)(z)
        assert got == pytest.approx(want, rel=1e-15, abs=0)

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_exact_energy_matches_the_plain_rational_sum(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n)
        z = np.abs(rng.standard_normal(n)).astype(shared.LD) / 3
        zf = [Fraction(*v.as_integer_ratio()) for v in z]
        plain = sum(Fraction(a[abs(i - j)]) * zf[i] * zf[j] for i in range(n) for j in range(n))
        assert shared.exact_toeplitz_energy(a, z) == plain

    @pytest.mark.parametrize("n, rtol", [(2048, 5e-14), (8192, 2e-12)])
    def test_toeplitz_energy_on_the_sine_vector(self, n, rtol):
        # z^T A z summed over A's circulant embedding, against the exact
        # rational value; the sine vector is A's extreme direction, along
        # which the autocorrelation form a_0 r_0 + 2 sum a_k r_k cancels
        # (2.4e-13 and 8.8e-12 relative here); with P the identity the
        # quotient is z^T A z over the long-double z^T z
        c = shared.coeffs(n)
        z = np.sin(np.arange(1, n + 1).astype(shared.LD) * (shared.PI_LD / (n + 1)))
        zf = [Fraction(*v.as_integer_ratio()) for v in z]
        exact = shared.exact_toeplitz_energy(c.a, z) / sum(v * v for v in zf)
        got = dofde.spectral._rayleigh_quotients(c, build_identity(n))(z)
        assert abs(Fraction(got) - exact) <= rtol * exact


class TestSpectrumReport:
    def test_extremes_are_the_ends_as_floats(self):
        rep = SpectrumReport(np.array([-1.0, 0.5, 0.5, 2.0]))
        assert (rep.lambda_min, rep.lambda_max) == (-1.0, 2.0)
        assert type(rep.lambda_min) is float and type(rep.lambda_max) is float

    @pytest.mark.parametrize("w", [[2.0, 1.0], [1.0, np.nan, 2.0], [np.nan], [], [[1.0, 2.0]]])
    def test_rejects_what_is_not_an_ascending_vector(self, w):
        with pytest.raises(ValueError, match="ascending"):
            SpectrumReport(np.array(w))

    def test_eigenvalues_are_read_only(self):
        w = np.array([1.0, 2.0])
        rep = SpectrumReport(w)
        w[0] = 3.0
        assert rep.lambda_min == 1.0
        with pytest.raises(ValueError):
            rep.eigenvalues[0] = 0.0


class TestOutliers:
    # `dofde outliers` counts by inertia in `cli._cmd_outliers`; these
    # tests read back (left, right, percent) for matrices whose spectra are
    # known, and for the package's own
    @staticmethod
    def counts(a, kind, eps):
        """(left, right, percent) of `dofde outliers` for the symmetric
        Toeplitz matrix with first column a, which the command scales by
        1/n from n a."""
        n = len(a)
        (row,) = shared.outlier_table([kind], [n], [eps],
                                      coeffs=lambda n: ToeplitzCoeffs(n, n * np.asarray(a)))
        return tuple(row[3:])

    def test_synthetic_spectrum(self):
        # tridiag(0.3, 1, 0.3) has the eigenvalues 1 + 0.6 cos(j pi/6):
        # 0.48, 0.7, 1.0, 1.3, 1.52
        left, right, percent = self.counts([1.0, 0.3, 0.0, 0.0, 0.0], PrecKind.IDENTITY, 0.1)
        assert (left, right) == (2, 2)
        assert percent == pytest.approx(80.0)

    def test_eigenvalue_on_a_threshold_is_an_error(self, monkeypatch, capsys):
        # 1.5 I at eps 0.5 has every eigenvalue on 1 + eps: A - 1.5 I is
        # zero, so every pivot is 0 and no count is settled
        monkeypatch.setattr(dofde.cli, "coeffs_via_fft",
                            lambda n: ToeplitzCoeffs(n, np.eye(1, n)[0] * 1.5 * n))
        assert main(["outliers", "--sizes", "8", "--precs", "identity", "--eps", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: outliers n=8 preconditioner identity met a zero or "
                                "non-finite pivot: an eigenvalue may lie on 1 +- eps\n")
        assert captured.out == ""

    def test_all_ones(self):
        # 2 I is its own Frobenius tau, so every eigenvalue of P^(-1) A is 1
        a = np.eye(1, 10)[0] * 2.0
        assert self.counts(a, PrecKind.FROBENIUS_TAU, 0.5) == (0, 0, 0.0)
        assert self.counts(a / 2.0, PrecKind.IDENTITY, 0.5) == (0, 0, 0.0)

    def test_published_counts_small(self):
        (row,) = shared.outlier_table([PrecKind.NATURAL_TAU], [512], [1e-1])
        left, right, percent = row[3:]
        assert (left, right) == (2, 2)
        assert percent == pytest.approx(100 * 4 / 512)

    def test_percentages_decrease_with_size(self):
        rows = shared.outlier_table([PrecKind.NATURAL_TAU], (32, 64, 128, 256), [1e-1])
        pcts = [row[5] for row in rows]
        assert all(b < a for a, b in zip(pcts, pcts[1:]))

    def test_eps_validated(self, capsys):
        for eps in ("0", "nan"):
            assert main(["outliers", "--sizes", "32", "--eps", eps]) == 2
            captured = capsys.readouterr()
            assert captured.err == f"error: eps values must be positive: {eps!r}\n"
            assert captured.out == ""


class TestWeylOrdering:
    def test_spd_perturbation_raises_eigenvalues(self):
        rng = np.random.default_rng(5150)
        for n in (4, 9, 16):
            M = rng.standard_normal((n, n))
            A = 0.5 * (M + M.T)
            N = rng.standard_normal((n, n))
            B = N @ N.T + 0.1 * np.eye(n)
            before = dense_sym_eigs(A).eigenvalues
            after = dense_sym_eigs(A + B).eigenvalues
            assert np.all(after >= before - 1e-12)
