import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import circulant

import conftest as shared
import dofde.spectral
import dofde.transforms
from dofde.preconditioners import _algebra_product, _laplacian_spectrum
from dofde import (
    NotSPDError,
    PrecKind,
    Preconditioner,
    ToeplitzCoeffs,
    ToeplitzOperator,
    apply_inverse,
    apply_inverse_sqrt,
    assemble_dense,
    build_frobenius_circulant,
    build_frobenius_tau,
    build_identity,
    build_laplacian,
    build_natural_tau,
    build_preconditioner,
    build_strang,
    pcg,
)


def random_coeffs(n, seed):
    # diagonally dominant so every algebra projection stays SPD
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=n) / (1.0 + np.arange(n)) ** 2
    a[0] = 3.0
    return ToeplitzCoeffs(n, a)


class TestStrang:
    def test_wraparound_oracle(self):
        for n in (4, 5):
            c = random_coeffs(n, n)
            col = np.array([c.a[j] if j <= n // 2 else c.a[n - j] for j in range(n)])
            dense = circulant(col)
            P = build_strang(c)
            np.testing.assert_allclose(
                np.sort(P.spectrum), np.linalg.eigvalsh(dense), atol=1e-12, rtol=0
            )

    def test_not_spd_raises_with_name(self):
        # the wrapped discrete Laplacian is singular
        c = ToeplitzCoeffs(4, np.array([2.0, -1.0, 0.0, 0.0]))
        with pytest.raises(NotSPDError, match="strang"):
            build_strang(c)


class TestFrobeniusCirculant:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_projection_oracle(self, n):
        # project A onto circulants explicitly: average each wrapped diagonal
        c = random_coeffs(n, 10 + n)
        A = assemble_dense(c)
        F = shared.dft_matrix(n)
        diag = np.real(np.einsum("ij,jk,ki->i", F.conj().T, A, F))
        P = build_frobenius_circulant(c)
        np.testing.assert_allclose(np.sort(P.spectrum), np.sort(diag), atol=1e-12, rtol=0)

    def test_optimality(self):
        # any perturbation of the projected column worsens the Frobenius fit
        n = 6
        c = random_coeffs(n, 40)
        A = assemble_dense(c)
        j = np.arange(1, n)
        col = np.empty(n)
        col[0] = c.a[0]
        col[1:] = ((n - j) * c.a[j] + j * c.a[n - j]) / n
        best = np.linalg.norm(A - circulant(col), "fro")
        rng = np.random.default_rng(41)
        for _ in range(20):
            other = col + rng.standard_normal(n) * 0.1
            worse = np.linalg.norm(A - circulant(other), "fro")
            assert worse >= best - 1e-12


def toeplitz_minus_hankel(c):
    """The natural tau matrix as a dense T - H: the Toeplitz part
    corrected by mirrored Hankel flaps in both corners,
    H_ij = a_{i+j} + a_{2(n+1)-i-j} (1-based, a_k = 0 for k >= n)."""
    n = c.n
    a = np.concatenate([c.a, np.zeros(n + 2)])
    i = np.arange(1, n + 1)
    s = i[:, None] + i
    return assemble_dense(c) - (a[s] + a[2 * (n + 1) - s])


class TestNaturalTau:
    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_toeplitz_minus_hankel_identity(self, n):
        # the sine algebra member with the same central diagonals is the
        # Toeplitz part corrected by mirrored Hankel flaps in both corners
        c = random_coeffs(n, 20 + n)
        P = build_natural_tau(c)
        np.testing.assert_allclose(
            np.sort(P.spectrum), np.linalg.eigvalsh(toeplitz_minus_hankel(c)),
            rtol=0, atol=1e-13,
        )

    def test_eigenvectors_are_sine_columns(self):
        n = 7
        c = random_coeffs(n, 33)
        P = build_natural_tau(c)
        Q = shared.sine_matrix(n)
        np.testing.assert_allclose(
            Q @ toeplitz_minus_hankel(c) @ Q, np.diag(P.spectrum), rtol=0, atol=1e-13
        )

    @settings(deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @example(n=63, seed=0)
    @example(n=64, seed=0)
    @example(n=100, seed=0)
    @example(n=255, seed=0)
    @example(n=256, seed=0)
    def test_spectrum_matches_dense_oracle(self, n, seed):
        # at 63 and 255 the transform length 2(n+1) is a power of two, at
        # 100 and 256 n+1 is a prime
        c = random_coeffs(n, seed)
        Q = shared.sine_matrix(n)
        oracle = np.diag(Q @ toeplitz_minus_hankel(c) @ Q)
        np.testing.assert_allclose(build_natural_tau(c).spectrum, oracle, rtol=0, atol=1e-12)


class TestFrobeniusTau:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_projection_oracle(self, n):
        c = random_coeffs(n, 30 + n)
        A = assemble_dense(c)
        Q = shared.sine_matrix(n)
        expected = np.diag(Q @ A @ Q)
        P = build_frobenius_tau(c)
        np.testing.assert_allclose(np.sort(P.spectrum), np.sort(expected), atol=1e-12, rtol=0)

    def test_input_routes_agree(self):
        c = random_coeffs(9, 55)
        from_coeffs = build_frobenius_tau(c)
        from_dense = shared.frobenius_tau_dense(assemble_dense(c))
        np.testing.assert_allclose(from_coeffs.spectrum, from_dense, atol=1e-11, rtol=0)

    def test_rejects_asymmetric(self):
        # the builder takes ToeplitzCoeffs only; the dense oracle keeps
        # the symmetry check
        M = np.arange(16.0).reshape(4, 4)
        for dense in (M, M + M.T):
            with pytest.raises(TypeError):
                build_frobenius_tau(dense)
        with pytest.raises(ValueError):
            shared.frobenius_tau_dense(M)

    @settings(deadline=None)
    @given(
        tail=st.integers(0, 299).flatmap(
            lambda m: arrays(np.float64, m, elements=st.floats(-1.0, 1.0))
        ),
        margin=st.floats(1e-3, 1.0),
        alpha=st.floats(1e-3, 1e3),
    )
    @example(tail=np.empty(0), margin=0.5, alpha=3.0)
    @example(tail=np.array([-0.7]), margin=1e-3, alpha=0.25)
    def test_closed_form_matches_dense_oracle(self, tail, margin, alpha):
        # a0 above 2 sum |a_k| keeps the Toeplitz matrix, and so diag(QAQ), positive
        a = np.concatenate([[2.0 * np.abs(tail).sum() + margin], tail])
        c = ToeplitzCoeffs(len(a), a)
        d = build_frobenius_tau(c).spectrum
        oracle = shared.frobenius_tau_dense(assemble_dense(c))
        assert np.abs(d - oracle).max() <= 1e-13 * np.abs(oracle).max()
        d_alpha = build_frobenius_tau(ToeplitzCoeffs(len(a), alpha * a)).spectrum
        assert np.abs(d_alpha - alpha * d).max() <= 1e-13 * alpha * np.abs(d).max()


class TestLaplacian:
    def test_spectrum_closed_form(self):
        n = 12
        P = build_laplacian(n)
        j = np.arange(1, n + 1)
        np.testing.assert_allclose(
            P.spectrum, 2.0 - 2.0 * np.cos(j * np.pi / (n + 1)), atol=1e-14, rtol=0
        )

    @pytest.mark.parametrize("n", [511, 2048])
    def test_inverse_matches_exact_green_function(self, n):
        # tridiag(-1, 2, -1)^-1 = min(i,j)(n+1-max(i,j))/(n+1); a spectrum
        # formed as 2 - 2 cos(j pi/(n+1)) cancels at small j and misses
        # this by 1.5e-12 at n = 511 and 3.2e-11 at 2048
        i = np.arange(1, n + 1)
        G = np.minimum.outer(i, i) * (n + 1 - np.maximum.outer(i, i)) / (n + 1)
        b = np.random.default_rng(0).standard_normal(n)
        want = G @ b
        got = apply_inverse(build_laplacian(n), b)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_direct_and_spectral_solves_agree(self):
        n = 100
        P = build_laplacian(n)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(n)
        A = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
        # the Toeplitz-minus-Hankel solve against a dense direct solve of the stencil
        x = apply_inverse(P, b)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-11, rtol=0)
        np.testing.assert_allclose(A @ x, b, atol=1e-10, rtol=0)

    @settings(deadline=None)
    @given(n=st.integers(1, 700), seed=st.integers(0, 2**32 - 1))
    @example(n=1, seed=0)
    @example(n=2, seed=0)
    @example(n=3, seed=0)
    def test_green_function_matches_dense_solve(self, n, seed):
        # the inverse is the Green's function by two cumulative sums
        L = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        b = np.random.default_rng(seed).standard_normal(n)
        want = np.linalg.solve(L, b)
        got = apply_inverse(build_laplacian(n), b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_hand_worked_solve(self):
        P = build_laplacian(2)
        np.testing.assert_allclose(
            apply_inverse(P, np.array([1.0, 0.0])), [2.0 / 3.0, 1.0 / 3.0], atol=1e-14, rtol=0
        )

    def test_matrix_right_hand_side_rejected(self):
        # apply_inverse and apply_inverse_sqrt take vectors only, for
        # every kind
        rng = np.random.default_rng(9)
        B = rng.standard_normal((6, 3))
        for kind in PrecKind:
            P = shared.build_prec(kind, 6)
            for apply in (apply_inverse, apply_inverse_sqrt):
                with pytest.raises(ValueError):
                    apply(P, B)
                with pytest.raises(ValueError):
                    apply(P, B[:, :1])


class TestApplication:
    @pytest.mark.parametrize(
        "kind",
        [
            PrecKind.STRANG_CIRCULANT,
            PrecKind.FROBENIUS_CIRCULANT,
            PrecKind.NATURAL_TAU,
            PrecKind.FROBENIUS_TAU,
            PrecKind.LAPLACIAN,
        ],
    )
    def test_inverse_sqrt_composes_to_inverse(self, kind):
        n = 24
        P = shared.build_prec(kind, n)
        rng = np.random.default_rng(17)
        x = rng.standard_normal(n)
        twice = apply_inverse_sqrt(P, apply_inverse_sqrt(P, x))
        np.testing.assert_allclose(twice, apply_inverse(P, x), atol=1e-10, rtol=0)

    def test_identity_is_noop(self):
        P = build_identity(5)
        x = np.arange(5.0)
        np.testing.assert_array_equal(apply_inverse(P, x), x)
        np.testing.assert_array_equal(apply_inverse_sqrt(P, x), x)

    def test_scale_equivariance(self):
        n = 10
        c = random_coeffs(n, 60)
        scaled = ToeplitzCoeffs(n, 2.5 * c.a)
        for build in (build_strang, build_frobenius_circulant, build_natural_tau):
            np.testing.assert_allclose(
                build(scaled).spectrum, 2.5 * build(c).spectrum, rtol=1e-13
            )

    def test_vector_length_checked(self):
        P = build_laplacian(4)
        with pytest.raises(ValueError):
            apply_inverse(P, np.ones(5))

    def test_spectrum_length_checked_at_construction(self):
        with pytest.raises(ValueError, match=r"laplacian .* order 3 .* length 3, got shape \(2,\)"):
            Preconditioner(PrecKind.LAPLACIAN, 3, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=r"identity .* order 3 .* length 0, got shape \(3,\)"):
            Preconditioner(PrecKind.IDENTITY, 3, np.ones(3))
        assert Preconditioner(PrecKind.IDENTITY, 3, np.empty(0)).spectrum.shape == (0,)

    def test_container_keeps_a_private_copy(self):
        # a tau spectrum is free; a Laplacian's is fixed by n
        d = np.array([1.0, 2.0, 3.0])
        P = Preconditioner(PrecKind.NATURAL_TAU, 3, d)
        d[0] = 5.0
        assert d.flags.writeable and not P.spectrum.flags.writeable
        np.testing.assert_array_equal(P.spectrum, [1.0, 2.0, 3.0])


NON_IDENTITY = [kind for kind in PrecKind if kind is not PrecKind.IDENTITY]
CIRCULANT = [PrecKind.STRANG_CIRCULANT, PrecKind.FROBENIUS_CIRCULANT]


class TestConstructionChecks:
    @pytest.mark.parametrize("kind", NON_IDENTITY)
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_spectrum_must_be_positive(self, kind, bad):
        # every construction checks, not only the builders; NaN fails too.
        # [1, bad, 3] is neither even nor the Laplacian's, so positivity
        # is checked first
        spectrum = np.array([1.0, bad, 3.0])
        message = f"{kind.value} preconditioner of order 3 is not positive definite"
        with pytest.raises(NotSPDError, match=message):
            Preconditioner(kind, 3, spectrum)

    @pytest.mark.parametrize("kind", CIRCULANT)
    def test_circulant_spectrum_must_be_even(self, kind):
        # the order-n product at n = 2^k reads only s_0..s_(n/2)
        Preconditioner(kind, 4, np.array([4.0, 1.0, 2.0, 1.0]))
        for odd in ([4.0, 1.0, 2.0, 3.0], [4.0, 1.0, 2.0, np.nextafter(1.0, 2.0)],
                    [1.0, 2.0, 3.0]):
            with pytest.raises(ValueError, match=f"{kind.value} .* order {len(odd)} .* even") as info:
                Preconditioner(kind, len(odd), np.array(odd))
            assert not isinstance(info.value, NotSPDError)

    @pytest.mark.parametrize("n", [1, 2, 5, 64])
    def test_laplacian_spectrum_must_be_the_laplacians(self, n):
        # the Green's function inverts tridiag(-1, 2, -1) whatever the
        # spectrum says, so no other spectrum is a Laplacian's, not even
        # one an ulp away
        d = _laplacian_spectrum(n)
        np.testing.assert_array_equal(Preconditioner(PrecKind.LAPLACIAN, n, d).spectrum, d)
        near = d.copy()
        near[n // 2] = np.nextafter(near[n // 2], 0.0)
        for other in (near, 2.0 * d, np.ones(n)):
            with pytest.raises(ValueError, match=f"laplacian .* order {n} .* tridiag") as info:
                Preconditioner(PrecKind.LAPLACIAN, n, other)
            assert not isinstance(info.value, NotSPDError)

    @pytest.mark.parametrize("build", [build_identity, build_laplacian])
    def test_order_must_be_positive(self, build):
        with pytest.raises(ValueError, match="n must be positive"):
            build(0)


def dense_inverse(P, x):
    """P^{-1} x without a fast transform: a dense solve with the circulant
    whose first column is ifft(lambda), or Q diag(1/d) Q x with the
    explicit sine matrix.  The Laplacian's condition number, about
    4 (n+1)^2 / pi^2, would cost a solve with the assembled Q diag(d) Q
    about 5e-12 of relative accuracy at n = 511, so the sine kinds divide
    in their transform domain, which stays within 2e-15."""
    if P.kind in (PrecKind.STRANG_CIRCULANT, PrecKind.FROBENIUS_CIRCULANT):
        return np.linalg.solve(circulant(np.fft.ifft(P.spectrum).real), x)
    Q = shared.sine_matrix(P.n)
    return Q @ ((Q @ x) / P.spectrum)


class TestInverseDenseOracle:
    # the inverses are rfft convolutions with kernels derived from the
    # spectrum; this checks them against dense linear algebra
    @pytest.mark.parametrize("kind", NON_IDENTITY)
    @settings(deadline=None, max_examples=30)
    @given(n=st.integers(2, 700), seed=st.integers(0, 2**32 - 1))
    @example(n=2, seed=0)
    @example(n=3, seed=0)
    @example(n=4, seed=0)
    @example(n=5, seed=0)
    @example(n=63, seed=0)
    @example(n=64, seed=0)
    @example(n=65, seed=0)
    @example(n=511, seed=0)
    @example(n=512, seed=0)
    @example(n=513, seed=0)
    def test_inverse_matches_dense_oracle(self, kind, n, seed):
        P = build_preconditioner(kind, random_coeffs(n, seed))
        x = np.random.default_rng(seed).standard_normal(n)
        want = dense_inverse(P, x)
        got = apply_inverse(P, x)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        twice = apply_inverse_sqrt(P, apply_inverse_sqrt(P, x))
        assert np.linalg.norm(twice - got) <= 1e-12 * np.linalg.norm(got)


class TestNoTransformOnApplyPath:
    @pytest.mark.parametrize("n", [64, 65])
    def test_pcg_runs_without_complex_fft_or_dst(self, monkeypatch, n):
        # once built, every preconditioner applies by rfft convolution
        # only: a complex FFT or a sine transform inside pcg fails here
        c = shared.scaled_coeffs(n)
        A = ToeplitzOperator(c)
        b = shared.manufactured_rhs(n)
        precs = [build_preconditioner(kind, c) for kind in PrecKind]

        def forbidden(*args, **kwargs):
            raise AssertionError("complex FFT or DST on the apply path")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        for module in (dofde.spectral, dofde.transforms):
            monkeypatch.setattr(module, "dst1", forbidden)
        for P in precs:
            assert pcg(A, P, b).converged, P.kind


class TestNoComplexFftOnTauSide:
    @pytest.mark.parametrize("n", [64, 65])
    def test_tau_builds_and_dst_run_without_complex_fft(self, monkeypatch, n):
        # every transform is real: the tau algebra's sums are one
        # zero-padded rfft and the circulants' one mirrored rfft, so no
        # build, apply, square root or spectrum calls numpy's complex FFT
        c = shared.scaled_coeffs(n)

        def forbidden(*args, **kwargs):
            raise AssertionError("complex FFT called")

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, forbidden)
        precs = [build_preconditioner(kind, c) for kind in NON_IDENTITY]
        for P in precs:
            apply_inverse_sqrt(P, np.ones(n))
        for P in [build_identity(n)] + precs:
            dofde.spectral.preconditioned_spectrum(c, P)
        dofde.transforms.dst1(np.ones(n))


def record_transform_lengths(monkeypatch):
    """Make numpy's FFTs append their lengths to the returned list."""
    lengths = []

    def recorded(fft, real_input):
        def call(a, n=None, *args, **kwargs):
            given = np.shape(a)[-1]
            lengths.append(n if n is not None else given if real_input else 2 * (given - 1))
            return fft(a, n, *args, **kwargs)
        return call

    for name in ("rfft", "fft", "ifft"):
        monkeypatch.setattr(np.fft, name, recorded(getattr(np.fft, name), True))
    monkeypatch.setattr(np.fft, "irfft", recorded(np.fft.irfft, False))
    return lengths


class TestTransformLengths:
    # a circulant of power-of-two order is the leading block of no
    # smaller circulant than itself: its products transform at length n
    # and its build at none; any other order embeds at the least power of
    # two >= 2n.  The Laplacian's inverse transforms nothing.
    @pytest.mark.parametrize("kind", CIRCULANT)
    @pytest.mark.parametrize("n, m", [(64, 64), (2048, 2048), (65, 256), (96, 256)])
    def test_circulant_products(self, monkeypatch, kind, n, m):
        P = build_preconditioner(kind, random_coeffs(n, n))
        x = np.random.default_rng(n).standard_normal(n)
        lengths = record_transform_lengths(monkeypatch)
        apply_inverse(P, x)
        assert lengths == [m, m]
        for power in (-0.5, 0.5):
            lengths.clear()
            product = _algebra_product(kind, P.spectrum ** power)
            assert (lengths == []) == (m == n)
            lengths.clear()
            product(x)
            assert lengths == [m, m]
        if m == n:
            lengths.clear()
            apply_inverse_sqrt(P, x)
            assert lengths == [n, n]

    @pytest.mark.parametrize("kind", list(PrecKind))
    @pytest.mark.parametrize("n", [64, 65])
    def test_inverse_sqrt_is_built_once(self, monkeypatch, kind, n):
        # the first call builds P^(-1/2) and keeps it on P, so a second
        # call runs only its own rfft/irfft pair, on the same product
        P = build_preconditioner(kind, random_coeffs(n, n))
        x = np.random.default_rng(n).standard_normal(n)
        lengths = record_transform_lengths(monkeypatch)
        first = apply_inverse_sqrt(P, x)
        built = lengths.copy()
        lengths.clear()
        np.testing.assert_array_equal(apply_inverse_sqrt(P, x), first)
        assert lengths == built[-2:]
        assert len(lengths) == (0 if kind is PrecKind.IDENTITY else 2)

    @pytest.mark.parametrize("n", [1, 64, 65, 2048, 65536])
    def test_laplacian_builds_and_inverts_without_transforms(self, monkeypatch, n):
        lengths = record_transform_lengths(monkeypatch)
        apply_inverse(build_laplacian(n), np.ones(n))
        assert lengths == []


class TestRegistry:
    DIRECT = {
        PrecKind.IDENTITY: lambda c: build_identity(c.n),
        PrecKind.STRANG_CIRCULANT: build_strang,
        PrecKind.FROBENIUS_CIRCULANT: build_frobenius_circulant,
        PrecKind.NATURAL_TAU: build_natural_tau,
        PrecKind.FROBENIUS_TAU: build_frobenius_tau,
        PrecKind.LAPLACIAN: lambda c: build_laplacian(c.n),
    }

    def test_every_kind_registered(self):
        assert set(self.DIRECT) == set(PrecKind)

    def test_kind_given_by_name(self):
        # a name is the kind it names, so a tau spectrum is applied as tau
        spectrum = [1.0, 2.0, 3.0, 4.0]
        named = Preconditioner(kind="natural_tau", n=4, spectrum=spectrum)
        assert named.kind is PrecKind.NATURAL_TAU
        x = np.array([1.0, 2.0, 3.0, 4.0])
        want = apply_inverse(Preconditioner(PrecKind.NATURAL_TAU, 4, spectrum), x)
        np.testing.assert_array_equal(apply_inverse(named, x), want)
        np.testing.assert_allclose(want, [1.337, 2.457, 3.112, 2.742], atol=1e-3)
        c = random_coeffs(8, 1)
        built = build_preconditioner("natural_tau", c)
        assert built.kind is PrecKind.NATURAL_TAU
        np.testing.assert_array_equal(built.spectrum, build_natural_tau(c).spectrum)

    def test_unknown_kind_name_rejected(self):
        with pytest.raises(ValueError, match="jacobi"):
            Preconditioner(kind="jacobi", n=2, spectrum=[1.0, 1.0])
        with pytest.raises(ValueError, match="jacobi"):
            build_preconditioner("jacobi", random_coeffs(4, 0))

    def test_builders_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed on the module-level builder (as the traced
        # benchmark does) must see builds made through the registry
        import dofde.preconditioners as prec_mod

        sentinel = object()
        monkeypatch.setattr(prec_mod, "build_strang", lambda c: sentinel)
        assert build_preconditioner(PrecKind.STRANG_CIRCULANT, random_coeffs(4, 0)) is sentinel

    @settings(deadline=None)
    @given(
        kind=st.sampled_from(list(PrecKind)),
        n=st.integers(2, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_builder(self, kind, n, seed):
        c = random_coeffs(n, seed)
        got = build_preconditioner(kind, c)
        want = self.DIRECT[kind](c)
        assert (got.kind, got.n) == (want.kind, want.n) == (kind, n)
        np.testing.assert_array_equal(got.spectrum, want.spectrum)
