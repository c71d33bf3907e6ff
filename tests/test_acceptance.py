"""Acceptance suite: every release criterion, one verdict line each.

Each test prints `criterion N (<name>): PASS|FAIL` with the measured
numbers, then asserts.  The criteria are checked exactly as stated, at
the stated tolerances; any criterion the implementation cannot meet
fails here rather than being silently relaxed.
"""

import functools
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

import conftest as shared
from dofde import (
    PrecKind,
    ToeplitzOperator,
    apply_inverse,
    assemble_dense,
    build_frobenius_tau,
    build_hierarchy,
    build_laplacian,
    build_natural_tau,
    coeff_oracle,
    dense_sym_eigs,
    dst1,
    lower_bound_constant,
    norm_constant_limit,
    pcg,
    tgm,
    upper_bound_constant,
    vcycle,
)

SIZES = shared.TABLE_SIZES
PCG_COLUMNS = ("identity", "strang", "frobenius_circulant",
               "natural_tau", "frobenius_tau", "laplacian")


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


@functools.lru_cache(maxsize=1)
def bound_constants():
    bc = SimpleNamespace(
        k1=upper_bound_constant(tol=1e-9).value,
        k2=lower_bound_constant(tol=1e-9).value,
        c_infinity=norm_constant_limit(tol=1e-9).value,
    )
    assert 0.0 < bc.k2 < bc.k1 and bc.c_infinity > 0.0, bc
    return bc


def quadpack_k1():
    """k1 from scipy's QUADPACK, which shares no code with dofde's
    Gauss-Kronrod engine: the ratio in upper_bound_constant's docstring.

    The numerator runs to 16 pi with breakpoints at the removable
    singularities u = 1 and u = pi, so neither is evaluated.  Past 16 pi,
    cos(u/2)^2 = (1 + cos u)/2 splits it into a plain improper half and a
    Fourier-weighted half.
    """

    def growth(u):
        return (u**2 - u) / np.log(u)

    def window(u):
        return np.cos(u / 2.0) ** 2 / (u**2 - np.pi**2) ** 2

    def envelope(u):
        return (u**2 - u) / ((u**2 - np.pi**2) ** 2 * np.log(u))

    cut = 16.0 * np.pi
    tight = {"epsabs": 1e-13, "epsrel": 1e-13}
    head, _ = quad(lambda u: growth(u) * window(u), 0.0, cut,
                   points=(1.0, np.pi), limit=200, **tight)
    mean, _ = quad(envelope, cut, np.inf, **tight)
    osc, _ = quad(envelope, cut, np.inf, weight="cos", wvar=1.0, epsabs=1e-13)
    denom, _ = quad(window, 0.0, np.pi, **tight)
    return (head + 0.5 * (mean + osc)) / denom


@functools.lru_cache(maxsize=1)
def pcg_iteration_table():
    table = {}
    for n in SIZES:
        scaled = shared.scaled_coeffs(n)
        op = ToeplitzOperator(scaled)
        # Not b = ones: J ones = ones for the flip J, which commutes with
        # the symmetric Toeplitz A_n, so CG from ones never leaves the
        # J-even eigenvectors and needs about half the iterations of a
        # generic right-hand side.  x*_j = j/(n+1) excites both classes.
        b = shared.manufactured_rhs(n)
        row = {}
        for kind in (PrecKind.IDENTITY, PrecKind.STRANG_CIRCULANT,
                     PrecKind.FROBENIUS_CIRCULANT, PrecKind.NATURAL_TAU,
                     PrecKind.FROBENIUS_TAU, PrecKind.LAPLACIAN):
            row[kind.value] = pcg(op, shared.build_prec(kind, n), b).iterations
        table[n] = row
    return table


def test_criterion_1_bound_constants():
    start = time.perf_counter()
    bc = bound_constants()
    elapsed = time.perf_counter() - start
    checks = {
        "k1": (bc.k1, shared.K1_REF),
        "k2": (bc.k2, shared.K2_REF),
        "c_infinity": (bc.c_infinity, shared.C_INF_REF),
    }
    failures = [
        f"{name}: computed {got:.6f}, required {want:.6f} +/- 5e-4"
        for name, (got, want) in checks.items()
        if abs(got - want) > 5e-4
    ]
    # the reference itself must not come from dofde
    k1_independent = quadpack_k1()
    if abs(k1_independent - shared.K1_REF) > 1e-8:
        failures.append(
            f"K1_REF {shared.K1_REF:.10f} vs QUADPACK {k1_independent:.10f}"
        )
    ok = not failures and elapsed < 10.0
    detail = "; ".join(failures) or f"all three within 5e-4, {elapsed:.2f}s"
    if elapsed >= 10.0:
        detail += f"; runtime {elapsed:.1f}s over budget"
    assert _verdict(1, "bound constants", ok, detail)


def test_criterion_2_bound_containment():
    start = time.perf_counter()
    bc = bound_constants()
    values = {}
    ok = True
    for n in (16, 32, 64, 128, 256, 512, 1024, 2048):
        lam1 = dense_sym_eigs(np.asarray(shared.dense_unscaled(n))).lambda_min
        values[n] = n * lam1
        ok = ok and bc.k2 <= values[n] <= bc.k1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    lo, hi = min(values.values()), max(values.values())
    assert _verdict(
        2, "minimum-eigenvalue containment", ok,
        f"n*lambda_1 in [{lo:.4f}, {hi:.4f}] vs [{bc.k2:.4f}, {bc.k1:.4f}], {elapsed:.0f}s",
    )


def test_criterion_3_preconditioned_extremes():
    bad = []
    for n in SIZES:
        s_min, s_max, f_min, f_max = shared.CIRCULANT_EXTREMES[n]
        strang = shared.prec_spectrum(PrecKind.STRANG_CIRCULANT, n)
        frob = shared.prec_spectrum(PrecKind.FROBENIUS_CIRCULANT, n)
        for label, got, want in (
            (f"strang min n={n}", strang.lambda_min, s_min),
            (f"strang max n={n}", strang.lambda_max, s_max),
            (f"frobenius_circulant min n={n}", frob.lambda_min, f_min),
            (f"frobenius_circulant max n={n}", frob.lambda_max, f_max),
        ):
            if abs(got - want) > 1e-3 * abs(want):
                bad.append(label)
        tn_min, tn_max, tf_min, tf_max = shared.TAU_EXTREMES[n]
        nat = shared.prec_spectrum(PrecKind.NATURAL_TAU, n)
        ftau = shared.prec_spectrum(PrecKind.FROBENIUS_TAU, n)
        for label, got, want in (
            (f"natural_tau min n={n}", nat.lambda_min, tn_min),
            (f"natural_tau max n={n}", nat.lambda_max, tn_max),
            (f"frobenius_tau min n={n}", ftau.lambda_min, tf_min),
            (f"frobenius_tau max n={n}", ftau.lambda_max, tf_max),
        ):
            if abs(got - want) > 1e-3 * abs(want):
                bad.append(label)
        l_min, l_max = shared.LAPLACIAN_EXTREMES[n]
        lap = shared.prec_spectrum(PrecKind.LAPLACIAN, n)
        for label, got, want in (
            (f"laplacian min n={n}", lap.lambda_min, l_min),
            (f"laplacian max n={n}", lap.lambda_max, l_max),
        ):
            if abs(got - want) > 1e-2 * abs(want):
                bad.append(label)
    # spot anchors stated separately
    anchors_ok = (
        abs(shared.prec_spectrum(PrecKind.STRANG_CIRCULANT, 2048).lambda_min - 5.0071e-1)
        <= 1e-3 * 5.0071e-1
        and abs(shared.prec_spectrum(PrecKind.FROBENIUS_TAU, 2048).lambda_max - 1.1783)
        <= 1e-3 * 1.1783
        and abs(shared.prec_spectrum(PrecKind.LAPLACIAN, 32).lambda_min - 3.1941e-1)
        <= 1e-2 * 3.1941e-1
    )
    ok = not bad and anchors_ok
    detail = f"{70 - len(bad)}/70 entries in tolerance"
    if bad:
        detail += "; off: " + ", ".join(bad[:6])
    assert _verdict(3, "preconditioned extreme eigenvalues", ok, detail)


def test_criterion_4_outlier_tables():
    # the counts come from `dofde outliers` itself, by inertia, its only
    # route; test_spectral.TestOutliers checks them on known spectra
    overall = True
    details = []
    for kind, table, label in (
        (PrecKind.NATURAL_TAU, shared.NATURAL_TAU_OUTLIERS, "natural_tau"),
        (PrecKind.FROBENIUS_TAU, shared.FROBENIUS_TAU_OUTLIERS, "frobenius_tau"),
    ):
        exact = 0
        worst = 0
        rows = shared.outlier_table([kind], SIZES, (1e-1, 1e-2))
        wanted = [pair for n in SIZES for pair in table[n]]
        assert len(rows) == len(wanted)
        for (n, _, _, left, right, percent), (want_l, want_r) in zip(rows, wanted):
            assert percent == pytest.approx(100.0 * (left + right) / n)
            for got, want in ((left, want_l), (right, want_r)):
                diff = abs(got - want)
                worst = max(worst, diff)
                exact += diff == 0
        table_ok = exact >= 24 and worst <= 1
        overall = overall and table_ok
        details.append(f"{label}: {exact}/28 exact, max off {worst}")
    assert _verdict(4, "outlier counts", overall, "; ".join(details))


def test_criterion_5_pcg_iteration_counts():
    table = pcg_iteration_table()
    published = shared.PCG_TABLE
    columns_ok = {}
    details = []

    def col(i):
        return {n: published[n][i] for n in SIZES}

    # unpreconditioned: +/-20% and doubling growth
    want = col(0)
    got = {n: table[n]["identity"] for n in SIZES}
    in_window = all(abs(got[n] - want[n]) <= 0.2 * want[n] for n in SIZES)
    ratios = [got[2 * n] / got[n] for n in SIZES[:-1]]
    doubling = all(1.6 <= r <= 2.4 for r in ratios)
    columns_ok["identity"] = in_window and doubling
    details.append(f"identity {tuple(got.values())} vs {tuple(want.values())} +/-20%"
                   f"{'' if in_window else ' OUT'}")

    # strang: within +/-1
    want = col(1)
    got = {n: table[n]["strang"] for n in SIZES}
    columns_ok["strang"] = all(abs(got[n] - want[n]) <= 1 for n in SIZES)
    details.append(f"strang {tuple(got.values())} vs {tuple(want.values())} +/-1")

    # frobenius circulant: +/-20% and sqrt-n growth
    want = col(2)
    got = {n: table[n]["frobenius_circulant"] for n in SIZES}
    in_window = all(abs(got[n] - want[n]) <= 0.2 * want[n] for n in SIZES)
    growth = 1.5 <= got[2048] / got[512] <= 2.5
    columns_ok["frobenius_circulant"] = in_window and growth
    details.append(
        f"frobenius_circulant {tuple(got.values())} vs {tuple(want.values())} +/-20%"
        f"{'' if in_window else ' OUT'}"
    )

    for i, name in ((3, "natural_tau"), (4, "frobenius_tau")):
        want = col(i)
        got = {n: table[n][name] for n in SIZES}
        columns_ok[name] = all(abs(got[n] - want[n]) <= 1 for n in SIZES)
        details.append(f"{name} {tuple(got.values())} vs {tuple(want.values())} +/-1")

    want = col(5)
    got = {n: table[n]["laplacian"] for n in SIZES}
    columns_ok["laplacian"] = all(abs(got[n] - want[n]) <= 2 for n in SIZES)
    details.append(f"laplacian {tuple(got.values())} vs {tuple(want.values())} +/-2")

    failed_cols = [name for name, ok in columns_ok.items() if not ok]
    ok = not failed_cols
    summary = "; ".join(details)
    if failed_cols:
        summary = "out of window: " + ", ".join(failed_cols) + "; " + summary
    assert _verdict(5, "solver iteration counts", ok, summary)


def test_criterion_6_multigrid_counts():
    stop_windows = {
        "alpha": None,  # row-matched, +/-1
        "beta": (2, 5),  # {3,4} +/- 1
        "gamma": (2, 4),
        "delta": (1, 3),
        "finest_only": (2, 4),
    }
    bad = []
    for n in shared.MGM_SIZES:
        h = build_hierarchy(shared.scaled_coeffs(n))
        b = np.ones(n)
        for name in ("alpha", "beta", "gamma", "delta", "finest_only"):
            t = tgm(h, name, b).iterations
            v = vcycle(h, name, b).iterations
            for style, count in (("tgm", t), ("vcycle", v)):
                if name == "alpha":
                    row = shared.MGM_TABLE[n]["alpha"]
                    if not (9 - 1 <= count <= 11 + 1 and abs(count - row) <= 1):
                        bad.append(f"alpha {style} n={n}: {count} vs {row}")
                else:
                    lo, hi = stop_windows[name]
                    if not lo <= count <= hi:
                        bad.append(f"{name} {style} n={n}: {count}")
    ok = not bad
    detail = "all five cases within slack" if ok else ", ".join(bad[:8])
    assert _verdict(6, "multigrid iteration counts", ok, detail)


def test_criterion_7_zero_toeplitz_correction():
    worst = {}
    for n in (4, 8, 16):
        coeff = shared.bound_correction_coeffs(n, n - 1)
        worst[n] = float(np.abs(coeff).max())
    ok = all(w <= 1e-7 for w in worst.values())
    detail = ", ".join(f"n={n}: max |a_k| = {w:.2e}" for n, w in worst.items())
    assert _verdict(7, "vanishing correction coefficients", ok, detail)


def test_criterion_8_oracle_equivalences():
    rng = np.random.default_rng(88)
    checks = {}

    c16 = shared.coeffs(16)
    checks["fft vs quadrature coefficients"] = all(
        abs(c16.a[k] - coeff_oracle(16, k)) <= 1e-8 for k in (0, 3, 9, 15)
    )

    c128 = shared.coeffs(128)
    x = rng.standard_normal(128)
    dense = np.asarray(shared.dense_unscaled(128))
    checks["fast matvec vs dense"] = (
        np.abs(ToeplitzOperator(c128)(x) - dense @ x).max() <= 1e-11
    )

    from dofde import ToeplitzCoeffs, build_frobenius_circulant

    a = rng.uniform(-1, 1, size=8) / (1 + np.arange(8)) ** 2
    a[0] = 3.0
    small = ToeplitzCoeffs(8, a)
    A8 = assemble_dense(small)
    F = shared.dft_matrix(8)
    circ_diag = np.real(np.einsum("ij,jk,ki->i", F.conj().T, A8, F))
    checks["frobenius circulant projection"] = (
        np.abs(np.sort(build_frobenius_circulant(small).spectrum) - np.sort(circ_diag)).max()
        <= 1e-12
    )

    Q = shared.sine_matrix(8)
    checks["frobenius tau projection"] = (
        np.abs(
            np.sort(build_frobenius_tau(small).spectrum) - np.sort(np.diag(Q @ A8 @ Q))
        ).max()
        <= 1e-12
    )

    ext = np.concatenate([a, np.zeros(10)])
    H = np.zeros((8, 8))
    for i in range(1, 9):
        for k in range(1, 9):
            if i + k <= 8:
                H[i - 1, k - 1] += ext[i + k]
            if 18 - i - k <= 8:
                H[i - 1, k - 1] += ext[18 - i - k]
    checks["natural tau vs Toeplitz-minus-Hankel"] = (
        np.abs(
            np.sort(build_natural_tau(small).spectrum)
            - np.linalg.eigvalsh(A8 - H)
        ).max()
        <= 1e-12
    )

    M = rng.standard_normal((6, 6))
    S = 0.5 * (M + M.T)
    rep = dense_sym_eigs(S)
    checks["eigensolver trace/determinant"] = (
        abs(rep.eigenvalues.sum() - np.trace(S)) <= 1e-10
        and abs(np.prod(rep.eigenvalues) - np.linalg.det(S)) <= 1e-9
    )

    P = build_laplacian(100)
    b = rng.standard_normal(100)
    stencil = 2.0 * np.eye(100) - np.eye(100, k=1) - np.eye(100, k=-1)
    checks["sine-transform vs dense tridiagonal solve"] = (
        np.abs(apply_inverse(P, b) - np.linalg.solve(stencil, b)).max() <= 1e-11
    )

    failed = [name for name, ok in checks.items() if not ok]
    ok = not failed
    detail = f"{len(checks) - len(failed)}/{len(checks)} equivalences hold"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    assert _verdict(8, "oracle equivalences", ok, detail)


def test_criterion_9_remainder_envelope():
    theta = np.linspace(1e-6, np.pi, 4001)
    sups = []
    for n in (16, 32, 64, 128, 256, 512, 1024, 2048):
        ratio = np.abs(shared.rescaled_remainder(n, theta)) / (n * theta**2 + theta)
        sups.append(float(ratio.max()))
    bounded = max(sups) < 1.0
    growth_ok = all(b <= 1.10 * a for a, b in zip(sups, sups[1:]))
    ok = bounded and growth_ok
    assert _verdict(
        9, "remainder growth envelope", ok,
        f"sup ratios {min(sups):.4f}..{max(sups):.4f}, max step {max(b / a for a, b in zip(sups, sups[1:])):.4f}",
    )
