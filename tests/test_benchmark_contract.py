"""The benchmark's per-layer metrics name functions of the package.

The traced benchmark wraps every function in `dofde.__all__` and reports
`<layer>.<fn>.s` and `<layer>.<fn>.calls` for each.  A metric whose
function was deleted or renamed makes every traced run fail, so each such
name in BENCHMARK.json must still resolve.  The counters it reads from
return values must keep their shape too.  The file is only read here.
"""

import json
import pkgutil
from pathlib import Path

import numpy as np

import dofde
import dofde.cli
import dofde.spectral

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# `toeplitz.matvec` is ToeplitzOperator.__call__, and the `cli.*` spans
# are opened by the benchmark itself around each command.
NOT_FUNCTIONS = {"matvec"}
NOT_LIBRARY_LAYERS = {"cli"}


def function_metrics():
    modules = {m.name for m in pkgutil.iter_modules(dofde.__path__)}
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    for name in names:
        parts = name.split(".")
        if len(parts) != 3 or parts[2] not in ("s", "calls"):
            continue
        layer, fn, _ = parts
        if layer in modules and layer not in NOT_LIBRARY_LAYERS and fn not in NOT_FUNCTIONS:
            yield name, layer, fn


def test_per_layer_metrics_name_exported_functions():
    found = list(function_metrics())
    assert "krylov.cg_smooth_step.calls" in {name for name, _, _ in found}
    missing = [
        name for name, layer, fn in found
        if fn not in dofde.__all__
        or getattr(getattr(dofde, fn, None), "__module__", None) != f"dofde.{layer}"
    ]
    assert not missing, f"BENCHMARK.json names functions dofde does not export: {missing}"


def test_hierarchy_bytes_count_level_coefficients():
    # the traced benchmark reports `multigrid.hierarchy_bytes` as
    # sum(m.nbytes for m in hierarchy.matrices), so `matrices` must stay a
    # tuple holding each level's first column
    n = 63
    h = dofde.build_hierarchy(dofde.ToeplitzCoeffs(n, np.eye(n)[0] * 2.0))
    assert isinstance(h.matrices, tuple)
    assert [m.shape for m in h.matrices] == [(63,), (31,), (15,)]
    assert sum(m.nbytes for m in h.matrices) == 8 * (63 + 31 + 15)


def test_solver_and_quadrature_counters_keep_their_types():
    # the traced benchmark adds report.iterations of every pcg, vcycle and
    # tgm call to `krylov.iterations` and `multigrid.iterations`, and
    # result.evaluations of every integrate_adaptive call to
    # `quadrature.evaluations`
    n = 15
    c = dofde.ToeplitzCoeffs(n, np.eye(n)[0] * 2.0 - np.eye(n)[1])
    b = np.ones(n)
    identity = dofde.build_preconditioner(dofde.PrecKind.IDENTITY, c)
    reports = [
        dofde.pcg(dofde.ToeplitzOperator(c), identity, b),
        dofde.vcycle(dofde.build_hierarchy(c), "alpha", b),
        dofde.tgm(dofde.build_hierarchy(c), "alpha", b),
    ]
    for report in reports:
        assert isinstance(report, dofde.SolveReport)
        assert type(report.iterations) is int and report.iterations > 0
    result = dofde.integrate_adaptive(np.cos, 0.0, 1.0)
    assert type(result.evaluations) is int and result.evaluations > 0


def test_dense_spectra_count_one_call_per_kind(monkeypatch, tmp_path):
    # the traced benchmark wraps `preconditioned_spectrum` in every dofde
    # module that binds it and reports `spectral.preconditioned_spectrum.calls`,
    # so each dense spectrum of a command would be one call through that
    # name; the dense route is the test oracle, and no command, for any
    # kind, makes that call
    kinds = []
    spectrum = dofde.spectral.preconditioned_spectrum
    monkeypatch.setattr(dofde.spectral, "preconditioned_spectrum",
                        lambda c, P: kinds.append(P.kind) or spectrum(c, P))
    assert not hasattr(dofde.cli, "preconditioned_spectrum")
    for argv in (
        ["outliers", "--sizes", "32"],
        ["mineig", "--sizes", "16"],
        ["outliers", "--sizes", "32,64", "--precs", "all"],
        ["spectrum", "--sizes", "32,64", "--precs", "all"],
    ):
        assert dofde.cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert kinds == [], argv
