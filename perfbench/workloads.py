"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: `run_pass` runs one pass,
every step starting when the previous one returns, and times only the
calls into dofde.  Outputs are checked after the timer stops.

* study_dense   -- the CLI's `spectrum`, `outliers` and `mineig` at their
                   defaults: the paper's eigenvalue tables (dense eigensolves).
* study_solvers -- the CLI's `bounds`, `cn`, `coeffs`, `pcg` and `mgm` at
                   their defaults: the solver and analysis tables.
* solve         -- library calls at n = 65536 and 65535: coefficients by FFT,
                   then four preconditioners each with one PCG solve on a
                   right-hand side drawn from the seed.

The study workloads are deterministic by design (the CLI solves with the
all-ones vector), so their seed changes nothing.  An op is one
(command, n) pair in a study workload and one (n, preconditioner) solve in
`solve`.  A failure of a listed kind counts against its ops and the pass
goes on; any other exception is a defect of the benchmark or the program
and ends the run.
"""

import contextlib
import csv
import io
import shutil
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from scipy.linalg import LinAlgError, matmul_toeplitz

import dofde
import dofde.cli

from bootstrap import BENCH_DIR

REFERENCE_DIR = BENCH_DIR / "reference"

STUDY_COMMANDS = {
    "study_dense": ("spectrum", "outliers", "mineig"),
    "study_solvers": ("bounds", "cn", "coeffs", "pcg", "mgm"),
}
# Size lists of the tiny mode (n <= 64); full mode uses the CLI defaults.
TINY_SIZES = {
    "spectrum": "32..64",
    "outliers": "32..64",
    "mineig": "16..64",
    "cn": "8..64",
    "coeffs": "32..64",
    "pcg": "32..64",
    "mgm": "31..63",
}
NAMES = tuple(STUDY_COMMANDS) + ("solve",)

# 65536 makes the tau DST length 2*65537 (a large prime factor); 65535
# makes it 2^17 but the circulant FFT length 3*5*17*257.  A transform
# change that helps one shape and hurts the other shows on one of them.
SOLVE_SIZES = (65536, 65535)
# The Strang circulant is indefinite at small n = 3 (mod 4), which the
# program reports as NotSPDError, so the tiny odd size is 61, not 63.
TINY_SOLVE_SIZES = (64, 61)
# Builders are looked up on dofde at call time, so traced passes see the
# tracer's wrappers.
SOLVE_PRECS = {
    "strang": lambda scaled: dofde.build_strang(scaled),
    "frobenius_circulant": lambda scaled: dofde.build_frobenius_circulant(scaled),
    "natural_tau": lambda scaled: dofde.build_natural_tau(scaled),
    "laplacian": lambda scaled: dofde.build_laplacian(scaled.n),
}
SOLVE_TOL = 1e-7
ORACLE_TERMS = 65
COEFF_TOL = 1e-9
REL_TOL = 1e-8
ABS_TOL = 1e-12

# The program's own failure modes: each fails its ops, not the run.
FAILURES = (
    dofde.NotSPDError,
    dofde.BreakdownError,
    dofde.CoeffStabilizationError,
    dofde.QuadratureConvergenceError,
    LinAlgError,
)


class Steps:
    """Wall and CPU seconds of each timed step of a pass."""

    def __init__(self):
        self.wall = {}
        self.cpu = {}

    @contextlib.contextmanager
    def timed(self, name):
        wall0, cpu0 = perf_counter(), process_time()
        try:
            yield
        finally:
            self.wall[name] = perf_counter() - wall0
            self.cpu[name] = process_time() - cpu0


class PassResult:
    """Timings, op counts and comparable outputs of one pass."""

    def __init__(self, steps, attempted, failed, outputs):
        self.steps = steps
        self.wall_s = sum(steps.wall.values())
        self.cpu_s = sum(steps.cpu.values())
        self.attempted = attempted
        self.failed = failed
        self.outputs = outputs


def _op(tracer, op_id):
    return tracer.op(op_id) if tracer else contextlib.nullcontext()


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# study_dense, study_solvers: the CLI against recorded reference CSVs

def read_reference(tiny, command):
    path = REFERENCE_DIR / ("tiny" if tiny else "full") / f"{command}.csv"
    return path.read_text(encoding="utf-8")


def study_argv(command, out_dir, tiny):
    argv = [command, "--out", str(out_dir)]
    if tiny and command in TINY_SIZES:
        argv += ["--sizes", TINY_SIZES[command]]
    return argv


def _groups(text):
    """CSV text -> (header, {first column: [rows]}): one op per key."""
    rows = list(csv.reader(io.StringIO(text)))
    groups = {}
    for row in rows[1:]:
        groups.setdefault(row[0], []).append(row)
    return rows[0], groups


def _is_int(text):
    return text.lstrip("-").isdigit()


def _cell_ok(got, want):
    if got == want:
        return True
    if _is_int(want):
        return False
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= REL_TOL * abs(w) + ABS_TOL


def _rows_ok(got, want):
    if got is None or want is None or len(got) != len(want):
        return False
    return all(len(g) == len(w) and all(map(_cell_ok, g, w)) for g, w in zip(got, want))


def compare_csv(got_text, want_text):
    """(attempted, failed) ops of one command's CSV against its reference.

    Integer cells must match exactly, float cells to REL_TOL relative plus
    ABS_TOL absolute.  A missing output fails every reference op; a key
    present on one side only is one failed op.
    """
    want_header, want = _groups(want_text)
    if got_text is None:
        return len(want), len(want)
    got_header, got = _groups(got_text)
    keys = want.keys() | got.keys()
    if got_header != want_header:
        return len(keys), len(keys)
    return len(keys), sum(not _rows_ok(got.get(k), want.get(k)) for k in keys)


class StudyWorkload:
    """Runs dofde.cli.main once per command, writing CSV to a scratch dir."""

    def __init__(self, name, tiny, scratch_dir):
        self.name = name
        self.tiny = tiny
        self.scratch_dir = scratch_dir
        self.commands = STUDY_COMMANDS[name]
        self.reference = {c: read_reference(tiny, c) for c in self.commands}

    def run_pass(self, tracer=None):
        out_dir = tempfile.mkdtemp(prefix="csv-", dir=self.scratch_dir)
        try:
            status = {}
            steps = Steps()
            for command in self.commands:
                with steps.timed(command), _op(tracer, command), _span(tracer, f"cli.{command}"):
                    try:
                        status[command] = dofde.cli.main(study_argv(command, out_dir, self.tiny))
                    except FAILURES as exc:
                        status[command] = repr(exc)
            outputs = {}
            for command in self.commands:
                csv_path = Path(out_dir, f"{command}.csv")
                ok = status[command] == 0
                outputs[command] = csv_path.read_text(encoding="utf-8") if ok else status[command]
        finally:
            shutil.rmtree(out_dir)

        attempted = failed = 0
        for command in self.commands:
            text = outputs[command] if status[command] == 0 else None
            a, f = compare_csv(text, self.reference[command])
            attempted += a
            failed += f
        return PassResult(steps, attempted, failed, outputs)


# ---------------------------------------------------------------------------
# solve: matrix-free PCG at large n, checked by residual and by oracle

def scaled_residual(a, x, b):
    """||b - A x|| / ||b|| with A = toeplitz(a), computed by scipy."""
    return float(np.linalg.norm(b - matmul_toeplitz((a, a), x)) / np.linalg.norm(b))


class SolveWorkload:
    """Coefficients, four preconditioners and four PCG solves per size."""

    name = "solve"

    def __init__(self, seed, tiny):
        self.sizes = TINY_SOLVE_SIZES if tiny else SOLVE_SIZES
        rng = np.random.default_rng(seed)
        self.rhs = {(n, p): rng.standard_normal(n) for n in self.sizes for p in SOLVE_PRECS}
        # Independent coefficients by adaptive quadrature, computed once
        # and untraced: the check that coeffs_via_fft is right.
        self.oracle = {n: np.array([dofde.coeff_oracle(n, k) for k in range(min(ORACLE_TERMS, n))])
                       for n in self.sizes}

    def run_pass(self, tracer=None):
        coeffs, reports = {}, {}
        stop = dofde.StoppingRule(tol=SOLVE_TOL)
        steps = Steps()
        for n in self.sizes:
            with steps.timed(f"n={n}/coeffs"), _op(tracer, f"n={n}/coeffs"):
                try:
                    c = dofde.coeffs_via_fft(n)
                except FAILURES as exc:
                    coeffs[n] = repr(exc)
                    continue
                scaled = dofde.ToeplitzCoeffs(n, c.a / n)
                A = dofde.ToeplitzOperator(scaled)
                coeffs[n] = (c.a, scaled.a)
            for prec, build in SOLVE_PRECS.items():
                with steps.timed(f"n={n}/{prec}"), _op(tracer, f"n={n}/{prec}"):
                    try:
                        P = build(scaled)
                        reports[n, prec] = dofde.pcg(A, P, self.rhs[n, prec], stop=stop)
                    except FAILURES as exc:
                        reports[n, prec] = repr(exc)

        outputs = {}
        attempted = failed = 0
        for n in self.sizes:
            entry = coeffs[n]
            coeff_ok = not isinstance(entry, str)
            if coeff_ok:
                a, scaled_a = entry
                outputs[n] = a.tobytes()
                coeff_ok = bool(np.all(np.abs(a[: len(self.oracle[n])] - self.oracle[n]) <= COEFF_TOL))
            else:
                outputs[n] = entry
            for prec in SOLVE_PRECS:
                attempted += 1
                report = reports.get((n, prec), "not run")
                if isinstance(report, str):
                    outputs[n, prec] = report
                    failed += 1
                    continue
                outputs[n, prec] = (report.iterations, report.converged, report.solution.tobytes())
                ok = (coeff_ok and report.converged
                      and scaled_residual(scaled_a, report.solution, self.rhs[n, prec]) < SOLVE_TOL)
                failed += not ok
        return PassResult(steps, attempted, failed, outputs)

    def iterations(self, result):
        return {f"n={key[0]}/{key[1]}": value[0] for key, value in result.outputs.items()
                if isinstance(key, tuple) and isinstance(value, tuple)}


def make(name, seed, tiny, scratch_dir):
    if name == "solve":
        return SolveWorkload(seed, tiny)
    return StudyWorkload(name, tiny, scratch_dir)
