"""Experiment runner.

Every experiment in the study is reachable from here: the bound
constants, the eigenfunction normalization sequence, the normalized
minimum eigenvalues, the stiffness coefficients, the five-way PCG
comparison, preconditioned spectra, outlier counts, and the multigrid
cases.  Output is deterministic CSV (or JSON with extra diagnostics),
one file per experiment when a directory is given, stdout otherwise.

Each command yields rows of raw values; every float cell prints as
`%.10e`, integers and names print as they are, and a JSON payload's
`rows` hold the same cells as the CSV.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from .krylov import BreakdownError, StoppingRule, pcg
from .multigrid import MGM_CASES, build_hierarchy, tgm, vcycle
from .preconditioners import PrecKind, build_preconditioner
from .quadrature import (
    QuadratureConvergenceError,
    lower_bound_constant,
    norm_constant,
    norm_constant_limit,
    upper_bound_constant,
)
from .spectral import count_below, lanczos_extremes, min_eig_normalized
from .toeplitz import CoeffStabilizationError, ToeplitzCoeffs, ToeplitzOperator, coeffs_via_fft

__all__ = ["CliError", "parse_sizes", "main"]

# Sizes from here on do not convert to a float exactly.
_SIZE_LIMIT = 2**53


class CliError(ValueError):
    """Configuration problem that should surface as a nonzero exit."""


def parse_sizes(text):
    """Parse a size list: comma-separated integers, or `a..b` which
    doubles from a power of two (32..2048) and follows n -> 2n+1 from
    a power-of-two-minus-one start (31..2047).  A size of 2^53 or more,
    which no float holds exactly, is a CliError."""
    sizes = _parse_sizes(text)
    for n in sizes:
        if n >= _SIZE_LIMIT:
            raise CliError(f"size {n} is too large: sizes must be below 2**53")
    return sizes


def _parse_sizes(text):
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise CliError(f"bad size range {text!r}") from exc
        if lo < 2 or hi < lo:
            raise CliError(f"bad size range {text!r}")
        # n -> 2n+1 is a doubling of n + 1, so both rules double lo + shift
        shift = int(lo & (lo - 1) != 0)
        m = lo + shift
        if m & (m - 1):
            raise CliError(
                f"range start {lo} must be a power of two or one less than one"
            )
        sizes = []
        while m - shift <= hi:
            sizes.append(m - shift)
            m *= 2
        return sizes
    return _parse_list(text, int, "size")


def _parse_list(text, convert, what):
    """Comma-separated positive finite values; a bad token or an empty
    list is a CliError."""
    try:
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad {what} list {text!r}") from exc
    if not values or not all(v > 0 for v in values):
        raise CliError(f"{what} values must be positive: {text!r}")
    if not all(v < np.inf for v in values):
        raise CliError(f"{what} values must be finite: {text!r}")
    return values


def _parse_precs(text):
    if text.strip() == "all":
        return list(PrecKind)
    try:
        return [PrecKind(tok.strip()) for tok in text.split(",")]
    except ValueError as exc:
        raise CliError(f"unknown preconditioner in {text!r}") from exc


def _iterations(report, what):
    """The iteration count of a converged solve; a solve that stopped at
    its cap (then report.iterations) is a CliError, not a count."""
    if not report.converged:
        raise CliError(f"{what} did not converge within its cap of {report.iterations} iterations")
    return report.iterations


def _coefficients():
    """n -> coeffs_via_fft(n), sampled once per n.  `main` makes one for
    each call, so the commands of `all` share their coefficients and none
    outlive the call; coeffs_via_fft is looked up at call time, so a
    wrapper set on this module sees every sampling."""
    sampled = {}

    def coeffs(n):
        if n not in sampled:
            sampled[n] = coeffs_via_fft(n)
        return sampled[n]

    return coeffs


def _scaled_coeffs(args, n):
    c = args.coeffs(n)
    return ToeplitzCoeffs(n, c.a / n)


# ---------------------------------------------------------------------------
# command implementations: each takes the parsed arguments, with `sizes`
# resolved to a list and `coeffs` the call's `_coefficients`, and returns
# (columns, rows of raw values, extras)

def _cmd_bounds(args):
    upper = upper_bound_constant(tol=args.quad_tol)
    lower = lower_bound_constant(tol=args.quad_tol)
    limit = norm_constant_limit(tol=args.quad_tol)
    rows = [
        ["k1", upper.value, upper.abs_error_estimate],
        ["k2", lower.value, lower.abs_error_estimate],
        ["c_infinity", limit.value, limit.abs_error_estimate],
    ]
    extras = {"evaluations": {
        "k1": upper.evaluations,
        "k2": lower.evaluations,
        "c_infinity": limit.evaluations,
    }}
    if args.out is None and args.format == "csv":
        # a one-line summary ahead of the CSV, on stdout only
        sys.stdout.write(", ".join(f"{name}={val:.4f}" for name, val, _ in rows) + "\n")
    return ["constant", "value", "error_estimate"], rows, extras


def _cmd_cn(args):
    rows = [[n, norm_constant(n)] for n in args.sizes]
    return ["n", "c_n"], rows, {}


def _cmd_mineig(args):
    upper = upper_bound_constant(tol=args.quad_tol).value
    lower = lower_bound_constant(tol=args.quad_tol).value
    rows = []
    for n in args.sizes:
        value = min_eig_normalized(args.coeffs(n))
        if value is None:
            raise CliError(f"mineig n={n} did not certify lambda_min by Lanczos on A^-1")
        rows.append([n, value, lower, upper])
    return ["n", "normalized_min_eig", "k2", "k1"], rows, {}


def _cmd_coeffs(args):
    rows = [[n, k, a] for n in args.sizes for k, a in enumerate(args.coeffs(n).a)]
    return ["n", "k", "coefficient"], rows, {}


def _cmd_pcg(args):
    precs = args.precs or list(PrecKind)
    columns = ["n"] + [k.value for k in precs]
    rows = []
    histories = {}
    for n in args.sizes:
        scaled = _scaled_coeffs(args, n)
        op = ToeplitzOperator(scaled)
        b = np.ones(n)
        row = [n]
        for kind in precs:
            P = build_preconditioner(kind, scaled)
            report = pcg(op, P, b, stop=args.stop)
            row.append(_iterations(report, f"pcg n={n} preconditioner {kind.value}"))
            histories[f"n={n},{kind.value}"] = [float(r) for r in report.residual_history]
        rows.append(row)
    return columns, rows, {"residual_histories": histories}


def _cmd_spectrum(args):
    # Lanczos extremes; a row they do not certify is an error
    precs = args.precs or [k for k in PrecKind if k is not PrecKind.IDENTITY]
    rows = []
    routes = {}
    for n in args.sizes:
        scaled = _scaled_coeffs(args, n)
        for kind in precs:
            P = build_preconditioner(kind, scaled)
            extremes = lanczos_extremes(scaled, P)
            if extremes is None:
                raise CliError(f"spectrum n={n} preconditioner {kind.value} "
                               "did not certify its extremes by Lanczos")
            routes[f"n={n},{kind.value}"] = {"lower": asdict(extremes.lower),
                                             "upper": asdict(extremes.upper)}
            rows.append([n, kind.value, extremes.lambda_min, extremes.lambda_max])
    return ["n", "preconditioner", "lambda_min", "lambda_max"], rows, {"routes": routes}


def _cmd_outliers(args):
    # counts by inertia for the natural and Frobenius tau (or the kinds
    # --precs names), every kind and eps of a size in one call
    precs = args.precs or [PrecKind.NATURAL_TAU, PrecKind.FROBENIUS_TAU]
    # each eps positive, finite and wide enough to move 1, as `main` checks
    shifts = [shift for eps in args.eps for shift in (1.0 - eps, 1.0 + eps)]
    rows = []
    for n in args.sizes:
        scaled = _scaled_coeffs(args, n)
        built = [build_preconditioner(kind, scaled) for kind in precs]
        below = count_below(scaled, [(P, shift) for P in built for shift in shifts])
        for i, P in enumerate(built):
            counts = below[i * len(shifts) : (i + 1) * len(shifts)]
            if None in counts:
                raise CliError(f"outliers n={n} preconditioner {P.kind.value} met a zero or "
                               "non-finite pivot: an eigenvalue may lie on 1 +- eps")
            for eps, left, inside in zip(args.eps, counts[::2], counts[1::2]):
                right = n - inside
                rows.append([n, P.kind.value, eps, left, right, 100.0 * (left + right) / n])
    columns = ["n", "preconditioner", "eps", "n_out_left", "n_out_right", "percent"]
    return columns, rows, {}


def _cmd_mgm(args):
    cases = list(MGM_CASES) if args.case == "all" else [args.case]
    rows = []
    for n in args.sizes:
        h = build_hierarchy(_scaled_coeffs(args, n))
        b = np.ones(n)
        for name in cases:
            t = tgm(h, name, b, stop=args.stop)
            v = vcycle(h, name, b, stop=args.stop)
            rows.append([n, name, _iterations(t, f"mgm n={n} case {name} tgm"),
                         _iterations(v, f"mgm n={n} case {name} vcycle")])
    return ["n", "case", "tgm_iterations", "vcycle_iterations"], rows, {}


# Each command's runner and default sizes, in the order 'all' runs them.
_COMMANDS = {
    "bounds": (_cmd_bounds, None),
    "cn": (_cmd_cn, "8..4096"),
    "mineig": (_cmd_mineig, "16..2048"),
    "coeffs": (_cmd_coeffs, "32..2048"),
    "pcg": (_cmd_pcg, "32..2048"),
    "spectrum": (_cmd_spectrum, "32..2048"),
    "outliers": (_cmd_outliers, "32..2048"),
    "mgm": (_cmd_mgm, "31..2047"),
}


def _run_one(args, command):
    runner, default_sizes = _COMMANDS[command]
    sizes = args.sizes or (parse_sizes(default_sizes) if default_sizes else [])
    sub = argparse.Namespace(**{**vars(args), "sizes": sizes})
    start = time.perf_counter()
    columns, rows, extras = runner(sub)
    wall = time.perf_counter() - start
    rows = [["%.10e" % v if isinstance(v, float) else str(v) for v in row] for row in rows]
    if args.format == "json":
        payload = {"command": command, "columns": columns, "rows": rows,
                   "wall_time_seconds": wall, **extras}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(",".join(line) for line in [columns, *rows]) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    path = os.path.join(args.out, f"{command}.{args.format}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dofde",
        description="Distributed-order stiffness matrices: bounds, spectra, solvers.",
    )
    parser.add_argument("command", choices=[*_COMMANDS, "all"])
    parser.add_argument("--sizes", help="comma list or a..b range (32..2048, 31..2047); "
                        "not with 'all', which uses each command's defaults")
    parser.add_argument("--precs", help="comma list of preconditioner names, or 'all'")
    parser.add_argument("--eps", help="comma list of outlier half-widths", default="1e-1,1e-2")
    parser.add_argument("--case", choices=[*MGM_CASES, "all"], default="all")
    parser.add_argument("--tol", type=float, default=StoppingRule.tol,
                        help="solver stopping tolerance")
    parser.add_argument("--quad-tol", type=float, default=1e-8, help="quadrature tolerance")
    parser.add_argument("--out", help="output directory (required for 'all')")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        args.sizes = parse_sizes(args.sizes) if args.sizes else []
        args.precs = _parse_precs(args.precs) if args.precs else []
        args.eps = _parse_list(args.eps, float, "eps")
        # a shift that rounds to 1 would count at 1 itself
        if any(1.0 - eps == 1.0 or 1.0 + eps == 1.0 for eps in args.eps):
            raise CliError(f"eps {min(args.eps)!r} is too small: 1 +- eps rounds to 1")
        args.stop = StoppingRule(tol=args.tol)
        args.coeffs = _coefficients()
        if args.command != "all":
            commands = [args.command]
        elif not args.out:
            raise CliError("'all' needs --out DIR")
        elif args.sizes:
            raise CliError("'all' runs every command at its default sizes; "
                           "--sizes applies to one command")
        else:
            commands = list(_COMMANDS)
        # an --out that cannot be a directory fails before any table is computed
        if args.out is not None:
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:
                raise CliError(f"cannot write to --out {args.out!r}: {exc}") from exc
        for command in commands:
            _run_one(args, command)
    # CliError and NotSPDError are ValueErrors; the program's own failures,
    # and the overflow or division by zero of a size too large for floats,
    # get the same error line and status instead of a traceback
    except (ValueError, ArithmeticError, CoeffStabilizationError,
            QuadratureConvergenceError, BreakdownError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
