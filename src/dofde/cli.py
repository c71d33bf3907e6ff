"""Experiment runner.

Every experiment in the study is reachable from here: the bound
constants, the eigenfunction normalization sequence, the normalized
minimum eigenvalues, the stiffness coefficients, the five-way PCG
comparison, preconditioned spectra, outlier counts, and the multigrid
cases.  Output is deterministic CSV (or JSON with extra diagnostics),
one file per experiment when a directory is given, stdout otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .krylov import StoppingRule, pcg
from .multigrid import MGM_CASES, build_hierarchy, tgm, vcycle
from .preconditioners import PrecKind, build_preconditioner
from .quadrature import (
    lower_bound_constant,
    norm_constant,
    norm_constant_limit,
    upper_bound_constant,
)
from .spectral import count_outliers, min_eig_normalized, preconditioned_spectra
from .toeplitz import ToeplitzCoeffs, ToeplitzOperator, coeffs_via_fft

__all__ = ["RunConfig", "CliError", "parse_sizes", "run", "main"]

class CliError(ValueError):
    """Configuration problem that should surface as a nonzero exit."""


@dataclass
class RunConfig:
    command: str
    sizes: list = field(default_factory=list)
    preconditioners: list = field(default_factory=list)
    eps: list = field(default_factory=lambda: [1e-1, 1e-2])
    case: str | None = None
    tol: float = 1e-7
    quad_tol: float = 1e-8
    output_path: str | None = None
    format: str = "csv"


def parse_sizes(text):
    """Parse a size list: comma-separated integers, or `a..b` which
    doubles from a power of two (32..2048) and follows n -> 2n+1 from
    a power-of-two-minus-one start (31..2047)."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if lo < 2 or hi < lo:
            raise CliError(f"bad size range {text!r}")
        if lo & (lo - 1) == 0:
            step = lambda m: 2 * m
        elif (lo + 1) & lo == 0:
            step = lambda m: 2 * m + 1
        else:
            raise CliError(
                f"range start {lo} must be a power of two or one less than one"
            )
        sizes = []
        m = lo
        while m <= hi:
            sizes.append(m)
            m = step(m)
        if not sizes:
            raise CliError(f"empty size range {text!r}")
        return sizes
    return _parse_list(text, int, "size")


def _parse_list(text, convert, what):
    """Comma-separated positive values; a bad token or an empty list is
    a CliError."""
    try:
        values = [convert(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"bad {what} list {text!r}") from exc
    if not values or not all(v > 0 for v in values):
        raise CliError(f"{what} values must be positive: {text!r}")
    return values


def _parse_precs(text):
    if text.strip() == "all":
        return list(PrecKind)
    out = []
    valid = {k.value: k for k in PrecKind}
    for tok in text.split(","):
        tok = tok.strip()
        if tok not in valid:
            raise CliError(f"unknown preconditioner {tok!r}")
        out.append(valid[tok])
    return out


def _fmt(x):
    return "%.10e" % float(x)


def _scaled_coeffs(n):
    c = coeffs_via_fft(n)
    return ToeplitzCoeffs(n, c.a / n)


# ---------------------------------------------------------------------------
# command implementations: each returns (columns, rows, extras)

def _cmd_bounds(config):
    upper = upper_bound_constant(tol=config.quad_tol, detail=True)
    lower = lower_bound_constant(tol=max(config.quad_tol, 1e-12), detail=True)
    limit = norm_constant_limit(tol=config.quad_tol, detail=True)
    rows = [
        ["k1", _fmt(upper.value), _fmt(upper.abs_error_estimate)],
        ["k2", _fmt(lower.value), _fmt(lower.abs_error_estimate)],
        ["c_infinity", _fmt(limit.value), _fmt(limit.abs_error_estimate)],
    ]
    extras = {"evaluations": {
        "k1": upper.evaluations,
        "k2": lower.evaluations,
        "c_infinity": limit.evaluations,
    }}
    if config.output_path is None and config.format == "csv":
        # a one-line summary ahead of the CSV, on stdout only
        sys.stdout.write(", ".join(f"{name}={float(val):.4f}" for name, val, _ in rows) + "\n")
    return ["constant", "value", "error_estimate"], rows, extras


def _cmd_cn(config):
    rows = []
    for n in config.sizes:
        rows.append([str(n), _fmt(norm_constant(n, tol=config.quad_tol))])
    return ["n", "c_n"], rows, {}


def _cmd_mineig(config):
    upper = upper_bound_constant(tol=config.quad_tol)
    lower = lower_bound_constant(tol=max(config.quad_tol, 1e-12))
    rows = []
    for n in config.sizes:
        if n < 4:
            raise CliError(f"mineig needs n >= 4, got {n}")
        rows.append([str(n), _fmt(min_eig_normalized(n)), _fmt(lower), _fmt(upper)])
    return ["n", "normalized_min_eig", "k2", "k1"], rows, {}


def _cmd_coeffs(config):
    rows = []
    for n in config.sizes:
        c = coeffs_via_fft(n)
        for k in range(n):
            rows.append([str(n), str(k), _fmt(c.a[k])])
    return ["n", "k", "coefficient"], rows, {}


def _cmd_pcg(config):
    precs = config.preconditioners or list(PrecKind)
    columns = ["n"] + [k.value for k in precs]
    rows = []
    histories = {}
    for n in config.sizes:
        if n < 2:
            raise CliError(f"pcg needs n >= 2, got {n}")
        scaled = _scaled_coeffs(n)
        op = ToeplitzOperator(scaled)
        b = np.ones(n)
        stop = StoppingRule(tol=config.tol)
        row = [str(n)]
        for kind in precs:
            P = build_preconditioner(kind, scaled)
            report = pcg(op, P, b, stop=stop)
            row.append(str(report.iterations))
            histories[f"n={n},{kind.value}"] = [float(r) for r in report.residual_history]
        rows.append(row)
    return columns, rows, {"residual_histories": histories}


def _spectra(config, default_precs):
    """(n, kind, SpectrumReport) for every size and preconditioner."""
    precs = config.preconditioners or default_precs
    for n in config.sizes:
        scaled = _scaled_coeffs(n)
        spectra = preconditioned_spectra(
            scaled, [build_preconditioner(kind, scaled) for kind in precs])
        yield from ((n, kind, s) for kind, s in zip(precs, spectra))


def _cmd_spectrum(config):
    rows = [
        [str(n), kind.value, _fmt(s.lambda_min), _fmt(s.lambda_max)]
        for n, kind, s in _spectra(config, [k for k in PrecKind if k is not PrecKind.IDENTITY])
    ]
    return ["n", "preconditioner", "lambda_min", "lambda_max"], rows, {}


def _cmd_outliers(config):
    rows = []
    for n, kind, s in _spectra(config, [PrecKind.NATURAL_TAU, PrecKind.FROBENIUS_TAU]):
        for eps in config.eps:
            rep = count_outliers(s, eps)
            rows.append([
                str(n), kind.value, _fmt(eps),
                str(rep.n_out_left), str(rep.n_out_right), _fmt(rep.percent),
            ])
    return ["n", "preconditioner", "eps", "n_out_left", "n_out_right", "percent"], rows, {}


def _cmd_mgm(config):
    cases = [config.case] if config.case is not None else list(MGM_CASES)
    rows = []
    for n in config.sizes:
        if (n + 1) & n or n < 3:
            raise CliError(f"mgm needs sizes one less than a power of two, got {n}")
        scaled = _scaled_coeffs(n)
        h_two = build_hierarchy(scaled, coarsest_threshold=max((n - 1) // 2, 1))
        h_full = build_hierarchy(scaled)
        b = np.ones(n)
        stop = StoppingRule(tol=config.tol)
        for name in cases:
            t = tgm(h_two, name, b, stop=stop)
            v = vcycle(h_full, name, b, stop=stop)
            rows.append([str(n), name, str(t.iterations), str(v.iterations)])
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


def _csv_text(columns, rows):
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(command, columns, rows, extras, wall_time):
    payload = {
        "command": command,
        "columns": columns,
        "rows": rows,
        "wall_time_seconds": wall_time,
    }
    payload.update(extras)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(config, command, columns, rows, extras, wall_time):
    if config.format == "json":
        text = _json_text(command, columns, rows, extras, wall_time)
        suffix = ".json"
    else:
        text = _csv_text(columns, rows)
        suffix = ".csv"
    if config.output_path is None:
        sys.stdout.write(text)
        return
    import os

    os.makedirs(config.output_path, exist_ok=True)
    path = os.path.join(config.output_path, command + suffix)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _run_one(config, command):
    runner, default_sizes = _COMMANDS[command]
    sizes = config.sizes or (parse_sizes(default_sizes) if default_sizes else [])
    sub = replace(config, command=command, sizes=sizes)
    start = time.perf_counter()
    columns, rows, extras = runner(sub)
    wall = time.perf_counter() - start
    _emit(sub, command, columns, rows, extras, wall)


def run(config):
    """Execute one configured command; returns a process exit status."""
    try:
        if config.command != "all" and config.command not in _COMMANDS:
            raise CliError(f"unknown command {config.command!r}")
        if config.format not in ("csv", "json"):
            raise CliError(f"unknown format {config.format!r}")
        if config.command == "all":
            if not config.output_path:
                raise CliError("'all' needs --out DIR")
            if config.sizes:
                raise CliError("'all' runs every command at its default sizes; "
                               "--sizes applies to one command")
            for command in _COMMANDS:
                _run_one(config, command)
        else:
            _run_one(config, config.command)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


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
    parser.add_argument("--tol", type=float, default=1e-7, help="solver stopping tolerance")
    parser.add_argument("--quad-tol", type=float, default=1e-8, help="quadrature tolerance")
    parser.add_argument("--out", help="output directory (required for 'all')")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    try:
        sizes = parse_sizes(args.sizes) if args.sizes else []
        precs = _parse_precs(args.precs) if args.precs else []
        eps = _parse_list(args.eps, float, "eps")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config = RunConfig(
        command=args.command,
        sizes=sizes,
        preconditioners=precs,
        eps=eps,
        case=None if args.case == "all" else args.case,
        tol=args.tol,
        quad_tol=args.quad_tol,
        output_path=args.out,
        format=args.format,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
