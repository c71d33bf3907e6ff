import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import conftest as shared
import dofde.cli
import dofde.krylov
import dofde.multigrid
import dofde.preconditioners
import dofde.quadrature
import dofde.spectral
import dofde.toeplitz
from dofde import MGM_CASES, NotSPDError, PrecKind
from dofde.cli import CliError, main, parse_sizes

# Tables recorded from an earlier version of the program; read, never written.
REFERENCE_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "full"


def _benchmark_tiny_sizes():
    """The benchmark's `TINY_SIZES` table, read from its source without
    importing the benchmark."""
    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TINY_SIZES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no TINY_SIZES")


def _sizes_oracle(lo, hi):
    """The sizes of `lo..hi`, or None where the range is an error: doubling
    from a power of two, n -> 2n+1 from one less than one."""
    if lo < 2 or hi < lo:
        return None
    if bin(lo).count("1") == 1:
        extra = 0
    elif bin(lo + 1).count("1") == 1:
        extra = 1
    else:
        return None
    sizes = [lo]
    while 2 * sizes[-1] + extra <= hi:
        sizes.append(2 * sizes[-1] + extra)
    return sizes


class TestParseSizes:
    def test_power_of_two_range_doubles(self):
        assert parse_sizes("32..2048") == [32, 64, 128, 256, 512, 1024, 2048]

    def test_grid_range_follows_odd_refinement(self):
        assert parse_sizes("31..2047") == [31, 63, 127, 255, 511, 1023, 2047]

    def test_comma_list_and_singleton(self):
        assert parse_sizes("16,32") == [16, 32]
        assert parse_sizes("64") == [64]

    def test_rejects_bad_input(self):
        for bad in ("33..100", "8..4", "8..x", "x..8", "0", "", "a,b"):
            with pytest.raises(CliError):
                parse_sizes(bad)

    # valid starts are rare among uniform draws, so half the draws are a
    # power of two or one less than one, all inside [-3, 5000]
    @given(lo=st.one_of(st.integers(-3, 5000),
                        st.integers(0, 12).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k]))),
           hi=st.integers(-3, 70000))
    @example(lo=2, hi=70000)
    @example(lo=3, hi=70000)
    @example(lo=7, hi=7)
    @example(lo=7, hi=2046)
    @example(lo=8, hi=8)
    @example(lo=8, hi=4096)
    def test_range_matches_oracle(self, lo, hi):
        want = _sizes_oracle(lo, hi)
        if want is None:
            with pytest.raises(CliError):
                parse_sizes(f"{lo}..{hi}")
        else:
            assert parse_sizes(f"{lo}..{hi}") == want


class TestCommands:
    def test_bounds_stdout(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k1=")
        assert "k2=2.2945" in out
        assert "c_infinity=2.2214" in out
        assert "constant,value,error_estimate" in out

    def test_bounds_file_output(self, tmp_path):
        assert main(["bounds", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "bounds.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "constant,value,error_estimate"
        values = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
        assert values["k2"] == pytest.approx(2.2944573929790779, abs=1e-7)
        assert values["c_infinity"] == pytest.approx(np.pi / np.sqrt(2), abs=1e-7)

    def test_cn_header(self, capsys):
        assert main(["cn", "--sizes", "8,16"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,c_n"
        assert len(lines) == 3
        assert float(lines[1].split(",")[1]) == pytest.approx(2.17660286, abs=1e-6)

    def test_mineig_within_bounds(self, capsys):
        assert main(["mineig", "--sizes", "16"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,normalized_min_eig,k2,k1"
        _, val, k2, k1 = (float(tok) for tok in lines[1].split(","))
        assert k2 <= val <= k1

    def test_pcg_table_shape(self, capsys):
        assert main(["pcg", "--sizes", "32"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,identity,strang,frobenius_circulant,natural_tau,frobenius_tau,laplacian"
        row = lines[1].split(",")
        assert row[0] == "32"
        counts = [int(tok) for tok in row[1:]]
        assert all(1 <= k <= 320 for k in counts)

    def test_spectrum_rows(self, capsys):
        assert main(["spectrum", "--sizes", "32", "--precs", "natural_tau"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,preconditioner,lambda_min,lambda_max"
        n, kind, lo, hi = lines[1].split(",")
        assert (n, kind) == ("32", "natural_tau")
        assert float(lo) == pytest.approx(8.1574e-1, rel=1e-3)
        assert float(hi) == pytest.approx(1.1475, rel=1e-3)

    def test_spectrum_json_gives_each_rows_route(self, tmp_path):
        # a certified Lanczos row gives each end's steps and residual bound,
        # and an end that comes from a shift-and-invert run (the Frobenius
        # circulant's lower end at shift 0, the Laplacian's) that run's
        # shift and inner steps too; the CSV of the same run keeps its four
        # columns
        argv = ["spectrum", "--sizes", "32,512", "--precs", "strang,frobenius_circulant,laplacian",
                "--out", str(tmp_path)]
        assert main(argv + ["--format", "json"]) == 0
        assert main(argv) == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        header, *body = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert header == "n,preconditioner,lambda_min,lambda_max"
        assert payload["rows"] == [line.split(",") for line in body]
        routes = payload["routes"]
        assert sorted(routes) == sorted(f"n={n},{kind}" for n, kind, _, _ in payload["rows"])
        for key in routes:
            assert set(routes[key]) == {"lower", "upper"}, key
            for end in routes[key].values():
                assert 1 <= end["steps"] <= dofde.spectral._LANCZOS_STEPS
            lower = routes[key]["lower"]
            shifted = lower["shift"] is not None and lower["inner_steps"] is not None
            kind = PrecKind(key.split(",")[1])
            assert shifted == (dofde.spectral._ENDS[kind][0] is not None), key
        for n in ("32", "512"):
            for kind in ("frobenius_circulant", "laplacian"):
                assert routes[f"n={n},{kind}"]["lower"]["steps"] >= 1
            assert routes[f"n={n},frobenius_circulant"]["lower"]["shift"] == 0.0
        for key in ("512,strang", "512,laplacian"):
            row = next(row for row in payload["rows"] if ",".join(row[:2]) == key)
            ends = routes[f"n={key}"]
            bounds = [ends["lower"]["bound"], ends["upper"]["bound"]]
            assert all(b <= 1e-10 * float(v) for b, v in zip(bounds, row[2:]))

    def test_spectrum_json_records_match_rows_and_routes(self, capsys):
        # each end's record holds the value its CSV cell prints, and an end
        # carries a shift and inner steps exactly when `_ENDS` routes it
        # through an inverse run
        argv = ["spectrum", "--sizes", "32,512", "--precs", "all"]
        assert main(argv + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        csv_rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert payload["rows"] == csv_rows and len(csv_rows) == 2 * len(PrecKind)
        for n, kind, low, high in csv_rows:
            ends = payload["routes"][f"n={n},{kind}"]
            assert ["%.10e" % ends["lower"]["value"], "%.10e" % ends["upper"]["value"]] == [low, high]
            for end, route in zip(("lower", "upper"), dofde.spectral._ENDS[PrecKind(kind)]):
                record = ends[end]
                assert set(record) == {"value", "steps", "bound", "shift", "inner_steps"}
                assert (record["shift"] is not None) == (route is not None), (n, kind, end)
                assert (record["inner_steps"] is not None) == (route is not None), (n, kind, end)

    def test_identity_takes_both_ends_from_inverse_runs(self, tmp_path):
        # beyond the plain step budget the identity's upper end comes from
        # (sigma I - A)^(-1), sigma above A's spectrum
        n = 512
        assert main(["spectrum", "--sizes", str(n), "--precs", "identity", "--format", "json",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        route = payload["routes"][f"n={n},identity"]
        assert set(route) == {"lower", "upper"}
        for end in route.values():
            assert end["shift"] is not None and end["inner_steps"] is not None
        assert route["lower"]["shift"] == 0.0
        assert route["upper"]["shift"] > float(payload["rows"][0][3])

    def test_outliers_rows(self, capsys):
        assert main([
            "outliers", "--sizes", "32", "--precs", "frobenius_tau", "--eps", "1e-2",
        ]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,preconditioner,eps,n_out_left,n_out_right,percent"
        row = lines[1].split(",")
        assert (int(row[3]), int(row[4])) == (18, 4)

    def test_mgm_rows(self, capsys):
        assert main(["mgm", "--sizes", "31", "--case", "delta"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,case,tgm_iterations,vcycle_iterations"
        row = lines[1].split(",")
        assert row[:2] == ["31", "delta"]
        assert 1 <= int(row[2]) <= 3

    def test_json_format(self, tmp_path):
        assert main([
            "pcg", "--sizes", "32", "--precs", "natural_tau",
            "--format", "json", "--out", str(tmp_path),
        ]) == 0
        payload = json.loads((tmp_path / "pcg.json").read_text())
        assert payload["command"] == "pcg"
        assert payload["columns"] == ["n", "natural_tau"]
        histories = payload["residual_histories"]
        (key,) = histories
        assert histories[key][-1] < 1e-7
        assert "wall_time_seconds" in payload


class TestMgmCases:
    def test_case_choices_are_the_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        choices = re.search(r"--case \{([^}]*)\}", capsys.readouterr().out).group(1)
        assert choices.split(",") == [*MGM_CASES, "all"]

    @pytest.mark.parametrize("name", list(MGM_CASES))
    def test_one_case_matches_all_cases_run(self, name, capsys):
        assert main(["mgm", "--sizes", "31,63"]) == 0
        every = capsys.readouterr().out.strip().split("\n")
        assert main(["mgm", "--sizes", "31,63", "--case", name]) == 0
        one = capsys.readouterr().out.strip().split("\n")
        assert one[0] == every[0] == "n,case,tgm_iterations,vcycle_iterations"
        assert one[1:] == [row for row in every[1:] if row.split(",")[1] == name]
        assert len(one) == 3


# Every name a table cell may hold: the bound constants, the
# preconditioners and the multigrid cases.
_CELL_NAMES = {"k1", "k2", "c_infinity", *(k.value for k in PrecKind), *MGM_CASES}


class TestOutputFormats:
    @pytest.mark.parametrize("command", list(dofde.cli._COMMANDS))
    def test_json_and_csv_carry_the_same_cells(self, command, tmp_path):
        sizes = _benchmark_tiny_sizes().get(command)
        argv = [command, "--out", str(tmp_path)] + (["--sizes", sizes] if sizes else [])
        for fmt in ("csv", "json"):
            assert main(argv + ["--format", fmt]) == 0
        header, *body = (tmp_path / f"{command}.csv").read_text().splitlines()
        payload = json.loads((tmp_path / f"{command}.json").read_text())
        assert body
        assert payload["columns"] == header.split(",")
        assert payload["rows"] == [line.split(",") for line in body]
        for cell in (cell for row in payload["rows"] for cell in row):
            assert (cell.isdigit() or cell in _CELL_NAMES
                    or re.fullmatch(r"-?\d\.\d{10}e[+-]\d{2,3}", cell)), cell


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for target in (a, b):
            assert main(["pcg", "--sizes", "32,64", "--out", str(target)]) == 0
        assert (a / "pcg.csv").read_bytes() == (b / "pcg.csv").read_bytes()

    def test_spectrum_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for target in (a, b):
            assert main([
                "spectrum", "--sizes", "16", "--precs", "strang", "--out", str(target),
            ]) == 0
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()

    def test_all_samples_each_size_once(self, monkeypatch, tmp_path):
        # the commands of one `all` call share their coefficients, and the
        # tables are those of each command run in a call of its own
        calls = []
        sample = dofde.cli.coeffs_via_fft
        monkeypatch.setattr(dofde.cli, "coeffs_via_fft", lambda n: calls.append(n) or sample(n))
        assert main(["all", "--out", str(tmp_path / "all")]) == 0
        # every command but bounds and cn samples, 43 times at 15 sizes before
        sizes = {n for command, (_, text) in dofde.cli._COMMANDS.items()
                 if command not in ("bounds", "cn") for n in parse_sizes(text)}
        assert sorted(calls) == sorted(sizes) and len(calls) == 15
        for command in dofde.cli._COMMANDS:
            assert main([command, "--out", str(tmp_path / command)]) == 0
            table = f"{command}.csv"
            assert (tmp_path / "all" / table).read_bytes() == (tmp_path / command / table).read_bytes()


class TestErrorPaths:
    def test_mgm_rejects_wrong_size_form(self, capsys):
        assert main(["mgm", "--sizes", "32"]) == 2
        assert "error" in capsys.readouterr().err

    def test_mgm_inexact_coarse_solve_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setattr(dofde.multigrid, "pcg", shared.one_step_pcg)
        assert main(["mgm", "--sizes", "7"]) == 2
        assert "error: PCG for T^-1 e_1" in capsys.readouterr().err

    def test_mgm_nonconvergence_is_an_error(self, capsys):
        # no solve reaches tol 1e-300: the cap 10 n is not an iteration count
        assert main(["mgm", "--sizes", "7", "--tol", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: mgm n=7 case alpha tgm did not converge "
                                "within its cap of 70 iterations\n")
        assert captured.out == ""

    def test_pcg_nonconvergence_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setattr(dofde.cli, "pcg", shared.one_step_pcg)
        assert main(["pcg", "--sizes", "32", "--precs", "natural_tau"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: pcg n=32 preconditioner natural_tau did not "
                                "converge within its cap of 1 iterations\n")
        assert captured.out == ""

    def test_mineig_rejects_tiny_size(self, capsys):
        # the symbol has no order 1, and the coefficient layer says so
        assert main(["mineig", "--sizes", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: matrix order n must be an integer >= 2, got 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["cn", "--sizes", "8"], ["all"]])
    def test_out_that_is_a_file_fails_before_any_table(self, argv, capsys, monkeypatch, tmp_path):
        def never(args):
            raise AssertionError("a runner ran although --out is not a directory")

        for command, (_, sizes) in dofde.cli._COMMANDS.items():
            monkeypatch.setitem(dofde.cli._COMMANDS, command, (never, sizes))
        out = tmp_path / "file"
        out.write_text("kept\n")
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write to --out") and captured.out == ""
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_bad_tol_fails_before_any_table(self, tol, capsys, tmp_path):
        out = tmp_path / "out"
        assert main(["all", "--out", str(out), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tol must be positive\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["pcg", "--sizes", "32", "--tol", "inf"], "tol must be finite"),
        (["mgm", "--sizes", "31", "--tol", "inf"], "tol must be finite"),
        (["bounds", "--quad-tol", "inf"], "tol must be finite and at least 1e-12"),
        (["mineig", "--sizes", "16", "--quad-tol", "inf"], "tol must be finite and at least 1e-12"),
        (["all", "--quad-tol", "inf"], "tol must be finite and at least 1e-12"),
    ])
    def test_infinite_tol_writes_nothing(self, argv, message, capsys, tmp_path):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("command", ["cn", "pcg", "mineig"])
    @pytest.mark.parametrize("size", [str(2**53), str(2**63), "32," + "1" + "0" * 400],
                             ids=["2**53", "2**63", "10**400"])
    def test_size_too_large_for_floats_writes_nothing(self, command, size, capsys, tmp_path):
        # every size from 2^53 on, where n stops converting to a float
        # exactly, fails in parsing, before any table: before, n = 2^63
        # divided by zero in the symbol's corner slope (pcg, mineig) or
        # printed the limit c_inf (cn), and 10^400 overflowed a float
        out = tmp_path / "out"
        assert main([command, "--sizes", size, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        too_large = size.split(",")[-1]
        assert captured.err == (f"error: size {too_large} is too large: "
                                "sizes must be below 2**53\n") and captured.out == ""
        assert not list(out.glob("*"))

    def test_largest_float_exact_size_parses(self):
        assert parse_sizes(str(2**53 - 1)) == [2**53 - 1]
        assert parse_sizes(f"{2**51}..{2**53 - 1}") == [2**51, 2**52]

    def test_unknown_preconditioner(self, capsys):
        assert main(["pcg", "--sizes", "32", "--precs", "jacobi"]) == 2
        assert "jacobi" in capsys.readouterr().err

    def test_nonpositive_eps(self, capsys):
        assert main(["outliers", "--sizes", "32", "--eps", "-0.1"]) == 2
        capsys.readouterr()

    def test_infinite_eps_writes_nothing(self, capsys, tmp_path):
        # every eigenvalue is inside 1 +- inf, so the count means nothing
        out = tmp_path / "out"
        argv = ["outliers", "--sizes", "32", "--precs", "natural_tau", "--eps", "inf"]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: eps values must be finite: 'inf'\n"
        assert captured.out == ""
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("eps", ["1e-17", "1e-1,1.1e-16", "5e-17,1e-2"])
    def test_eps_that_leaves_one_unmoved_writes_nothing(self, capsys, tmp_path, eps):
        # 1 + eps rounds to 1 at eps <= 2^-53, so both counts would be
        # taken at 1 itself; the list is refused before any table
        out = tmp_path / "out"
        argv = ["outliers", "--sizes", "16", "--precs", "frobenius_tau", "--eps", eps]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        smallest = min(float(tok) for tok in eps.split(","))
        assert captured.err == f"error: eps {smallest!r} is too small: 1 +- eps rounds to 1\n"
        assert captured.out == ""
        assert not list(out.glob("*"))

    def test_least_eps_that_moves_one_is_counted(self, capsys):
        eps = float(np.nextafter(2.0**-53, 1.0))
        assert 1.0 + eps > 1.0 > 1.0 - eps
        assert main(["outliers", "--sizes", "32", "--precs", "natural_tau",
                     "--eps", repr(eps)]) == 0
        assert capsys.readouterr().out.count("\n") == 2

    def test_unparsable_eps(self, capsys):
        assert main(["outliers", "--sizes", "32", "--eps", "abc"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "abc" in captured.err
        assert captured.out == ""

    def test_empty_eps(self, capsys):
        assert main(["outliers", "--sizes", "32", "--eps", ","]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_all_requires_out(self, capsys):
        assert main(["all"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_all_rejects_sizes(self, capsys, tmp_path):
        # 'all' runs every command at its own default sizes, so a size
        # list would be silently ignored
        out = tmp_path / "out"
        assert main(["all", "--sizes", "32", "--out", str(out)]) == 2
        assert "--sizes" in capsys.readouterr().err
        assert not out.exists()

    def test_not_spd_surfaced_with_kind_name(self, capsys, monkeypatch):
        import dofde.cli as cli_mod

        def explode(kind, scaled):
            raise NotSPDError("strang preconditioner of order 32 is not SPD")

        monkeypatch.setattr(cli_mod, "build_preconditioner", explode)
        assert main(["pcg", "--sizes", "32", "--precs", "strang"]) == 2
        err = capsys.readouterr().err
        assert "strang" in err and "not SPD" in err

    def test_run_config_direct(self, capsys):
        # argparse rejects an unknown command or format itself; a size the
        # command cannot take is the runner's error
        for argv in (["nope"], ["bounds", "--format", "xml"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        assert main(["pcg", "--sizes", "1"]) == 2
        assert "matrix order n must be an integer >= 2, got 1" in capsys.readouterr().err

    def test_coefficient_failure_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(dofde.toeplitz, "dist_order_symbol",
                            lambda n, t: (np.abs(t) < 1.0).astype(float))
        assert main(["coeffs", "--sizes", "4"]) == 2
        assert capsys.readouterr().err.startswith("error: coefficients did not stabilize")

    def test_quadrature_failure_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(dofde.quadrature, "limit_symbol", lambda s: np.full_like(s, np.nan))
        assert main(["bounds"]) == 2
        assert capsys.readouterr().err.startswith("error: integrand returned a non-finite value")

    @pytest.mark.parametrize("argv, route, message", [
        (["spectrum", "--sizes", "32,64", "--precs", "strang,laplacian"], "lanczos_extremes",
         "spectrum n=64 preconditioner strang did not certify its extremes by Lanczos"),
        (["outliers", "--sizes", "32,64", "--precs", "strang,laplacian"], "count_below",
         "outliers n=64 preconditioner strang met a zero or non-finite pivot: "
         "an eigenvalue may lie on 1 +- eps"),
        (["mineig", "--sizes", "32,64"], "min_eig_normalized",
         "mineig n=64 did not certify lambda_min by Lanczos on A^-1"),
    ], ids=["spectrum", "outliers", "mineig"])
    def test_unsettled_row_is_an_error(self, argv, route, message, capsys, monkeypatch, tmp_path):
        # each row has one route: where it settles nothing (here every row
        # at n = 64), no other route stands in, and the command writes no
        # table
        settle = getattr(dofde.cli, route)

        def unsettled(c, *rest):
            found = settle(c, *rest)
            if c.n < 64:
                return found
            return [None] * len(found) if isinstance(found, list) else None

        monkeypatch.setattr(dofde.cli, route, unsettled)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not list(out.glob("*"))

    def test_breakdown_reported(self, capsys, monkeypatch):
        # a negated preconditioner apply makes the inner product negative
        monkeypatch.setattr(dofde.krylov, "apply_inverse", lambda P, r: -r)
        assert main(["pcg", "--sizes", "32", "--precs", "natural_tau"]) == 2
        assert capsys.readouterr().err.startswith("error: preconditioned inner product <= 0")


class TestExitStatus:
    """The status and stderr a shell sees from `python -m dofde.cli`,
    argparse's own exits included."""

    @pytest.mark.parametrize("argv, status", [
        (["nope"], 2),
        (["pcg", "--sizes", "32", "--tol", "nan"], 2),
        (["bounds", "--quad-tol", "nan"], 2),
        (["cn", "--sizes", "8"], 0),
        (["mgm", "--sizes", "7", "--tol", "1e-300"], 2),
    ])
    def test_exit_status(self, argv, status):
        env = dict(os.environ)
        src = str(Path(dofde.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "dofde.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == status
        assert "Traceback" not in done.stderr
        if status:
            assert "error:" in done.stderr
        else:
            assert done.stdout.startswith("n,c_n\n8,")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cell_matches(got, want):
    """Integer and text cells exactly, float cells to 1e-8 relative plus
    1e-12 absolute."""
    if got == want or want.lstrip("-").isdigit():
        return got == want
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= 1e-8 * abs(w) + 1e-12


# Sizes replayed per command: each a prefix of the command's default range;
# None replays a table without a size column whole.
_REFERENCE_SIZES = {
    "bounds": None,
    "cn": "8..4096",
    "coeffs": "32..2048",
    "spectrum": "32..512",
    "outliers": "32..512",
    "mineig": "32..512",
    "pcg": "32..2048",
    "mgm": "31..2047",
}


class TestReferenceTables:
    @pytest.mark.parametrize("command", list(_REFERENCE_SIZES))
    def test_rows_match_recorded_reference(self, command, tmp_path):
        sizes_text = _REFERENCE_SIZES[command]
        argv = [command, "--out", str(tmp_path)]
        assert main(argv + (["--sizes", sizes_text] if sizes_text else [])) == 0
        got = _read_csv(tmp_path / f"{command}.csv")
        want = _read_csv(REFERENCE_DIR / f"{command}.csv")
        assert got[0] == want[0]
        want_rows = want[1:]
        if sizes_text:
            sizes = {str(n) for n in parse_sizes(sizes_text)}
            assert {row[0] for row in got[1:]} == sizes
            want_rows = [row for row in want_rows if row[0] in sizes]
        assert len(got) - 1 == len(want_rows)
        for g, w in zip(got[1:], want_rows):
            assert len(g) == len(w) and all(map(_cell_matches, g, w)), (g, w)


class TestMatrixFreeDefaults:
    def test_default_tables_make_no_dense_eigensolve(self, monkeypatch, tmp_path):
        # spectrum, outliers and mineig at their default sizes, with their
        # default kinds and with every kind, run matrix-free: no eigvalsh
        # and no dense spectrum
        def never(*args, **kwargs):
            raise AssertionError("a dense eigensolve ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", never)
        monkeypatch.setattr(dofde.spectral, "preconditioned_spectrum", never)
        for argv in (["spectrum"], ["outliers"], ["mineig"],
                     ["spectrum", "--precs", "all"], ["outliers", "--precs", "all"]):
            assert main(argv + ["--out", str(tmp_path)]) == 0, argv

    def test_outliers_counts_every_kind_by_inertia(self, tmp_path):
        # the circulants and the identity count by inertia like the sine
        # kinds, to the dense spectrum's counts, and the JSON names no route
        n = 32
        argv = ["outliers", "--sizes", str(n), "--precs", "all", "--eps", "1e-1,1e-2",
                "--format", "json", "--out", str(tmp_path)]
        assert main(argv) == 0
        payload = json.loads((tmp_path / "outliers.json").read_text())
        assert "routes" not in payload
        want = []
        for kind in PrecKind:
            w = shared.prec_spectrum(kind, n).eigenvalues
            for eps in (1e-1, 1e-2):
                left = int(np.count_nonzero(w < 1.0 - eps))
                right = int(np.count_nonzero(w >= 1.0 + eps))
                want.append([str(n), kind.value, "%.10e" % eps, str(left), str(right),
                             "%.10e" % (100.0 * (left + right) / n)])
        assert payload["rows"] == want


class TestNoDenseSineTransform:
    def test_spectra_transform_vectors_only(self, monkeypatch, tmp_path):
        # B = Q A Q comes from the displacement identity, the circulant
        # blocks from folded first columns, and the Lanczos extremes from
        # products of vectors: a dense sine transform or FFT anywhere on
        # the spectrum/outliers path or in the dense oracle, or a Lanczos
        # product of a block of vectors fails here
        vector_calls = []

        def vectors_only(name, transform):
            def wrapper(x, *args, **kwargs):
                if np.ndim(x) > 1:
                    raise AssertionError(f"{name} called on a {np.shape(x)} array")
                vector_calls.append(name)
                return transform(x, *args, **kwargs)

            return wrapper

        # the circulant kinds' P^(-1/2) column comes from apply_inverse_sqrt,
        # and every kind's P^(-1/2) product from _algebra_product, so their
        # transforms run in the preconditioner layer
        for module, name in ((dofde.spectral, "dst1"),
                             (dofde.preconditioners, "_circulant_transform"),
                             (dofde.preconditioners, "_tau_transform")):
            monkeypatch.setattr(module, name, vectors_only(name, getattr(module, name)))
        for name in ("fft", "ifft", "rfft"):
            monkeypatch.setattr(np.fft, name, vectors_only(name, getattr(np.fft, name)))
        algebra_product = dofde.spectral._algebra_product
        monkeypatch.setattr(dofde.spectral, "_algebra_product",
                            lambda kind, w: vectors_only("root", algebra_product(kind, w)))
        matvec = dofde.toeplitz.ToeplitzOperator.__call__
        monkeypatch.setattr(dofde.toeplitz.ToeplitzOperator, "__call__",
                            lambda op, x: vectors_only("matvec", lambda v: matvec(op, v))(x))
        argv = ["--sizes", "32..128", "--out", str(tmp_path)]
        for command in (["spectrum", "--precs", "all"], ["outliers"]):
            assert main(command + argv) == 0
        # 3 sizes x 6 kinds run Lanczos, each plain step two roots and a
        # matvec, and the identity's and the Laplacian's shift-and-invert
        # runs a pcg of matvecs per step
        assert vector_calls.count("root") >= 2 * 18 and vector_calls.count("matvec") >= 18
        # the dense spectra, the test oracle, for every kind
        for n in (32, 64, 128):
            c = shared.scaled_coeffs(n)
            for kind in PrecKind:
                dofde.preconditioned_spectrum(c, dofde.build_preconditioner(kind, c))
        assert vector_calls.count("dst1") >= 6
        assert vector_calls.count("_circulant_transform") >= 6
        assert vector_calls.count("_tau_transform") >= 6
