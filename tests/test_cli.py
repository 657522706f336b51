import hashlib
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dkradial import cli, oracle
from dkradial.cli import main


def run_cli(args, tmp_path=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "dkradial.cli", *args],
        capture_output=True, text=True, timeout=timeout,
    )
    return proc


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 does not allow."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestSpectrumCommand:
    def test_f1_table(self, capsys):
        code, out = run_main(["spectrum", "--family", "f1", "--j", "1", "--n-max", "2", "--mass", "0"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        p_sqs = [r.split(",")[3] for r in rows]
        assert p_sqs == ["8", "24", "48"]

    def test_dirac_fractions(self, capsys):
        code, out = run_main(["spectrum", "--family", "dirac", "--J", "1/2", "--n-max", "1", "--mass", "0"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert [r.split(",")[3] for r in rows] == ["9/4", "25/4"]

    def test_j0_massive(self, capsys):
        code, out = run_main(["spectrum", "--family", "j0", "--n-max", "0", "--mass", "1"], capsys)
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        eps = float(rows[0].split(",")[5])
        assert eps == pytest.approx(2.0)

    def test_json_format(self, capsys):
        code, out = run_main(
            ["spectrum", "--family", "f3", "--j", "2", "--n-max", "1", "--mass", "0", "--format", "json"],
            capsys,
        )
        data = strict_json(out)
        assert data[0]["bound"] == "no" and data[1]["bound"] == "yes"
        assert data[1]["p_sq_exact"] == "16"


class TestWavefunctionCommand:
    def test_f1_equator_row(self, capsys):
        code, out = run_main(
            ["wavefunction", "--family", "f1", "--j", "1", "--n", "0", "--mass", "0", "--grid", "5"],
            capsys,
        )
        assert code == 0
        comments = [l.split("=")[0] for l in out.splitlines() if l.startswith("#")]
        assert comments == ["# family", "# j", "# n", "# p_sq", "# mass", "# lambda", "# eps"]
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 5
        mid = rows[2]
        assert float(mid[0]) == pytest.approx(math.pi / 2)
        assert abs(float(mid[1])) < 1e-30  # x = cos^2 r
        assert abs(float(mid[2])) < 1e-15  # K carries the sqrt(x) factor
        assert float(mid[4]) == pytest.approx(1 / math.sqrt(2), rel=1e-12)  # M per companion formula

    def test_j0_amplitudes(self, capsys):
        code, out = run_main(
            ["wavefunction", "--family", "j0", "--n", "0", "--mass", "1", "--grid", "5"], capsys
        )
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert abs(float(rows[2][3])) < 1e-14  # N vanishes at the equator

    def test_endpoints_excluded(self, capsys):
        _, out = run_main(
            ["wavefunction", "--family", "f2", "--j", "1", "--n", "0", "--mass", "0", "--grid", "11"],
            capsys,
        )
        rows = [l.split(",") for l in out.splitlines() if l and not l.startswith("#")][1:]
        rs = [float(r[0]) for r in rows]
        assert rs[0] > 0 and rs[-1] < math.pi

    def test_off_spectrum_family3_n0(self, capsys):
        code, _ = run_main(
            ["wavefunction", "--family", "f3", "--j", "1", "--n", "0", "--mass", "0"], capsys
        )
        assert code == 2


class TestExitCodes:
    def test_usage_error(self):
        proc = run_cli(["spectrum", "--family", "nope"])
        assert proc.returncode == 2

    def test_missing_j_for_dirac(self):
        proc = run_cli(["spectrum", "--family", "dirac", "--n-max", "1"])
        assert proc.returncode == 2

    def test_verify_passes(self):
        proc = run_cli(["verify", "--suite", "factorization", "--j", "1", "--n", "0"])
        assert proc.returncode == 0
        reports = strict_json(proc.stdout)
        assert all(r["pass"] for r in reports)

    def test_verify_factorization_is_exact(self, capsys):
        """The CLI passes the exact p^2 and a^2, so the identity holds with
        no residual at all."""
        code, out = run_main(["verify", "--suite", "factorization", "--j", "2", "--n", "0"], capsys)
        reports = strict_json(out)
        assert code == 0 and [r["check_name"] for r in reports] == [
            "factorization-K[p2=15]", "factorization-M[p2=15]"]
        assert [r["max_rel_residual"] for r in reports] == [0.0, 0.0]

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "factorization"],
        ["wavefunction", "--family", "j0", "--n", "0", "--grid", "5"],
        ["oracle", "--j", "0", "--eps-min", "1.6", "--eps-max", "1.85"],
    ])
    def test_format_only_on_table_commands(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "f1", "--j", "1", "--n-max", "1"],
        ["wavefunction", "--family", "f1", "--j", "1", "--n", "0", "--grid", "5"],
        ["verify", "--suite", "operators"],
        ["oracle", "--j", "0", "--eps-min", "0.5", "--eps-max", "3.2", "--compare"],
        ["oracle", "--j", "1", "--eps-max", "3.2"],
    ])
    def test_negative_mass_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--mass", "-1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --mass: mass must be non-negative" in captured.err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "f1", "--j", "1", "--mass", "1e200"],
        ["wavefunction", "--family", "f1", "--j", "1", "--n", "0", "--grid", "5", "--mass", "1e200"],
        ["verify", "--suite", "operators", "--mass", "1e200"],
        ["oracle", "--j", "1", "--mass", "1e400"],
    ])
    def test_mass_whose_square_overflows_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --mass: mass must be at most 1.34078e+154" in captured.err

    @pytest.mark.parametrize("grid", ["-3", "0"])
    def test_wavefunction_grid_below_one_is_usage_error(self, grid, capsys):
        """A negative --grid or --grid 0 exits 2 with a message that names
        --grid, not with numpy's, nor with a table of no rows."""
        with pytest.raises(SystemExit) as exc:
            main(["wavefunction", "--family", "f1", "--j", "1", "--n", "0", "--grid", grid])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --grid: the grid needs at least 1 point, got {grid}\n" in captured.err

    def test_wavefunction_grid_of_one_point(self, capsys):
        code, out = run_main(["wavefunction", "--family", "f1", "--j", "1", "--n", "0", "--grid", "1"], capsys)
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert code == 0 and rows[0] == "r,x,K,L,M,N" and len(rows) == 2
        assert rows[1].startswith(f"{cli.END_BUFFER!r},")

    @pytest.mark.parametrize("suite", ["all", "operators", "factorization", "wronskian", "cross", "j0"])
    def test_verify_negative_n_is_usage_error(self, suite, capsys):
        code = main(["verify", "--suite", suite, "--j", "1", "--n", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "dkradial: n must be non-negative\n"

    @pytest.mark.parametrize("argv,message", [
        (["--family", "f1", "--j", "1", "--n", "500"], "K has non-finite samples at n=500"),
        (["--family", "j0", "--n", "2000"], "M has non-finite samples at n=2000"),
    ])
    def test_wavefunction_non_finite_samples_are_usage_error(self, argv, message, capsys):
        """A table whose terminating 2F1 coefficients overflow exits 2 instead of printing NaN."""
        with np.errstate(all="ignore"):
            code = main(["wavefunction", *argv, "--grid", "5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"dkradial: {message}")

    @pytest.mark.parametrize("argv,message", [
        (["wavefunction", "--family", "f1", "--j", "1", "--n", "500", "--grid", "5"],
         "K has non-finite samples at n=500: the terminating 2F1 coefficients overflow"),
        (["wavefunction", "--family", "j0", "--n", "123456789012345678901234567890", "--grid", "5"],
         "M has non-finite samples at n=123456789012345678901234567890: "
         "the terminating 2F1 coefficients overflow"),
        (["spectrum", "--family", "f1", "--j", "1", "--n", "1" + "0" * 160],
         f"eps^2 at n=1{'0' * 160} is too large for a float"),
        (["verify", "--suite", "cross", "--j", "1", "--n", "1" + "0" * 160],
         f"eps^2 at n=1{'0' * 160} is too large for a float"),
        (["verify", "--suite", "operators", "--j", "1", "--n", "1" + "0" * 160],
         f"eps^2 at n=1{'0' * 160} is too large for a float"),
    ], ids=["wavefunction-f1-n500", "wavefunction-j0-n1e29", "spectrum-n1e160", "verify-cross-n1e160",
            "verify-operators-n1e160"])
    def test_overflow_is_one_line_usage_error(self, argv, message):
        """Overflowing levels and 2F1 coefficients exit 2 promptly, with the
        message as the only stderr line: no numpy warning, no traceback."""
        proc = run_cli(argv, timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"dkradial: {message}\n"

    @pytest.mark.parametrize("argv,check", [
        (["--suite", "j0", "--n", "2000"], "j0-pair[n=2000 lambda=+1]"),
        (["--suite", "operators", "--j", "1", "--n", "2000"], "operator-K[f1 j=1 n=2000]"),
        (["--suite", "cross", "--j", "2", "--n", "2000"], "cross-consistency[f1 j=2 n=2000]"),
    ], ids=["j0", "operators", "cross"])
    def test_verify_non_finite_residual_is_one_line_usage_error(self, argv, check):
        """A report whose terminating 2F1 overflows exits 2, naming the check
        and n, instead of printing NaN into the JSON."""
        proc = run_cli(["verify", *argv], timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            f"dkradial: {check} has a non-finite residual at n=2000: the terminating 2F1 coefficients overflow\n")

    @pytest.mark.parametrize("n", ["10", "14"])
    @pytest.mark.parametrize("branch", [[], ["--mass", "1", "--lambda", "-1"]], ids=["m0", "m1-lambda-1"])
    def test_verify_j0_high_n_passes(self, n, branch, capsys):
        """The j = 0 pair holds to 1e-10 at n = 10 and 14, where the
        degree-(n+1) 2F1 of the (1 - cos r)/2 chart read 3.3e-9 and 3.1e-6."""
        code, out = run_main(["verify", "--suite", "j0", "--n", n, *branch], capsys)
        (report,) = strict_json(out)
        assert code == 0 and report["pass"] is True and report["max_rel_residual"] <= 1e-10

    def test_verify_cross_large_mass_reports(self, capsys):
        """At mass 1e5 the rows take eps + mu and eps - mu from the exact p^2,
        neither by cancellation: every check passes on both branches (it read
        3.4e-7 when eps - m was a float difference)."""
        for lam in ("1", "-1"):
            argv = ["verify", "--suite", "cross", "--j", "1", "--n", "0", "--mass", "100000", "--lambda", lam]
            code, out = run_main(argv, capsys)
            reports = strict_json(out)
            assert code == 0 and len(reports) == 4
            assert all(r["check_name"].startswith("cross-consistency[") for r in reports)
            assert max(r["max_rel_residual"] for r in reports) < 1e-12

    @pytest.mark.parametrize("j,mass,window,levels", [
        ("1", "100", ("100", "100.6"), 19),
        ("1", "1000", ("1000", "1000.06"), 19),
        ("2", "10000", ("10000", "10000.006"), 17),
    ])
    def test_oracle_large_mass_windows_match(self, j, mass, window, levels, capsys):
        """Levels are located and confirmed in p, so a window far above 62 in
        eps is a window of p below 11 (these exited 2 with "no N" when
        collocation ran in eps)."""
        argv = ["oracle", "--j", j, "--mass", mass, "--eps-min", window[0], "--eps-max", window[1], "--compare"]
        code, out = run_main(argv, capsys)
        cmp = strict_json(out)["comparison"]
        assert code == 0 and len(cmp["matched"]) == levels
        assert cmp["unmatched_oracle"] == [] and cmp["unmatched_closed"] == []

    @pytest.mark.parametrize("argv", [
        ["--j", "12", "--mass", "0", "--eps-max", "30.3"],
        ["--j", "10", "--mass", "0", "--eps-min", "34", "--eps-max", "36"],
    ])
    def test_oracle_high_j_windows_match(self, argv, capsys):
        """These exited 2 ("shooting does not confirm the level") while the
        start columns carried r0^j; from unit start columns they match."""
        code, out = run_main(["oracle", *argv, "--compare"], capsys)
        cmp = strict_json(out)["comparison"]
        assert code == 0 and cmp["matched"]
        assert cmp["unmatched_oracle"] == [] and cmp["unmatched_closed"] == []

    def test_oracle_window_past_the_p_cap_is_usage_error(self, capsys):
        """sqrt(120^2 - 100^2) = 66.3 is above the p collocation can reach."""
        code = main(["oracle", "--j", "1", "--mass", "100", "--eps-min", "100", "--eps-max", "120"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("dkradial: collocation did not resolve p in [0, 66.3325] (j=1): "
                                "no N up to COLLOCATION_MAX_N=256\n")

    @pytest.mark.parametrize("j", ["167", "168", "300"])
    def test_verify_gamma_overflow_is_one_line_usage_error(self, j):
        """From j = 167 the general basis's connection formula overflows: at
        j = 167 and 168 its value from finite Gamma factors is the first to
        overflow, at j = 300 a Gamma factor itself.  Exit 2 with one line
        naming the 2F1, no traceback."""
        proc = run_cli(["verify", "--suite", "wronskian", "--j", j], timeout=5)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("dkradial: 2F1(a=") and proc.stderr.count("\n") == 1
        cause = "a connection-formula Gamma overflows" if j == "300" else "the connection formula overflows"
        assert proc.stderr.endswith(f"; x=0.6): {cause}\n")

    def test_json_refuses_non_finite_floats(self):
        with pytest.raises(ValueError):
            cli._json([{"max_rel_residual": math.nan}])

    @pytest.mark.parametrize("j", ["0", "-1"])
    def test_verify_needs_j_at_least_one(self, j, capsys):
        assert main(["verify", "--suite", "factorization", "--j", j]) == 2
        assert main(["verify", "--j", j]) == 2
        code, out = run_main(["verify", "--suite", "j0", "--j", j], capsys)
        assert code == 0 and strict_json(out)[0]["check_name"] == "j0-pair[n=0 lambda=+1]"

    @pytest.mark.parametrize("argv,message", [
        (["wavefunction", "--family", "f2", "--j", "0", "--n", "0"], "integer j >= 1, got 0"),
        (["wavefunction", "--family", "f1", "--j", "-1", "--n", "0"], "integer j >= 1, got -1"),
        (["verify", "--j", "0"], "integer j >= 1, got 0"),
        (["verify", "--suite", "wronskian", "--j", "0"], "j >= 1"),
        (["verify", "--suite", "factorization", "--j", "0"], "integer j >= 1, got 0"),
        (["verify", "--suite", "operators", "--j", "0"], "integer j >= 1, got 0"),
    ])
    def test_j_below_one_is_library_usage_error(self, argv, message, capsys):
        """The library's own j check reaches the user: exit 2, nothing on stdout."""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("dkradial: ") and message in captured.err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--family", "j0", "--j", "3"],
        ["wavefunction", "--family", "j0", "--j", "2", "--n", "0", "--grid", "5"],
        ["spectrum", "--family", "all-dk", "--j", "-2"],
        ["spectrum", "--family", "dirac", "--J", "abc"],
        ["spectrum", "--family", "dirac", "--J", "1/0"],
        ["spectrum", "--family", "f1", "--j", "1", "@missing.cfg"],
        ["spectrum", "--family", "f1", "--j", "1", "--n-max", "-3"],
        ["degeneracy", "--j-max", "3", "--n-max", "-1"],
        ["spectrum", "--family", "f1", "--j", "1", "--mass", "1/0"],
        ["oracle", "--j", "1", "--mass", "abc"],
        ["spectrum", "--family", "f1", "--j", "1", "@latin1.cfg"],
        ["wavefunction", "--family", "f1", "--j", "1", "--n", "0", "--delta", "-1"],
        ["oracle", "--j", "1", "--eps-step", "0.02"],  # there is no scan step any more
    ])
    def test_bad_value_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        """A value the command cannot use exits 2 with a message, not a table or a traceback."""
        monkeypatch.chdir(tmp_path)  # missing.cfg does not exist here
        (tmp_path / "latin1.cfg").write_bytes("mass=0\n# \u00e9\n".encode("latin-1"))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own error
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "dkradial" in captured.err and "Traceback" not in captured.err
        for option in ("--mass", "--J"):
            if option in argv:  # argparse names the option and the value
                assert f"argument {option}: {argv[argv.index(option) + 1]!r} is not a rational number" in captured.err
        if "@latin1.cfg" in argv:  # the message names the file and the codec error
            assert "latin1.cfg" in captured.err and "can't decode byte 0xe9" in captured.err

    @pytest.mark.parametrize("files", [["good.cfg", "latin1.cfg"], ["latin1.cfg", "missing.cfg"]])
    def test_undecodable_file_is_named_alone(self, files, tmp_path, monkeypatch, capsys):
        """Only the @file that is not UTF-8 is named: not a good one, nor
        one argparse never reached."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.cfg").write_text("n-max=1\n", encoding="utf-8")
        (tmp_path / "latin1.cfg").write_bytes("mass=0\n# \u00e9\n".encode("latin-1"))
        code = main(["spectrum", "--family", "f1", "--j", "1", *(f"@{f}" for f in files)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("dkradial: latin1.cfg: 'utf-8' codec can't decode byte 0xe9")

    def test_failed_oracle_integration_is_exit_one(self, monkeypatch, capsys):
        """No oracle result: one line on stderr, no traceback, exit 1."""
        real_ivp = oracle.solve_ivp

        def failing(*a, **k):
            sol = real_ivp(*a, **k)
            sol.success, sol.message = False, "forced failure"
            return sol

        monkeypatch.setattr(oracle, "solve_ivp", failing)
        code = main(["oracle", "--j", "1", "--mass", "0", "--eps-max", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "dkradial: integration failed: forced failure\n"

    def test_readme_verify_report(self, capsys):
        code, out = run_main(["verify", "--suite", "all", "--j", "1", "--n", "0", "--mass", "0"], capsys)
        assert code == 0
        reports = strict_json(out)
        assert [r["check_name"] for r in reports] == [
            *(f"operator-{km}[{f} j=1 n={n}]" for f, n in (("f1", 0), ("f2", 0), ("f3", 1), ("f4", 0))
              for km in "KM"),
            "factorization-K[p2=8]", "factorization-M[p2=8]",
            "wronskian[j=1 p=2.3 x0=0.3]", "wronskian[j=1 p=2.3 x0=0.6]",
            "cross-consistency[f1 j=1 n=0]", "cross-consistency[f2 j=1 n=0]",
            "cross-consistency[f3 j=1 n=1]", "cross-consistency[f4 j=1 n=0]",
            "j0-pair[n=0 lambda=+1]",
        ]
        assert all(r["pass"] is True for r in reports)
        assert reports[-1]["worst_points"]

    def test_oracle_j0_compare_honours_eps_min(self, capsys):
        code, out = run_main(
            ["oracle", "--j", "0", "--mass", "0", "--eps-min", "3", "--eps-max", "5", "--compare"], capsys,
        )
        cmp = strict_json(out)["comparison"]
        assert code == 0 and cmp["unmatched_closed"] == [] and len(cmp["matched"]) == 2

    def test_oracle_j0_missed_level_is_usage_error(self, monkeypatch, capsys):
        """A level missing from the located list (with its node count) shows
        as a node-count gap: the oracle's SpectrumError exits 2 with one
        line, no traceback."""
        real = oracle._locate
        monkeypatch.setattr(oracle, "_locate", lambda *a: tuple(np.delete(x, 1) for x in real(*a)))
        code = main(["oracle", "--j", "0", "--mass", "0", "--eps-min", "0.2", "--eps-max", "6"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("dkradial: j=0 levels at eps ")
        assert captured.err.endswith("have 0 and 2 nodes: a level between them was missed\n")

    def test_oracle_compare_fills_family_guess(self, capsys):
        code, out = run_main(["oracle", "--j", "1", "--mass", "0", "--eps-max", "4.5", "--compare"], capsys)
        payload = strict_json(out)
        family = {m["eps_oracle"]: m["family"] for m in payload["comparison"]["matched"]}
        assert code == 0 and len(family) == len(payload["eigenvalues"]) == 6
        assert [e["family_guess"] for e in payload["eigenvalues"]] == [family[e["eps"]] for e in payload["eigenvalues"]]

    @pytest.mark.parametrize("argv", [
        ["--j", "0", "--mass", "1"],
        ["--j", "2", "--mass", "1", "--lambda", "-1"],
    ])
    def test_oracle_compare_finds_level_on_eps_max(self, argv, capsys):
        """The closed-form level p^2 = 24 sits exactly on --eps-max 5."""
        code, out = run_main(["oracle", *argv, "--eps-max", "5", "--compare"], capsys)
        cmp = strict_json(out)["comparison"]
        assert code == 0 and cmp["unmatched_closed"] == [] and cmp["unmatched_oracle"] == []
        assert "24" in [m["p_sq_exact"] for m in cmp["matched"]]

    @pytest.mark.parametrize("argv,p_sq", [
        (["--j", "1", "--eps-max", "3.99999"], "16"),
        (["--j", "1", "--eps-min", "4.00001", "--eps-max", "4.5"], "16"),
        (["--j", "0", "--eps-max", "1.73204"], "3"),
    ])
    def test_oracle_compare_takes_the_oracle_window(self, argv, p_sq, capsys):
        """A level just outside a window end, within WINDOW_SLACK, is in the
        window for the oracle and the closed forms alike."""
        code, out = run_main(["oracle", *argv, "--mass", "0", "--compare"], capsys)
        cmp = strict_json(out)["comparison"]
        assert code == 0 and cmp["unmatched_closed"] == [] and cmp["unmatched_oracle"] == []
        assert p_sq in [m["p_sq_exact"] for m in cmp["matched"]]

    def test_oracle_mismatch_is_exit_one(self, monkeypatch, capsys):
        # One level dropped from the closed-form list -> the oracle
        # eigenvalue it belonged to has no partner.
        real = cli._closed_levels
        monkeypatch.setattr(cli, "_closed_levels", lambda *a: real(*a)[1:])
        code, out = run_main(
            ["oracle", "--j", "0", "--mass", "0", "--eps-min", "0.2", "--eps-max", "3.0", "--compare"], capsys
        )
        assert code == 1
        payload = strict_json(out)
        assert payload["comparison"]["unmatched_oracle"]

    def test_oracle_compare_reaches_high_levels(self, capsys):
        """The closed-form list covers every level up to --eps-max: here
        p^2 = 120 is the j = 0 level n = 9."""
        code, out = run_main(
            ["oracle", "--j", "0", "--mass", "0", "--eps-min", "10.5", "--eps-max", "11.2", "--compare"], capsys
        )
        cmp = strict_json(out)["comparison"]
        assert code == 0 and cmp["unmatched_oracle"] == [] and cmp["unmatched_closed"] == []
        assert [(m["n"], m["p_sq_exact"]) for m in cmp["matched"]] == [(9, "120")]


    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_oracle_non_finite_eps_max_is_usage_error(self, value, capsys):
        """A window without a finite upper end exits 2 and names the window."""
        code = main(["oracle", "--j", "0", "--mass", "1", f"--eps-max={value}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"dkradial: bad eps window (0.1, {value})\n"

    @pytest.mark.parametrize("via_file", [False, True], ids=["flag", "file"])
    def test_oracle_j0_lambda_minus_one_is_usage_error(self, via_file, tmp_path, capsys):
        """j = 0 shoots only the lambda = +1 pair, so lambda = -1 exits 2
        instead of reporting levels of the other branch."""
        argv = ["oracle", "--j", "0", "--mass", "1", "--eps-min", "1.6", "--eps-max", "1.85"]
        if via_file:
            cfg = tmp_path / "run.conf"
            cfg.write_text("lambda=-1\n")
            argv.append(f"@{cfg}")
        else:
            argv += ["--lambda", "-1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("dkradial: ") and "(0, sin r) at eps = m" in captured.err

    def test_oracle_j0_lambda_plus_one_is_the_default(self, capsys):
        argv = ["oracle", "--j", "0", "--mass", "1", "--eps-min", "1.8", "--eps-max", "2.2", "--compare"]
        code, out = run_main([*argv, "--lambda", "1"], capsys)
        assert (code, out) == run_main(argv, capsys) and code == 0
        assert len(strict_json(out)["eigenvalues"]) == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["wavefunction", "--family", "f4", "--j", "2", "--n", "1",
                "--mass", "1", "--grid", "101"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["spectrum", "--family", "f1", "--j", "1", "--n-max", "1", "--mass", "0",
              "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw


class TestConfigFile:
    """An @file holds one `key=value` (`--key=value`) or bare `key` (`--key`)
    per line; arguments are read left to right, so a later value wins."""

    def test_config_defaults_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("family=f1\nj=1\nn-max=2\nmass=0\n")
        code, out = run_main(["spectrum", f"@{cfg}"], capsys)
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert len(rows) == 3  # n-max and the required --family from the file
        # a flag after the file wins, a flag before it does not
        for argv, n_rows in ((["spectrum", f"@{cfg}", "--n-max", "0"], 1),
                             (["spectrum", "--n-max", "0", f"@{cfg}"], 3)):
            code, out = run_main(argv, capsys)
            rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
            assert code == 0 and len(rows) == n_rows, argv

    def test_config_numeric_key_uses_option_type(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("eps-sign=-1\nmass=1/1\n")
        code, out = run_main(["spectrum", "--family", "j0", "--n-max", "0", f"@{cfg}"], capsys)
        assert code == 0 and "# eps_sign=-1" in out and "# mass=1" in out
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert float(rows[0].split(",")[5]) == pytest.approx(-2.0)

    def test_config_comments_and_blank_lines(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("# spin-1/2 comparison\n\nfamily=dirac\n   \n  # J = 1/2\n  J = 1/2  \nn-max=1\n")
        code, out = run_main(["spectrum", f"@{cfg}"], capsys)
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert code == 0 and [r.split(",")[3] for r in rows] == ["9/4", "25/4"]

    @pytest.mark.parametrize("key,accepted", [("lambda", True), ("lam", False)], ids=["lambda", "lam"])
    def test_config_key_is_the_long_option_name(self, tmp_path, capsys, key, accepted):
        """`lambda` names --lambda; its destination `lam` names no option."""
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{key}=-1\n")
        argv = ["wavefunction", "--family", "j0", "--n", "0", "--mass", "0", "--grid", "3", f"@{cfg}"]
        if not accepted:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2 and "unrecognized arguments: --lam=-1" in capsys.readouterr().err
            return
        code, out = run_main(argv, capsys)
        assert code == 0 and "# lambda=-1" in out.splitlines()
        code, out = run_main([*argv, "--lambda", "1"], capsys)
        assert code == 0 and "# lambda=+1" in out.splitlines()

    @pytest.mark.parametrize("text,compared", [("compare\n", True), ("", False)], ids=["bare-line", "absent"])
    def test_config_bool_flag(self, tmp_path, capsys, text, compared):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{text}eps-min=1.6\neps-max=1.85\n")
        code, out = run_main(["oracle", "--j", "0", f"@{cfg}"], capsys)
        payload = strict_json(out)
        assert code == 0 and len(payload["eigenvalues"]) == 1
        assert ("comparison" in payload) is compared

    @pytest.mark.parametrize("argv,line,message", [
        (["spectrum", "--family", "f1", "--j", "1"], "nope=1", "unrecognized arguments: --nope=1"),
        (["spectrum", "--family", "f1", "--j", "1"], "grid=5", "unrecognized arguments: --grid=5"),
        (["spectrum", "--family", "f1", "--j", "1"], "n_max=2", "unrecognized arguments: --n_max=2"),
        (["degeneracy", "--j-max", "3", "--n-max", "2"], "j=5", "unrecognized arguments: --j=5"),
        (["oracle", "--j", "0"], "compare=true", "argument --compare: ignored explicit argument 'true'"),
    ], ids=["unknown", "other-command", "underscore", "prefix", "bool-value"])
    def test_config_line_no_option_takes_is_usage_error(self, tmp_path, capsys, argv, line, message):
        """A line no option of the command takes exits 2 before the command
        runs: a key must be the full long name of one of its options."""
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"{line}\n")
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"@{cfg}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert message in captured.err


class TestRoundTrip:
    def test_csv_reverified_through_operator(self, tmp_path):
        """Serialization keeps enough digits for the finite-difference
        re-verification of the fourth-order operator at 1e-5."""
        from dkradial.model import operator_K4
        from dkradial.verify import residual_operator
        from finite_difference import fd_derivatives

        out = tmp_path / "wf.csv"
        assert main(["wavefunction", "--family", "f1", "--j", "1", "--n", "1",
                     "--mass", "0", "--grid", "2001", "--out", str(out)]) == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        r = np.array([float(c[0]) for c in rows])
        x = np.array([float(c[1]) for c in rows])
        K = np.array([float(c[2]) for c in rows])
        # left half keeps x monotone; stay away from x ~ 0 and x ~ 1
        sel = (r < math.pi / 2 - 0.35) & (x > 0.1) & (x < 0.9)
        xs, Ks = x[sel][::3], K[sel][::3]
        derivs = [Ks] + [fd_derivatives(xs, Ks, k, stencil=11) for k in range(1, 5)]
        inner = slice(11, len(xs) - 11)
        rep = residual_operator(operator_K4(24.0, 2.0), xs[inner], [d[inner] for d in derivs])
        assert rep.max_rel_residual < 1e-5


class TestReadme:
    def test_command_line_block_runs(self, tmp_path, capsys):
        """Every `dkradial ...` line of the README "Command line" block exits 0."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```")[1]
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("dkradial ")]
        assert len(commands) == 6
        for argv in commands:
            if "--out" in argv:
                at = argv.index("--out") + 1
                argv[at] = str(tmp_path / argv[at])
            assert main(argv) == 0, argv
            capsys.readouterr()
        assert (tmp_path / "wf.csv").read_text().startswith("# family=f1")

    def test_table_commands_match_golden(self, capsys):
        """The README spectrum and degeneracy commands print the golden
        tables of the benchmark byte for byte."""
        root = Path(__file__).resolve().parents[1]
        block = (root / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
        tables = {}
        for line in block.splitlines():
            argv = shlex.split(line)[1:]
            if argv and argv[0] in ("spectrum", "degeneracy"):
                tables["spectrum_dirac" if "dirac" in argv else argv[0]] = argv
        assert sorted(tables) == ["degeneracy", "spectrum", "spectrum_dirac"]
        for name, argv in tables.items():
            code, out = run_main(argv, capsys)
            golden = (root / "perfbench" / "golden" / f"{name}.csv").read_bytes()
            assert code == 0 and out.encode("utf-8") == golden, name

    def test_numeric_commands_match_golden(self, tmp_path, capsys):
        """The README verify and oracle commands print tests/golden/verify.json
        and oracle.json byte for byte, and the README wavefunction CSV has the
        sha256 in tests/golden/wavefunction.sha256.  An output change that
        CHANGES.md lists is written there by tests/golden/regenerate.py."""
        root = Path(__file__).resolve().parents[1]
        golden = root / "tests" / "golden"
        block = (root / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
        commands = {argv[0]: argv for argv in (shlex.split(line)[1:] for line in block.splitlines())
                    if argv and argv[0] in ("verify", "oracle", "wavefunction")}
        assert sorted(commands) == ["oracle", "verify", "wavefunction"]
        stale = "differs from tests/golden; regenerate.py there rewrites it for a change CHANGES.md lists"
        for name in ("verify", "oracle"):
            code, out = run_main(commands[name], capsys)
            assert code == 0 and out.encode("utf-8") == (golden / f"{name}.json").read_bytes(), f"{name} {stale}"
        argv = commands["wavefunction"]
        argv[argv.index("--out") + 1] = str(tmp_path / "wf.csv")
        assert run_main(argv, capsys) == (0, "")
        digest = hashlib.sha256((tmp_path / "wf.csv").read_bytes()).hexdigest()
        assert digest == (golden / "wavefunction.sha256").read_text().strip(), f"wavefunction {stale}"

    def test_verify_output_independent_of_sort_kind(self, monkeypatch, capsys):
        """The README verify command prints the same bytes whichever
        algorithm np.argsort uses: worst points keep ties in grid order."""
        block = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = block.split("## Command line", 1)[1].split("```")[1]
        (argv,) = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("dkradial verify ")]
        original, outputs = np.argsort, set()

        def forced(kind):
            def argsort(a, axis=-1, **asked):  # the kind a caller asks for is overridden
                return original(a, axis, kind=kind)
            return argsort

        for kind in ("quicksort", "heapsort", "stable"):
            monkeypatch.setattr(np, "argsort", forced(kind))
            code, out = run_main(argv, capsys)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_args_file_example_runs(self, tmp_path, monkeypatch, capsys):
        """The README @file example: write the file it shows, run its command."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        lines = readme.split("## Command line", 1)[1].split("```")[3].strip().splitlines()
        assert lines[0] == "$ cat f1.args" and lines[-1].startswith("$ dkradial spectrum @f1.args")
        (tmp_path / "f1.args").write_text("\n".join(lines[1:-1]) + "\n")
        monkeypatch.chdir(tmp_path)
        code, out = run_main(shlex.split(lines[-1])[2:], capsys)
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        assert code == 0 and [r.split(",")[3] for r in rows] == ["8", "24", "48"]
