import argparse
import json
import math
import subprocess
import sys
import threading

import numpy as np
import pytest

import xyness.fourier
from xyness import ModelParams, phi, symbol_matrices
from xyness.spectral import LIMIT_TOL
from xyness.cli import build_parser
from xyness.selftest import fold_deviation, skew_deviation, symbol_svd_deviation
from conftest import midpoint_grid


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "xyness.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


BASE = ["--gamma", "0.5", "--lambda", "0.3", "--beta-l", "1", "--beta-r", "2"]

#: every flag of any subcommand, with arguments that parse
FLAG_ARGS = {
    "--gamma": ["0.5"],
    "--lambda": ["0.3"],
    "--beta-l": ["1"],
    "--beta-r": ["2"],
    "--n-max": ["64"],
    "--n-list": ["2,4"],
    "--tol": ["1e-12"],
    "--eps": ["1e-3"],
    "--out": ["out.csv"],
    "--format": ["jsonl"],
    "--dump-matrices": [],
    "--point": ["0.5,0.3,1,2"],
}

#: the flags each subcommand reads; every other flag is a usage error
ACCEPTED = {
    "correlations": {
        "--gamma", "--lambda", "--beta-l", "--beta-r", "--n-max", "--n-list", "--tol",
        "--out", "--format", "--dump-matrices",
    },
    "spectrum": {
        "--gamma", "--lambda", "--beta-l", "--beta-r", "--n-max", "--n-list", "--tol",
        "--eps", "--out", "--format",
    },
    "bound": {"--gamma", "--lambda", "--beta-l", "--beta-r", "--out", "--format"},
    "sweep": {
        "--gamma", "--lambda", "--beta-l", "--beta-r", "--n-max", "--n-list", "--tol",
        "--out", "--format", "--point",
    },
    "selftest": set(),
}


class TestParser:
    @pytest.mark.parametrize("subcommand", sorted(ACCEPTED))
    @pytest.mark.parametrize("flag", sorted(FLAG_ARGS))
    def test_flag_parses_iff_read(self, subcommand, flag, capsys):
        argv = [subcommand, flag, *FLAG_ARGS[flag]]
        if flag in ACCEPTED[subcommand]:
            build_parser().parse_args(argv)
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_table_lists_every_flag(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(ACCEPTED)
        for name, sp in sub.choices.items():
            flags = {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
            assert flags == ACCEPTED[name], name
        assert sum(len(flags) for flags in ACCEPTED.values()) == 36

    def test_unread_flags_exit_2(self):
        for argv in (["selftest", "--gamma", "0.5"], ["spectrum", "--dump-matrices"]):
            r = run_cli(*argv)
            assert r.returncode == 2, argv
            assert r.stdout == ""


class TestCorrelationsCommand:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "c.csv"
        r = run_cli("correlations", *BASE, "--n-list", "2,4,8", "--out", str(out))
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == (
            "n,log_abs_C,log_abs_det,pf_det_residual,smin,smax,"
            "weak_bound_log,theorem_rate_times_n"
        )
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 3
        first = data[0].split(",")
        assert first[0] == "2"
        # 17 significant digits, scientific notation
        assert "e" in first[1] and len(first[1].split("e")[0].replace("-", "").replace(".", "")) == 17

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["correlations", *BASE, "--n-list", "2,4,8"]
        assert run_cli(*args, "--out", str(a)).returncode == 0
        assert run_cli(*args, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_swap_produces_identical_numbers(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("correlations", *BASE, "--n-list", "2,4", "--out", str(a))
        run_cli(
            "correlations",
            "--gamma", "0.5", "--lambda", "0.3", "--beta-l", "2", "--beta-r", "1",
            "--n-list", "2,4",
            "--out", str(b),
        )
        rows = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
        assert rows(a) == rows(b)
        assert "# swapped=false" in a.read_text()
        assert "# swapped=true" in b.read_text()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "c.jsonl"
        r = run_cli(
            "correlations", *BASE, "--n-list", "2,4", "--format", "jsonl", "--out", str(out)
        )
        assert r.returncode == 0
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert [l["n"] for l in lines[1:]] == [2, 4]
        assert lines[1]["log_abs_C"] < 0.0

    def test_series_metadata_stays_out_of_output(self, tmp_path):
        # series.metadata carries them; the byte-deterministic files must not
        for fmt in ("csv", "jsonl"):
            out = tmp_path / f"c.{fmt}"
            args = ["correlations", *BASE, "--n-list", "2,4", "--format", fmt]
            assert run_cli(*args, "--out", str(out)).returncode == 0
            text = out.read_text()
            for key in ("created_unix", "coefficient_err_estimate", "bound_tol"):
                assert key not in text

    def test_dump_matrices(self, tmp_path):
        out = tmp_path / "c.csv"
        r = run_cli(
            "correlations", *BASE, "--n-list", "2,4", "--out", str(out), "--dump-matrices"
        )
        assert r.returncode == 0
        blob = (tmp_path / "c.csv.omega0002.bin").read_bytes()
        M = np.frombuffer(blob, dtype="<c16").reshape(4, 4)
        assert np.max(np.abs(M + M.T)) < 1e-10

    def test_dump_requires_out(self):
        r = run_cli("correlations", *BASE, "--n-list", "2", "--dump-matrices")
        assert r.returncode == 2
        assert r.stdout == ""  # rejected before any computation or output


class TestExitCodes:
    def test_usage_error_on_bad_gamma(self):
        r = run_cli("correlations", "--gamma", "1.5", "--n-list", "2")
        assert r.returncode == 2
        assert "gamma" in r.stderr

    def test_usage_error_on_unknown_flag(self):
        r = run_cli("correlations", "--frobnicate")
        assert r.returncode == 2

    def test_usage_error_on_bad_subcommand(self):
        r = run_cli("transmogrify")
        assert r.returncode == 2

    def test_numerical_failure_maps_to_exit_3(self, monkeypatch, capsys):
        import xyness.cli as cli
        from xyness import NumericalError

        def boom(cfg):
            raise NumericalError("cross-check failed at n=8")

        monkeypatch.setitem(cli._COMMANDS, "correlations", boom)
        code = cli.main(["correlations", "--n-list", "8"])
        assert code == 3
        assert "n=8" in capsys.readouterr().err

    def test_lapack_failure_maps_to_exit_3(self, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, which is the usage-error clause
        import xyness.cli as cli
        import xyness.pipeline

        def no_convergence(M):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(xyness.pipeline, "singular_values", no_convergence)
        code = cli.main(["correlations", *BASE, "--n-list", "2,4"])
        assert code == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args", [["correlations", "--n-list", "2,4"], ["bound"]], ids=["correlations", "bound"]
    )
    def test_unwritable_out_path_exits_2(self, args, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        r = run_cli(*args, *BASE, "--out", str(out))
        assert r.returncode == 2
        assert "error: " in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("subcommand", ["correlations", "spectrum", "sweep", "bound"])
    def test_unwritable_out_path_exits_2_before_computing(self, subcommand, tmp_path, monkeypatch):
        import xyness.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("computed before --out was opened")

        for name in ("compute_series", "build_block_sequence", "sweep", "bound_report"):
            monkeypatch.setattr(cli, name, never)
        out = tmp_path / "missing" / "x.csv"
        assert cli.main([subcommand, *BASE, "--out", str(out)]) == 2

    def test_failed_run_leaves_no_out_file(self, tmp_path, monkeypatch):
        import xyness.cli as cli
        import xyness.pipeline

        def no_convergence(M):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(xyness.pipeline, "singular_values", no_convergence)
        out = tmp_path / "c.csv"
        assert cli.main(["correlations", *BASE, "--n-list", "2,4", "--out", str(out)]) == 3
        assert not out.exists()
        # a path that is not a regular file, such as /dev/null, is never removed
        link = tmp_path / "link.csv"
        link.symlink_to(tmp_path / "target.csv")
        assert cli.main(["correlations", *BASE, "--n-list", "2,4", "--out", str(link)]) == 3
        assert link.is_symlink()

    def test_worker_lapack_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # one size's SVD fails on a pool thread while the other tasks succeed
        import xyness.cli as cli
        import xyness.pipeline

        real = xyness.pipeline.singular_values
        failed_on = []

        def no_convergence_at_16(M):
            if M.shape[0] == 16:
                failed_on.append(threading.current_thread())
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(M)

        monkeypatch.setattr(xyness.pipeline, "singular_values", no_convergence_at_16)
        monkeypatch.setenv("XYNESS_THREADS", "2")
        out = tmp_path / "c.csv"
        assert cli.main(["correlations", *BASE, "--n-list", "8,16,32", "--out", str(out)]) == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err
        assert not out.exists()
        assert failed_on and failed_on[0] is not threading.main_thread()


#: runs every subcommand but selftest with scipy made unimportable
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from xyness import ModelParams, cli, two_point_operator
two_point_operator(0.3, ModelParams(0.5, 0.3, 1.0, 3.0))
for argv in (
    ["correlations", "--n-max", "16"],
    ["spectrum", "--n-max", "64"],
    ["bound"],
    ["sweep", "--n-max", "16", "--point", "0.5,0.3,1,3", "--point", "0,0.5,1,3"],
):
    assert cli.main(argv) == 0, argv
print("numpy only")
"""


def test_runs_without_scipy():
    r = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "numpy only"


#: size and tolerance arguments every size-taking subcommand rejects
BAD_SIZES = {
    "descending": ["--n-list", "8,4"],
    "zero": ["--n-list", "0"],
    "negative-tol": ["--tol", "-1", "--n-max", "8"],
}


class TestUsageErrors:
    @pytest.mark.parametrize("eps", ["0", "1"])
    def test_bad_eps_exits_2_before_integrating(self, eps, monkeypatch, capsys):
        import xyness.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("coefficients integrated before --eps was checked")

        monkeypatch.setattr(cli, "build_block_sequence", never)
        assert cli.main(["spectrum", *BASE, "--eps", eps]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("bad", BAD_SIZES.values(), ids=BAD_SIZES.keys())
    @pytest.mark.parametrize("subcommand", ["correlations", "spectrum", "sweep"])
    def test_bad_sizes_exit_2_without_output(self, subcommand, bad):
        r = run_cli(subcommand, *BASE, *bad)
        assert r.returncode == 2
        assert r.stdout == ""
        assert any(line.startswith("error: ") for line in r.stderr.splitlines())


class TestBoundCommand:
    def test_plain_output(self):
        r = run_cli("bound", *BASE)
        assert r.returncode == 0
        rate = float(r.stdout.split("theorem_rate =")[1].splitlines()[0])
        assert rate < 0.0
        assert "critical     = false" in r.stdout

    def test_critical_flagged_finite(self):
        r = run_cli("bound", "--gamma", "0", "--lambda", "0.5", "--beta-l", "1", "--beta-r", "3")
        assert r.returncode == 0
        assert "critical     = true" in r.stdout
        rate = float(r.stdout.split("theorem_rate =")[1].splitlines()[0])
        assert math.isfinite(rate) and rate < 0.0

    def test_out_header_reports_rate_tolerance(self, tmp_path):
        # the rate integral runs at LIMIT_TOL whatever the coefficient tolerance
        csv, jsonl = tmp_path / "b.csv", tmp_path / "b.jsonl"
        assert run_cli("bound", *BASE, "--out", str(csv)).returncode == 0
        assert "# tol=1e-09" in csv.read_text().splitlines()
        assert run_cli("bound", *BASE, "--format", "jsonl", "--out", str(jsonl)).returncode == 0
        assert json.loads(jsonl.read_text().splitlines()[0])["tol"] == LIMIT_TOL == 1e-9
        assert run_cli("bound", *BASE, "--tol", "1e-3").returncode == 2

    def test_equilibrium_flag(self):
        r = run_cli("bound", "--gamma", "0.5", "--lambda", "0.3", "--beta-l", "2", "--beta-r", "2")
        assert r.returncode == 0
        assert "equilibrium  = true" in r.stdout


class TestSpectrumCommand:
    def test_rows_and_gap(self, tmp_path):
        out = tmp_path / "s.csv"
        r = run_cli("spectrum", *BASE, "--n-list", "8,16,32", "--out", str(out))
        assert r.returncode == 0
        data = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        header, rows = data[0], data[1:]
        gap_col = header.index("gap_square")
        gaps = [float(row[gap_col]) for row in rows]
        assert gaps[-1] <= gaps[0]
        count_col = header.index("count_small")
        assert all(int(row[count_col]) == 0 for row in rows)


class TestSweepCommand:
    def test_points_and_order(self, tmp_path):
        out = tmp_path / "sw.csv"
        r = run_cli(
            "sweep",
            "--point", "0.5,0.3,1,2",
            "--point", "0.5,0.3,2,1",
            "--n-list", "2,4",
            "--out", str(out),
        )
        assert r.returncode == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert [row[0] for row in rows] == ["0", "0", "1", "1"]
        # swapped labels give identical magnitudes
        assert rows[0][6] == rows[2][6]

    def test_bad_point_syntax(self):
        r = run_cli("sweep", "--point", "1,2,3")
        assert r.returncode == 2


class TestSelftestCommand:
    def test_passes_on_correct_build(self):
        r = run_cli("selftest")
        assert r.returncode == 0, r.stdout + r.stderr
        assert "12/12 checks passed" in r.stdout


class TestNegativeControls:
    def test_injected_assembly_sign_error_fails_skew_check(self, base_seq):
        from xyness import assemble

        T = assemble(4, base_seq)
        corrupted = T.copy()
        corrupted[0, 1] = -corrupted[0, 1]  # sign error in one a_x entry
        assert skew_deviation(T) <= 2 * base_seq.err_estimate
        assert skew_deviation(corrupted) > 1e-3

    def test_injected_phi_error_fails_svd_check(self):
        p = ModelParams(0.5, 0.3, 1.0, 2.0)
        xi = midpoint_grid(64)
        good = symbol_matrices(xi, p)
        assert symbol_svd_deviation(p, xi, matrices=good) <= 1e-12
        bad = good.copy()
        bad[:, 0, 1] *= 1.001  # wrong thermal weight identity
        assert symbol_svd_deviation(p, xi, matrices=bad) > 1e-12

    def test_injected_weight_error_fails_fold_check(self, monkeypatch):
        # the engine integrates a diagonal weight with an even part, the
        # full-circle reference the model's own
        p = ModelParams(0.5, 0.3, 1.0, 2.0)
        assert fold_deviation(p, 1e-12) <= 2e-12

        def skewed_phi(d, xi, q):
            return phi(d, xi, q) * (1.0 + 0.1 * np.sin(xi))

        monkeypatch.setattr(xyness.fourier, "phi", skewed_phi)
        assert fold_deviation(p, 1e-12) > 1e-4
