import argparse
import collections
import math
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import xyness
import xyness.fourier
from xyness import (
    ModelParams, QuadratureError, build_block_sequence, compute_series, mu_sup, symbol_matrices,
)
from xyness.cli import SPECTRUM_EPS, build_parser
from xyness.fourier import COEFF_TOL
from xyness.spectral import LIMIT_TOL
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
#: BASE as sweep takes it
BASE_POINT = ["--point", "0.5,0.3,1,2"]


def at_base(subcommand):
    """``subcommand`` at the point BASE names, in the form it accepts."""
    return [subcommand, *(BASE_POINT if subcommand == "sweep" else BASE)]


#: every flag of any subcommand, with arguments that parse, and --tol,
#: --eps and --format: the coefficient tolerance and spectrum's small
#: singular-value threshold are the constants fourier.COEFF_TOL and
#: cli.SPECTRUM_EPS, and every output is CSV, so every subcommand rejects
#: these three flags as a usage error (exit 2)
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
        "--gamma", "--lambda", "--beta-l", "--beta-r", "--n-max", "--n-list",
        "--out", "--dump-matrices",
    },
    "spectrum": {
        "--gamma", "--lambda", "--beta-l", "--beta-r", "--n-max", "--n-list", "--out",
    },
    "bound": {"--gamma", "--lambda", "--beta-l", "--beta-r", "--out"},
    # sweep takes its points from --point only, and requires one
    "sweep": {"--n-max", "--n-list", "--out", "--point"},
    "selftest": set(),
}


class TestParser:
    @pytest.mark.parametrize("subcommand", sorted(ACCEPTED))
    @pytest.mark.parametrize("flag", sorted(FLAG_ARGS))
    def test_flag_parses_iff_read(self, subcommand, flag, capsys):
        argv = [subcommand, flag, *FLAG_ARGS[flag]]
        if subcommand == "sweep":
            argv += BASE_POINT
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
        assert sum(len(flags) for flags in ACCEPTED.values()) == 24

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

    def test_series_metadata_stays_out_of_output(self, tmp_path):
        # the run description holds exactly these keys, and nothing that
        # varies between identical runs
        shared = {
            "xyness", "numpy", "command", "gamma", "lambda", "beta_l", "beta_r",
            "beta", "delta", "swapped", "critical", "tol", "n_list", "theorem_rate",
            "weak_rate", "mu_sup", "fit_slope", "fit_window",
        }
        out = tmp_path / "c.csv"
        args = ["correlations", *BASE, "--n-list", "2,4,8,16"]
        assert run_cli(*args, "--out", str(out)).returncode == 0
        comments = [line for line in out.read_text().splitlines() if line.startswith("# ")]
        assert {k for line in comments for k in re.findall(r"(\w+)=", line)} == shared

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


#: the error of the cold point (0, 2, 50, 50), whose n = 1 fold is exactly
#: singular (ROADMAP item 1)
COLD_POINT_ERROR = "NumericalError: fold X is exactly singular at n=1: log|det X| = -inf"


def described(path) -> dict:
    """The ``#`` lines of a CLI CSV file as {key: value text}.

    The rule perfbench reads them by: a line that is a run of ``k=v``
    tokens gives each token's pair; any other line is one key, and the
    whole rest of the line after its first ``=`` is the value.
    """
    pairs = {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            body = line[2:]
            tokens = body.split(" ") if re.fullmatch(r"\w+=\S+( \w+=\S+)*", body) else [body]
            pairs.update(token.split("=", 1) for token in tokens)
    return pairs


def point_description(p: ModelParams) -> dict:
    return {
        "gamma": p.gamma, "lambda": p.lam, "beta_l": p.beta_l, "beta_r": p.beta_r,
        "beta": p.beta, "delta": p.delta, "swapped": p.swapped, "critical": p.critical,
    }


def run_description(case: str) -> dict:
    """What the run ``DESCRIBED_RUNS[case]`` describes itself as, from the library."""
    p = ModelParams(0.5, 0.3, 1.0, 2.0)  # BASE
    if case == "correlations":
        series = compute_series(p, n_list=(2, 4, 8, 16))
        fit = series.fit
        return {
            **point_description(p), "tol": COEFF_TOL, "n_list": "2,4,8,16",
            "theorem_rate": series.bound.theorem_rate, "weak_rate": series.bound.weak_rate,
            "mu_sup": mu_sup(p), "fit_slope": fit.slope, "fit_window": f"{fit.n_lo}:{fit.n_hi}",
        }
    if case == "spectrum":
        return {**point_description(p), "tol": COEFF_TOL, "n_list": "8,16", "eps": SPECTRUM_EPS}
    if case == "bound":
        return {**point_description(p), "tol": LIMIT_TOL}
    if case == "sweep":
        grid, n_list, errors = [(0.5, 0.3, 1, 3), (-0.4, 1.7, 2, 2)], "2,4", {}
    else:
        grid, n_list = [(0, 2, 50, 50), (0.5, 0.3, 1, 3)], "1,2,4,8"
        errors = {"point_0_error": COLD_POINT_ERROR}
    flags = {}
    for i, q in enumerate(ModelParams(*pt) for pt in grid):
        flags.update({f"point_{i}_swapped": q.swapped, f"point_{i}_critical": q.critical})
    return {"tol": COEFF_TOL, "points": 2, "n_list": n_list, **flags, **errors}


DESCRIBED_RUNS = {
    "correlations": ["correlations", *BASE, "--n-list", "2,4,8,16"],
    "spectrum": ["spectrum", *BASE, "--n-list", "8,16"],
    "bound": ["bound", *BASE],
    "sweep": ["sweep", "--n-list", "2,4", "--point", "0.5,0.3,1,3", "--point=-0.4,1.7,2,2"],
    # point 0 fails at n = 1, so its error message, spaces included, is one
    # description line
    "sweep-point-error": [
        "sweep", "--n-list", "1,2,4,8", "--point", "0,2,50,50", "--point", "0.5,0.3,1,3"
    ],
}


@pytest.mark.parametrize("case", DESCRIBED_RUNS)
def test_csv_describes_the_run(tmp_path, case):
    # every "#" line reads back into the run's keys and values: booleans as
    # true/false, floats as their repr
    args = DESCRIBED_RUNS[case]
    out = tmp_path / "run.csv"
    assert run_cli(*args, "--out", str(out)).returncode == 0
    want = {"xyness": xyness.__version__, "numpy": np.__version__, "command": args[0]}
    want.update(run_description(case))
    # sweep-point-error: the whole message is point_0_error's value
    text = {k: str(v).lower() if isinstance(v, bool) else str(v) for k, v in want.items()}
    assert described(out) == text


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

    def test_exactly_singular_fold_exits_3(self, capsys):
        # ROADMAP item 1's cold point, whose n = 1 fold is exactly singular
        import xyness.cli as cli

        point = ["--gamma", "0", "--lambda", "2", "--beta-l", "50", "--beta-r", "50"]
        assert cli.main(["correlations", *point, "--n-list", "1,2,4,8"]) == 3
        err = capsys.readouterr().err
        assert "fold X is exactly singular at n=1" in err and "nan" not in err

    def test_temperatures_near_overflow_exit_0(self, capsys):
        # beta_l + beta_r overflows to inf, while beta and delta stay finite
        import xyness.cli as cli

        point = ["--beta-l", "1e308", "--beta-r", "1.7e308"]
        assert cli.main(["correlations", *point, "--n-list", "4,8"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines() if line[0].isdigit()]
        assert [float(r.split(",")[1]) for r in rows] == pytest.approx([-0.0823, -0.0825], abs=1e-4)

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
        assert cli.main([*at_base(subcommand), "--out", str(out)]) == 2

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
        # one size's SVD fails on a pool thread while the other tasks
        # succeed: the calling thread's own task, the n = 32 SVD, waits
        # until the n = 16 SVD has failed, so the pool runs that one
        import xyness.cli as cli
        import xyness.pipeline

        real = xyness.pipeline.singular_values
        failed_on, failed = [], threading.Event()

        def no_convergence_at_16(M):
            if M.shape[0] == 16:
                failed_on.append(threading.current_thread())
                failed.set()
                raise np.linalg.LinAlgError("SVD did not converge")
            if M.shape[0] == 32:
                assert failed.wait(timeout=30)
            return real(M)

        monkeypatch.setattr(xyness.pipeline, "singular_values", no_convergence_at_16)
        monkeypatch.setenv("XYNESS_THREADS", "2")
        out = tmp_path / "c.csv"
        assert cli.main(["correlations", *BASE, "--n-list", "8,16,32", "--out", str(out)]) == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err
        assert not out.exists()
        assert failed_on and failed_on[0] is not threading.main_thread()

    def test_spectrum_worker_lapack_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        # spectrum's n = 128 SVD fails on a pool thread while the other
        # sizes succeed: the calling thread's own task, the n = 512 SVD,
        # waits until the n = 128 SVD has failed, so the pool runs that one
        import xyness.cli as cli
        import xyness.spectral

        real = xyness.spectral.singular_values
        failed_on, failed = [], threading.Event()

        def no_convergence_at_128(M):
            if M.shape[0] == 128:
                failed_on.append(threading.current_thread())
                failed.set()
                raise np.linalg.LinAlgError("SVD did not converge")
            if M.shape[0] == 512:
                assert failed.wait(timeout=30)
            return real(M)

        monkeypatch.setattr(xyness.spectral, "singular_values", no_convergence_at_128)
        monkeypatch.setenv("XYNESS_THREADS", "2")
        out = tmp_path / "s.csv"
        assert cli.main(["spectrum", *BASE, "--n-max", "512", "--out", str(out)]) == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err
        assert not out.exists()
        assert failed_on and failed_on[0] is not threading.main_thread()


#: runs the CLI under a 4 GiB address-space limit, set before numpy loads
UNDER_4_GIB = """
import resource, runpy, sys
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
sys.argv = ["xyness", *sys.argv[1:]]
runpy.run_module("xyness.cli", run_name="__main__")
"""


def run_under_4_gib(*args):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", UNDER_4_GIB, *args], capture_output=True, text=True, timeout=60, env=env
    )


@pytest.mark.parametrize("subcommand", ["correlations", "spectrum"])
def test_oversized_size_exits_3_in_one_line(subcommand):
    # at N = 1e7 the first refinement level would hold ~4e13 entries, 90.9 TiB
    # in one of its arrays; the entry budget refuses it before any is built
    start = time.perf_counter()
    r = run_under_4_gib(subcommand, "--n-max", "10000000")
    assert r.returncode == 3, r.stderr
    assert time.perf_counter() - start < 30
    assert r.stdout == ""
    [line] = r.stderr.splitlines()
    assert line.startswith("numerical failure: coefficients at n_max=10000000 need "), line


def test_oversized_sweep_point_records_the_budget():
    r = run_under_4_gib("sweep", "--n-max", "10000000", "--point", "0.5,0.3,1,3")
    assert r.returncode == 0, r.stderr
    assert "# point_0_error=QuadratureError: coefficients at n_max=10000000 need " in r.stdout


#: runs every subcommand but selftest with scipy made unimportable
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from xyness import ModelParams, cli, symbol_matrices
symbol_matrices(0.3, ModelParams(0.5, 0.3, 1.0, 3.0))
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


#: size arguments every size-taking subcommand rejects
BAD_SIZES = {
    "descending": ["--n-list", "8,4"],
    "zero": ["--n-list", "0"],
}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep"], "the following arguments are required: --point"),
            (["sweep", "--gamma", "0.5", *BASE_POINT], "unrecognized arguments: --gamma 0.5"),
            (["spectrum", "--eps", "1e-3"], "unrecognized arguments: --eps 1e-3"),
        ],
        ids=["sweep-bare", "sweep-gamma", "spectrum-eps"],
    )
    def test_removed_inputs_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["correlations", "spectrum", "sweep"])
    def test_malformed_thread_count_exits_2(self, subcommand, tmp_path, monkeypatch):
        monkeypatch.setenv("XYNESS_THREADS", "two")
        out = tmp_path / "c.csv"
        r = run_cli(*at_base(subcommand), "--n-max", "16", "--out", str(out))
        assert r.returncode == 2
        assert r.stderr == "error: XYNESS_THREADS must be a positive integer, got 'two'\n"
        assert not out.exists()

    @pytest.mark.parametrize("bad", BAD_SIZES.values(), ids=BAD_SIZES.keys())
    @pytest.mark.parametrize("subcommand", ["correlations", "spectrum", "sweep"])
    def test_bad_sizes_exit_2_without_output(self, subcommand, bad):
        r = run_cli(*at_base(subcommand), *bad)
        assert r.returncode == 2
        assert r.stdout == ""
        assert any(line.startswith("error: ") for line in r.stderr.splitlines())

    # 256 is correlations' and sweep's default --n-max, 512 spectrum's
    @pytest.mark.parametrize("n_max", ["256", "512"])
    @pytest.mark.parametrize("subcommand", ["correlations", "spectrum", "sweep"])
    def test_n_max_with_n_list_exits_2(self, subcommand, n_max, capsys):
        import xyness.cli as cli

        for sizes in (["--n-max", n_max, "--n-list", "8,16"], ["--n-list", "8,16", "--n-max", n_max]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*at_base(subcommand), *sizes])
            assert exc.value.code == 2
            assert "not allowed with argument" in capsys.readouterr().err


def bound_csv(*args):
    """``bound``'s stdout at ``args``: its description lines and its one row."""
    r = run_cli("bound", *args)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    header, row = [line.split(",") for line in lines if not line.startswith("#")]
    return [line for line in lines if line.startswith("#")], dict(zip(header, row))


class TestBoundCommand:
    def test_plain_output(self):
        described, row = bound_csv(*BASE)
        assert float(row["theorem_rate"]) < 0.0
        assert row["critical"] == "0"
        assert "# swapped=false critical=false" in described

    def test_critical_flagged_finite(self):
        described, row = bound_csv("--gamma", "0", "--lambda", "0.5", "--beta-l", "1", "--beta-r", "3")
        assert row["critical"] == "1"
        assert "# swapped=false critical=true" in described
        rate = float(row["theorem_rate"])
        assert math.isfinite(rate) and rate < 0.0

    def test_out_header_reports_rate_tolerance(self, tmp_path):
        # the rate integral runs at LIMIT_TOL whatever the coefficient tolerance
        csv = tmp_path / "b.csv"
        r = run_cli("bound", *BASE, "--out", str(csv))
        assert r.returncode == 0 and r.stdout == ""
        assert "# tol=1e-09" in csv.read_text().splitlines()
        assert run_cli("bound", *BASE, "--tol", "1e-3").returncode == 2

    def test_equilibrium_flag(self):
        # equal reservoir temperatures: delta = 0 in the description
        described, _ = bound_csv("--gamma", "0.5", "--lambda", "0.3", "--beta-l", "2", "--beta-r", "2")
        assert "# beta=2.0 delta=0.0" in described


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

    def test_rows_do_not_depend_on_the_thread_count(self, monkeypatch, capsys):
        # the four SVDs run on the size pool; each factors the same fold either way
        import xyness.cli as cli

        outputs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("XYNESS_THREADS", threads)
            assert cli.main(["spectrum", *BASE, "--n-max", "512"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert [line.split(",")[0] for line in outputs[0].splitlines()[-4:]] == ["64", "128", "256", "512"]

    def test_malformed_thread_count_raises_before_the_quadrature(self, monkeypatch, capsys):
        import xyness.cli as cli

        def integrate(*args):
            raise AssertionError("coefficients integrated before XYNESS_THREADS was read")

        monkeypatch.setattr(cli, "build_block_sequence", integrate)
        monkeypatch.setenv("XYNESS_THREADS", "two")
        assert cli.main(["spectrum", *BASE, "--n-max", "16"]) == 2
        assert capsys.readouterr().err == "error: XYNESS_THREADS must be a positive integer, got 'two'\n"

    def test_calling_thread_runs_the_largest_svd(self, monkeypatch, capsys):
        # at one worker the calls run in read order: the two limit integrals,
        # then the SVDs smallest first; at two and three workers the calling
        # thread is one of them and takes the n = 512 SVD first, every call
        # still runs once, and the pool adds workers - 1 threads
        import xyness.cli as cli
        import xyness.spectral

        real_sv, real_limit = xyness.spectral.singular_values, cli.avram_parter_limit
        calls = []

        def record(call):
            calls.append((*call, threading.current_thread(), threading.active_count()))

        def placed(M):
            record(("SVD", M.shape[0]))
            return real_sv(M)

        def limit(g, p):
            record(("limit", "square" if g is np.square else "chi_log"))
            return real_limit(g, p)

        monkeypatch.setattr(xyness.spectral, "singular_values", placed)
        monkeypatch.setattr(cli, "avram_parter_limit", limit)
        schedules = {}
        for workers in (1, 2, 3):
            calls.clear()
            baseline = threading.active_count()
            monkeypatch.setenv("XYNESS_THREADS", str(workers))
            assert cli.main(["spectrum", *BASE, "--n-max", "512"]) == 0
            assert max(alive for *_, alive in calls) <= baseline + workers - 1
            schedules[workers] = list(calls)
        serial = [call[:2] for call in schedules[1]]
        assert serial == [
            ("limit", "square"), ("limit", "chi_log"), ("SVD", 64), ("SVD", 128), ("SVD", 256), ("SVD", 512),
        ]
        assert {call[2] for call in schedules[1]} == {threading.main_thread()}
        for workers in (2, 3):
            schedule = schedules[workers]
            on_caller = [call[:2] for call in schedule if call[2] is threading.main_thread()]
            assert on_caller[0] == ("SVD", 512)
            assert collections.Counter(call[:2] for call in schedule) == collections.Counter(serial)
            assert [call[2] for call in schedule if call[:2] == ("SVD", 512)] == [threading.main_thread()]

    @pytest.mark.parametrize("point", [("0.5", "1.5", "2", "2"), ("0.5", "0.3", "1", "3")], ids=str)
    def test_count_small_is_twice_the_folds_count(self, point, capsys):
        # the census of the 2n values, X's each counted twice, without
        # building them; at the noise point one exponentially small pair
        import xyness.cli as cli

        gamma, lam, beta_l, beta_r = point
        argv = ["spectrum", f"--gamma={gamma}", f"--lambda={lam}", "--beta-l", beta_l, "--beta-r", beta_r]
        assert cli.main(argv) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        seq = build_block_sequence(512, ModelParams(*map(float, point)))
        counts = []
        for row in rows:
            sv = xyness.singular_values(xyness.folded(int(row["n"]), seq))
            counts.append(int(row["count_small"]))
            assert counts[-1] == 2 * int(np.count_nonzero(sv <= SPECTRUM_EPS))
            assert counts[-1] == int(np.count_nonzero(np.repeat(sv, 2) <= SPECTRUM_EPS))
        assert counts == ([2] * 4 if lam == "1.5" else [0] * 4)

    def test_hot_point_runs(self, capsys):
        # at beta = 1e-4 the symbol norm, 6.5e-5, lies below SPECTRUM_EPS: every
        # singular value is small, and the chi_log columns are exactly 0
        import xyness.cli as cli

        assert cli.main(["spectrum", "--beta-l", "1e-4", "--beta-r", "1e-4"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert [int(row["n"]) for row in rows] == [64, 128, 256, 512]
        for row in rows:
            assert int(row["count_small"]) == 2 * int(row["n"])
            for col in ("emp_chi_log", "limit_chi_log", "gap_chi_log"):
                assert float(row[col]) == 0.0, (row["n"], col)


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

    def test_description_flags_each_point(self, tmp_path):
        # point 1 is given swapped and is critical: each row holds its point,
        # reservoir labels normalized, and the description says, on one line
        # per key, which points were given swapped and which are critical
        out = tmp_path / "sw.csv"
        r = run_cli(
            "sweep", "--n-list", "4,8", "--point", "0.5,0.3,1,3", "--point", "0,0.5,2,1",
            "--out", str(out),
        )
        assert r.returncode == 0
        text = out.read_text().splitlines()
        flags = {
            "point_0_swapped": "false", "point_0_critical": "false",
            "point_1_swapped": "true", "point_1_critical": "true",
        }
        assert described(out) == {
            "xyness": xyness.__version__, "numpy": np.__version__, "command": "sweep",
            "tol": str(COEFF_TOL), "points": "2", "n_list": "4,8", **flags,
        }
        assert all(f"# {k}={v}" in text for k, v in flags.items())
        lines = [l.split(",") for l in text if not l.startswith("#")]
        points = {tuple(float(v) for v in row[1:5]) for row in lines[1:]}
        assert points == {(0.5, 0.3, 1.0, 3.0), (0.0, 0.5, 1.0, 2.0)}

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
        # the engine integrates perturbed weights through its binding, the
        # full-circle reference the model's own
        p = ModelParams(0.5, 0.3, 1.0, 2.0)
        assert fold_deviation(p, build_block_sequence(33, p)) <= 2e-12

        weights = xyness.fourier._symbol_weights

        def perturbed(factor):
            return lambda xi, q: tuple(f * factor(xi) for f in weights(xi, q))

        # an even part breaks the diagonal weight's parity: the gauge gate
        # refuses it at the nodes
        monkeypatch.setattr(
            xyness.fourier, "_symbol_weights", perturbed(lambda xi: 1.0 + 0.1 * np.sin(xi))
        )
        with pytest.raises(QuadratureError, match="breaks the real gauge"):
            build_block_sequence(33, p)
        # a perturbation that keeps the parities passes the gate, and the
        # fold line sees it
        monkeypatch.setattr(
            xyness.fourier, "_symbol_weights", perturbed(lambda xi: 1.0 + 0.1 * np.cos(xi))
        )
        assert fold_deviation(p, build_block_sequence(33, p)) > 1e-4
