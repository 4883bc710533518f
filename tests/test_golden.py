"""A golden record of the CLI's reported numbers, compared within each column's tolerance.

``tests/golden/`` holds the CSV outputs of ``correlations`` (default sizes
and ``--n-max 512``), ``spectrum`` and ``bound --out`` at the points of
``POINTS``; a run that fails leaves its exit code and message instead.
``PYTHONPATH=src python tests/rewrite_golden.py`` rewrites the files, so a
change that moves a reported number commits the new files and the diff
shows what moved.

The comparison reads every value through ``TOLERANCES``, the table README
carries too, not bytes, so it holds under another BLAS build.  A row whose
recorded smin is below ``NOISE_SMIN`` sits at the quadrature noise floor
(ROADMAP item 1): it is recorded, but only its n is compared, and
``fit_slope`` is compared only when every row of its window is resolved.
"""

import contextlib
import io
import pathlib
import re

import pytest

import xyness.fourier
from xyness import cli
from xyness.spectral import LIMIT_TOL

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: name -> (gamma, lambda, beta_l, beta_r), as given on the command line
POINTS = {
    "generic": ("0.5", "0.3", "1", "3"),
    "noise": ("0.5", "1.5", "2", "2"),
    "critical": ("0", "0.5", "1", "3"),
    "lam1": ("0.5", "1", "1", "3"),
    "hot": ("0.5", "0.3", "1e-3", "2e-3"),
    # exits 3: its LU/reversed-LU residual at n = 16 is ~1e4 times the gate
    "exit": ("-0.99998", "-0.9957", "1.534", "1.534"),
}
#: name -> subcommand and options
RUNS = {
    "correlations": ["correlations"],
    "correlations512": ["correlations", "--n-max", "512"],
    "spectrum": ["spectrum"],
    "bound": ["bound"],
}
#: rows with a smaller recorded smin are noise: recorded, not compared
NOISE_SMIN = 1e-6

#: description key or column -> (kind, tolerance).  "exact" compares the
#: text, "rel" and "abs" the values, "abs_n" is "abs" times the row's n,
#: and "skip" is not compared.  README's golden-record table is this one.
TOLERANCES = {
    "numpy": ("skip", None),
    **dict.fromkeys(
        ("xyness", "command", "gamma", "lambda", "beta_l", "beta_r", "beta", "delta",
         "swapped", "critical", "tol", "n_list", "eps", "fit_window", "n", "count_small"),
        ("exact", None),
    ),
    **dict.fromkeys(("weak_rate", "mu_sup", "weak_bound_log"), ("rel", 1e-14)),
    **dict.fromkeys(("theorem_rate", "limit_chi_log", "limit_square"), ("abs", 2 * LIMIT_TOL)),
    "theorem_rate_times_n": ("abs_n", 2 * LIMIT_TOL),
    **dict.fromkeys(("log_abs_C", "log_abs_det", "emp_chi_log"), ("rel", 1e-12)),
    **dict.fromkeys(("smin", "smax", "emp_square"), ("abs", 1e-12)),
    **dict.fromkeys(("gap_chi_log", "gap_square"), ("abs", 2 * LIMIT_TOL + 1e-12)),
    "fit_slope": ("abs", 1e-10),
    "pf_det_residual": ("abs", 1e-9),
}


def produce(point, run, path):
    """Run ``RUNS[run]`` at ``POINTS[point]`` with ``--out path``; its exit code and stderr."""
    gamma, lam, beta_l, beta_r = POINTS[point]
    argv = [*RUNS[run], f"--gamma={gamma}", f"--lambda={lam}", "--beta-l", beta_l,
            "--beta-r", beta_r, "--out", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def parse(text):
    """The description keys and the rows, as dicts of text, of one CLI CSV output."""
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            meta.update(token.split("=", 1) for token in line[2:].split(" "))
        else:
            body.append(line.split(","))
    return meta, [dict(zip(body[0], row)) for row in body[1:]]


def within(name, want, got, n=1):
    kind, tol = TOLERANCES[name]
    if kind == "skip":
        return True
    if kind == "exact":
        return want == got
    want, got = float(want), float(got)
    scale = {"rel": abs(want), "abs": 1.0, "abs_n": n}[kind]
    return abs(got - want) <= tol * scale


def mismatches(golden, output):
    """Every value of ``output`` off its value in ``golden`` by more than its tolerance."""
    (gmeta, grows), (meta, rows) = parse(golden), parse(output)
    found = []
    if meta.keys() != gmeta.keys():
        found.append(f"description keys {sorted(meta)} != {sorted(gmeta)}")
    if [r.get("n") for r in rows] != [r.get("n") for r in grows]:
        return found + ["the sizes differ"]
    noise = {r.get("n") for r in grows if float(r.get("smin", "inf")) < NOISE_SMIN}
    if "fit_window" in gmeta:
        lo, hi = map(int, gmeta["fit_window"].split(":"))
        if any(lo <= int(n) <= hi for n in noise):
            gmeta = {k: v for k, v in gmeta.items() if k != "fit_slope"}
    for key in gmeta.keys() & meta.keys():
        if not within(key, gmeta[key], meta[key]):
            found.append(f"{key}: {meta[key]} against {gmeta[key]}")
    for grow, row in zip(grows, rows):
        if row.keys() != grow.keys():
            found.append(f"columns {list(row)} != {list(grow)}")
            continue
        n = grow.get("n")
        for col in grow if n not in noise else ("n",):
            if not within(col, grow[col], row[col], int(n or 1)):
                found.append(f"{col} at n={n}: {row[col]} against {grow[col]}")
    return found


def exit_mismatches(golden, code, err):
    """The exit code and message against a recorded failure; a residual must stay past the gate."""
    want_code, want_err = golden.split("\n", 1)
    mask = re.compile(r"residual (\S+)")
    found = []
    if str(code) != want_code:
        found.append(f"exit code {code} against {want_code}")
    if mask.sub("residual *", err) != mask.sub("residual *", want_err):
        found.append(f"message {err!r} against {want_err!r}")
    elif any(not float(r) > 1e-6 for r in mask.findall(err)):
        found.append(f"residual within the 1e-6 gate: {err!r}")
    return found


def check(point, run, tmp_path):
    out = tmp_path / f"{point}_{run}.csv"
    code, err = produce(point, run, out)
    recorded = GOLDEN / f"{point}_{run}.exit"
    if recorded.exists():
        return exit_mismatches(recorded.read_text(), code, err)
    assert code == 0, err
    return mismatches((GOLDEN / out.name).read_text(), out.read_text())


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("point", POINTS)
def test_outputs_match_the_record(point, run, tmp_path):
    assert check(point, run, tmp_path) == []


def test_record_holds_every_run_once():
    names = sorted(p.name for p in GOLDEN.iterdir())
    stems = [name.rsplit(".", 1)[0] for name in names]
    assert sorted(stems) == sorted(f"{p}_{r}" for p in POINTS for r in RUNS), names


def test_readme_table_names_every_column():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("### Golden record") :]
    for name in TOLERANCES:
        assert f"`{name}`" in table, name


def test_moved_coefficient_block_fails(tmp_path, monkeypatch):
    # negative control: Re apm[0], the off-diagonal of a_1, moved by 1e-10,
    # a hundred times the quadrature tolerance, moves resolved rows past
    # their tolerance
    engine = xyness.fourier._coefficients

    def moved(n_max, p):
        values, err = engine(n_max, p)
        values[2 * n_max] += 1e-10
        return values, err

    monkeypatch.setattr(xyness.fourier, "_coefficients", moved)
    found = check("generic", "correlations", tmp_path)
    assert any(line.startswith("log_abs_C at n=8:") for line in found), found
