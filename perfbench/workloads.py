"""Workloads of the xyness benchmark: seeded inputs, CLI argv and output checks.

A workload iteration is one ``xyness.cli.main(argv)`` call on fresh parameter
points.  One operation is one parameter point submitted; it fails when the
call exits non-zero, when the output names an error for that point, or when
any check on that point's output fails.

``series_deep`` and ``spectrum`` are the workloads BENCHMARK.json lists.
``sweep_wide`` (coefficient quadrature dominates) and ``critical_line`` (the
graded rate integral dominates; some of its points fail at this version) run
on request only: the first spread too widely between runs on a shared 2-core
host, and the second has failing operations.

This module imports neither numpy nor xyness at import time: the set-up
probe times those imports.
"""

from __future__ import annotations

import math
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the CLI default size list at --n-max 512 (DEFAULT_N_LIST plus 512)
SERIES_SIZES = (8, 16, 32, 64, 96, 128, 160, 192, 224, 256, 512)
SPECTRUM_SIZES = (64, 128, 256, 512)
SWEEP_SIZES = (8, 16, 32, 64)

#: warm-up points, outside the timed set: run.py rejects a generated point
#: that repeats one of these or an earlier point
WARM_UP_GENERIC = (0.5, 0.3, 1.0, 3.0)
WARM_UP_CRITICAL = (0.0, 0.5, 1.0, 3.0)
WARM_UP_N_MAX = 16

# gates of the CLI and the acceptance suite, re-checked on the output
PF_DET_RESIDUAL_MAX = 1e-6
WEAK_BOUND_SLACK = 1e-8
SLOPE_MARGIN = 0.01
GAP_512_MAX = 1e-2
SERIES_FIT_WINDOW = "128:512"


def generic_point(rng: random.Random) -> tuple:
    """Non-critical point: |gamma| in [0.2, 0.9], | |lambda| - 1 | >= 0.1."""
    gamma = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.9)
    lam = rng.choice((-1.0, 1.0)) * rng.choice((rng.uniform(0.0, 0.9), rng.uniform(1.1, 1.8)))
    return _rounded(gamma, lam, rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))


def critical_point(rng: random.Random) -> tuple:
    """Critical point on the gamma = 0 line with |lambda| < 0.95."""
    return _rounded(0.0, rng.uniform(-0.95, 0.95), rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0))


def _rounded(*values) -> tuple:
    return tuple(round(v, 4) + 0.0 for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    n_max: int
    points_per_iteration: int
    sizes: tuple
    make_point: object
    warm_up_point: tuple

    def points(self, seed: int):
        """Endless stream of point batches, one batch per iteration."""
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield [self.make_point(rng) for _ in range(self.points_per_iteration)]

    def argv(self, points, out_path, n_max=None) -> list:
        args = [self.subcommand, "--n-max", str(n_max or self.n_max), "--out", str(out_path)]
        if self.subcommand == "sweep":
            return args + [f"--point={g!r},{l!r},{bl!r},{br!r}" for g, l, bl, br in points]
        (g, l, bl, br), = points
        return args + [f"--gamma={g!r}", f"--lambda={l!r}", f"--beta-l={bl!r}", f"--beta-r={br!r}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("series_deep", "correlations", 512, 1, SERIES_SIZES, generic_point, WARM_UP_GENERIC),
        Workload("sweep_wide", "sweep", 64, 24, SWEEP_SIZES, generic_point, WARM_UP_GENERIC),
        Workload("spectrum", "spectrum", 512, 1, SPECTRUM_SIZES, generic_point, WARM_UP_GENERIC),
        Workload("critical_line", "sweep", 64, 8, SWEEP_SIZES, critical_point, WARM_UP_CRITICAL),
    )
}


def point_key(point) -> tuple:
    """Cache identity of a point: the CLI orders the two temperatures."""
    g, l, bl, br = point
    return (g, l, min(bl, br), max(bl, br))


def require_sources() -> None:
    if not (SRC / "xyness" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no xyness sources under {SRC}")


def import_cli():
    """Import ``xyness.cli`` from this checkout's ``src`` and nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import xyness.cli

    if Path(xyness.cli.__file__).resolve().parent != SRC / "xyness":
        raise SystemExit(f"perfbench: imported xyness from {xyness.cli.__file__}, not {SRC}")
    return xyness.cli


def warm_up(cli, workload: Workload, out_path) -> None:
    """Warm BLAS/LAPACK at the workload's largest dimension, then the CLI path.

    The CLI call uses a point the timed iterations never submit, at a small
    size, so it fills no cache entry a timed iteration could hit.
    """
    import numpy as np

    dim = 2 * workload.n_max  # the largest matrix an iteration factorizes
    rng = np.random.default_rng(dim)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    np.linalg.svd(m, compute_uv=False)
    np.linalg.slogdet(m)
    rc = cli.main(workload.argv([workload.warm_up_point], out_path, n_max=WARM_UP_N_MAX))
    if rc != 0:
        raise SystemExit(f"perfbench: warm-up call exited with {rc}")


# -- output parsing and checks ------------------------------------------------

_PAIRS = re.compile(r"\w+=\S+( \w+=\S+)*")


def read_output(path) -> tuple:
    """(meta dict, column names, rows of floats) of a CLI CSV file."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                body = line[2:]
                pairs = body.split(" ") if _PAIRS.fullmatch(body) else [body]
                meta.update(pair.partition("=")[::2] for pair in pairs)
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, header or [], rows


@dataclass
class Outcome:
    """Checked result of one iteration."""

    failed: dict  # point index -> message, for failed operations
    wrong: list  # failed output checks (each also fails its point)
    rows: dict  # point index -> list of rows, for reference comparison
    header: list


def check_iteration(workload: Workload, points, rc, out_path, err_text) -> Outcome:
    """Check one iteration's exit code and output file against every gate."""
    outcome = Outcome(failed={}, wrong=[], rows={}, header=[])
    if rc != 0:
        for i in range(len(points)):
            outcome.failed[i] = f"exit code {rc}: {err_text.strip()}"
        return outcome
    meta, header, rows = read_output(out_path)
    outcome.header = header
    col = {name: k for k, name in enumerate(header)}

    def wrong(i, message):
        outcome.wrong.append(f"point {i} {points[i]}: {message}")
        outcome.failed.setdefault(i, message)

    if workload.subcommand == "sweep":
        if meta.get("points") != str(len(points)):
            wrong(0, f"output reports {meta.get('points')} points, submitted {len(points)}")
        for i, point in enumerate(points):
            error = meta.get(f"point_{i}_error")
            mine = [r for r in rows if int(r[col["point"]]) == i]
            if error is not None:
                outcome.failed[i] = error
                if mine:
                    wrong(i, "rows present for a failed point")
                continue
            outcome.rows[i] = mine
            echoed = [mine[0][col[c]] for c in ("gamma", "lambda", "beta_l", "beta_r")] if mine else None
            if echoed and point_key(echoed) != point_key(point):
                wrong(i, f"output echoes point {echoed}")
            for message in _series_problems(workload, point, mine, col):
                wrong(i, message)
    elif workload.subcommand == "correlations":
        outcome.rows[0] = rows
        for message in _series_problems(workload, points[0], rows, col):
            wrong(0, message)
        if meta.get("fit_window") != SERIES_FIT_WINDOW:
            wrong(0, f"fit window {meta.get('fit_window')} != {SERIES_FIT_WINDOW}")
        slope, rate = float(meta.get("fit_slope", "nan")), float(meta.get("theorem_rate", "nan"))
        if not slope <= rate + SLOPE_MARGIN:
            wrong(0, f"fit slope {slope!r} exceeds theorem rate {rate!r} + {SLOPE_MARGIN}")
    else:
        outcome.rows[0] = rows
        for message in _spectrum_problems(workload, rows, col):
            wrong(0, message)
    return outcome


def _sizes_and_finite(workload, rows, col) -> list:
    problems = []
    ns = tuple(int(r[col["n"]]) for r in rows)
    if ns != workload.sizes:
        problems.append(f"sizes {ns} != {workload.sizes}")
    if not all(math.isfinite(v) for r in rows for v in r):
        problems.append("non-finite value in output")
    return problems


def _series_problems(workload, point, rows, col) -> list:
    problems = _sizes_and_finite(workload, rows, col)
    # all-n bound recomputed here: 2n log tanh(beta_r mu_sup / 2), mu_sup = 1 + |lambda|
    weak_rate = 2.0 * math.log(math.tanh(0.5 * max(point[2], point[3]) * (1.0 + abs(point[1]))))
    for r in rows:
        n = int(r[col["n"]])
        if not r[col["pf_det_residual"]] <= PF_DET_RESIDUAL_MAX:
            problems.append(f"n={n}: Pf/det residual {r[col['pf_det_residual']]!r}")
        if not math.isclose(r[col["weak_bound_log"]], n * weak_rate, rel_tol=1e-12):
            problems.append(f"n={n}: weak bound {r[col['weak_bound_log']]!r} != {n * weak_rate!r}")
        if not r[col["log_abs_det"]] <= n * weak_rate + WEAK_BOUND_SLACK:
            problems.append(f"n={n}: log|det| {r[col['log_abs_det']]!r} above the weak bound")
    return problems


def _spectrum_problems(workload, rows, col) -> list:
    problems = _sizes_and_finite(workload, rows, col)
    if problems:
        return problems
    gap = {int(r[col["n"]]): r[col["gap_square"]] for r in rows}
    if not gap[512] <= gap[64]:
        problems.append(f"gap(512) {gap[512]!r} > gap(64) {gap[64]!r}")
    if not gap[512] <= GAP_512_MAX:
        problems.append(f"gap(512) {gap[512]!r} > {GAP_512_MAX}")
    return problems


# -- reference values at the default seed ----------------------------------

#: the pf/det residual is rounding noise and is gated, not compared
UNCOMPARED_COLUMNS = ("pf_det_residual",)
REFERENCE_TOL = 1e-10


def reference_entry(points, outcome: Outcome) -> dict:
    keep = [k for k, name in enumerate(outcome.header) if name not in UNCOMPARED_COLUMNS]
    return {
        "points": [list(p) for p in points],
        "columns": [outcome.header[k] for k in keep],
        "failed_points": sorted(outcome.failed),
        "rows": {str(i): [[r[k] for k in keep] for r in rows] for i, rows in sorted(outcome.rows.items())},
    }


def reference_problems(entry: dict, points, outcome: Outcome) -> list:
    """Differences from the recorded values, each beyond REFERENCE_TOL relative + absolute."""
    if entry["points"] != [list(p) for p in points]:
        return ["generated points differ from the recorded ones"]
    if entry["failed_points"] != sorted(outcome.failed):
        return [f"failed points {sorted(outcome.failed)} != recorded {entry['failed_points']}"]
    got = reference_entry(points, outcome)
    if got["columns"] != entry["columns"] or got["rows"].keys() != entry["rows"].keys():
        return ["output layout differs from the recorded one"]
    problems = []
    for i, ref_rows in entry["rows"].items():
        rows = got["rows"][i]
        if len(rows) != len(ref_rows):
            problems.append(f"point {i}: {len(rows)} rows, recorded {len(ref_rows)}")
            continue
        for row, ref in zip(rows, ref_rows):
            for name, a, b in zip(entry["columns"], row, ref):
                if not (a == b or abs(a - b) <= REFERENCE_TOL * (1.0 + abs(b))):
                    problems.append(f"point {i} n={row[entry['columns'].index('n')]:g}: {name} {a!r} != recorded {b!r}")
    return problems
