"""Command-line surface: deterministic CSV/JSONL emitters over the pipeline.

Exit codes (stable contract): 0 success, 1 selftest failure, 2 usage error,
3 numerical failure.  Output is locale-independent: '.' decimal separator,
LF line endings, reals in 17-significant-digit scientific notation.  Repeated
runs with identical flags produce byte-identical files (no timestamps, fixed
summation orders).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy

from ._version import __version__
from .bounds import bound_report, weak_bound_log
from .fourier import build_block_sequence
from .model import ConsistencyError, ModelParams
from .pipeline import DEFAULT_N_LIST, NumericalError, compute_series, sweep
from .quadrature import QuadratureError
from .selftest import run_selftest
from .spectral import avram_parter_gap, avram_parter_limit, indicator_log, square_plateau
from .toeplitz import assemble, dump_matrix, symbol_norm

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass
class RunConfig:
    subcommand: str
    gamma: float = 0.5
    lam: float = 0.3
    beta_l: float = 1.0
    beta_r: float = 3.0
    n_max: int = 256
    n_list: list | None = None
    tol: float = 1e-12
    eps: float = 1e-3
    out_path: str = ""
    format: str = "csv"
    dump_matrices: bool = False
    points: list = field(default_factory=list)


def _fmt(x: float) -> str:
    """17 significant digits, scientific; deterministic and locale-free."""
    return f"{float(x):.16e}"


def _writer(cfg: RunConfig):
    if cfg.out_path:
        return open(cfg.out_path, "w", newline="\n")
    return sys.stdout


def _meta_lines(cfg: RunConfig, p: ModelParams, extra: dict) -> list[str]:
    lines = [
        f"# xyness={__version__} numpy={np.__version__} scipy={scipy.__version__}",
        f"# command={cfg.subcommand}",
        f"# gamma={p.gamma!r} lambda={p.lam!r} beta_l={p.beta_l!r} beta_r={p.beta_r!r}",
        f"# beta={p.beta!r} delta={p.delta!r}",
        f"# swapped={str(p.swapped).lower()} critical={str(p.critical).lower()}",
        f"# tol={cfg.tol!r}",
    ]
    lines.extend(f"# {k}={v}" for k, v in extra.items())
    return lines


def _default_n_values(n_max: int, base=DEFAULT_N_LIST) -> list[int]:
    ns = [n for n in base if n <= n_max]
    if not ns:
        ns = sorted({2**k for k in range(n_max.bit_length()) if 2**k <= n_max} | {n_max})
    if ns[-1] != n_max:
        ns.append(n_max)
    return ns


def _emit(cfg: RunConfig, meta: dict, header: list[str], rows: list[list], p: ModelParams) -> None:
    fh = _writer(cfg)
    try:
        if cfg.format == "jsonl":
            full = {
                "type": "meta",
                "xyness": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "command": cfg.subcommand,
                "gamma": p.gamma,
                "lambda": p.lam,
                "beta_l": p.beta_l,
                "beta_r": p.beta_r,
                "swapped": p.swapped,
                "critical": p.critical,
                "tol": cfg.tol,
                **meta,
            }
            fh.write(json.dumps(full, sort_keys=True) + "\n")
            for row in rows:
                obj = {"type": "row", **dict(zip(header, row))}
                fh.write(json.dumps(obj, sort_keys=True) + "\n")
        else:
            for line in _meta_lines(cfg, p, meta):
                fh.write(line + "\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(
                    ",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row)
                    + "\n"
                )
    finally:
        if fh is not sys.stdout:
            fh.close()


_SERIES_HEADER = (
    "n",
    "log_abs_C",
    "log_abs_det",
    "pf_det_residual",
    "smin",
    "smax",
    "weak_bound_log",
    "theorem_rate_times_n",
)


def _series_rows(series) -> list[list]:
    """One output row per size, in the columns of ``_SERIES_HEADER``."""
    p, rate = series.params, series.bound.theorem_rate
    return [
        [
            r.n,
            r.log_abs_C,
            r.log_abs_det,
            r.pf_det_residual,
            r.smin,
            r.smax,
            weak_bound_log(r.n, p),
            rate * r.n,
        ]
        for r in series.rows
    ]


def cmd_correlations(cfg: RunConfig) -> int:
    if cfg.dump_matrices and not cfg.out_path:
        raise ValueError("--dump-matrices requires --out")
    p = ModelParams(cfg.gamma, cfg.lam, cfg.beta_l, cfg.beta_r)
    n_list = cfg.n_list or _default_n_values(cfg.n_max)
    series = compute_series(p, n_list=n_list, tol=cfg.tol)
    meta = {
        "n_list": ",".join(str(n) for n in n_list),
        "theorem_rate": series.bound.theorem_rate,
        "weak_rate": series.bound.weak_rate,
        "mu_sup": series.bound.mu_sup,
    }
    if series.fit is not None:
        meta["fit_slope"] = series.fit.slope
        meta["fit_window"] = f"{series.fit.n_lo}:{series.fit.n_hi}"
    _emit(cfg, meta, list(_SERIES_HEADER), _series_rows(series), p)
    if cfg.dump_matrices:
        for n in n_list:
            dump_matrix(assemble(n, series.sequence), f"{cfg.out_path}.omega{n:04d}.bin")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig) -> int:
    p = ModelParams(cfg.gamma, cfg.lam, cfg.beta_l, cfg.beta_r)
    n_list = cfg.n_list or _default_n_values(cfg.n_max, base=(64, 128, 256, 512))
    seq = build_block_sequence(max(n_list), p, cfg.tol)
    ceiling = symbol_norm(p)
    g_log = indicator_log(cfg.eps, ceiling)
    g_sq = square_plateau(max(1.0, ceiling))
    header = [
        "n",
        "smin",
        "smax",
        "count_small",
        "emp_chi_log",
        "limit_chi_log",
        "gap_chi_log",
        "emp_square",
        "limit_square",
        "gap_square",
    ]
    limit_square = avram_parter_limit(g_sq, p)
    rows = []
    for n in n_list:
        s_log = avram_parter_gap(n, g_log, seq, p, eps=cfg.eps)
        emp_square = float(np.mean(g_sq(s_log.values)))
        rows.append(
            [
                n,
                float(s_log.values[0]),
                float(s_log.values[-1]),
                s_log.count_small,
                s_log.empirical_mean,
                s_log.limit_value,
                s_log.gap,
                emp_square,
                limit_square,
                abs(emp_square - limit_square),
            ]
        )
    meta = {"n_list": ",".join(str(n) for n in n_list), "eps": cfg.eps}
    _emit(cfg, meta, header, rows, p)
    return EXIT_OK


def cmd_bound(cfg: RunConfig) -> int:
    p = ModelParams(cfg.gamma, cfg.lam, cfg.beta_l, cfg.beta_r)
    rep = bound_report(p, tol=1e-9)
    print(f"theorem_rate = {_fmt(rep.theorem_rate)}")
    print(f"weak_rate    = {_fmt(rep.weak_rate)}  (per unit n, on log|det|)")
    print(f"mu_sup       = {_fmt(rep.mu_sup)}")
    print(f"critical     = {str(rep.critical).lower()}")
    if p.delta == 0.0:
        print("equilibrium  = true  (equal reservoir temperatures)")
    if cfg.out_path:
        header = ["theorem_rate", "weak_rate", "mu_sup", "critical"]
        rows = [[rep.theorem_rate, rep.weak_rate, rep.mu_sup, int(rep.critical)]]
        _emit(cfg, {}, header, rows, p)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.points:
        grid = [ModelParams(*pt) for pt in cfg.points]
    else:
        grid = [ModelParams(cfg.gamma, cfg.lam, cfg.beta_l, cfg.beta_r)]
    n_list = cfg.n_list or _default_n_values(cfg.n_max)
    results = sweep(grid, n_list=n_list, tol=cfg.tol)
    header = ["point", "gamma", "lambda", "beta_l", "beta_r", *_SERIES_HEADER]
    rows = []
    failures = {}
    for i, series in enumerate(results):
        q = series.params
        if "error" in series.metadata:
            failures[i] = series.metadata["error"]
            continue
        rows.extend([i, q.gamma, q.lam, q.beta_l, q.beta_r, *row] for row in _series_rows(series))
    meta = {
        "points": len(grid),
        "n_list": ",".join(str(n) for n in n_list),
    }
    for i, msg in failures.items():
        meta[f"point_{i}_error"] = msg
    _emit(cfg, meta, header, rows, grid[0])
    return EXIT_OK


def cmd_selftest(cfg: RunConfig) -> int:
    results = run_selftest(verbose=True)
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_SELFTEST


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected GAMMA,LAMBDA,BETA_L,BETA_R, got {text!r}"
        )
    try:
        return tuple(float(v) for v in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_n_list(text: str):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xyness",
        description="Steady-state XY chain correlations via Pfaffians of block Toeplitz truncations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, n_max_default=256):
        sp.add_argument("--gamma", type=float, default=0.5, help="anisotropy, |gamma| < 1")
        sp.add_argument("--lambda", dest="lam", type=float, default=0.3, help="magnetic field")
        sp.add_argument("--beta-l", type=float, default=1.0, help="left inverse temperature")
        sp.add_argument("--beta-r", type=float, default=3.0, help="right inverse temperature")
        sp.add_argument("--n-max", type=int, default=n_max_default, help="largest truncation size")
        sp.add_argument("--n-list", type=_parse_n_list, default=None, help="explicit sizes, comma-separated")
        sp.add_argument("--tol", type=float, default=1e-12, help="coefficient quadrature tolerance")
        sp.add_argument("--eps", type=float, default=1e-3, help="small singular-value threshold")
        sp.add_argument("--out", dest="out_path", default="", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
        sp.add_argument("--dump-matrices", action="store_true", help="write raw truncation dumps next to --out")

    add_common(sub.add_parser("correlations", help="log|C(n)| series with bounds"))
    add_common(sub.add_parser("spectrum", help="singular-value distribution diagnostics"), n_max_default=512)
    add_common(sub.add_parser("bound", help="decay-rate bound report"))
    sp = sub.add_parser("sweep", help="independent series over parameter points")
    add_common(sp)
    sp.add_argument(
        "--point",
        dest="points",
        action="append",
        type=_parse_point,
        default=[],
        metavar="G,L,BL,BR",
        help="parameter point; repeatable",
    )
    add_common(sub.add_parser("selftest", help="run the built-in invariant suite"))

    return parser


_COMMANDS = {
    "correlations": cmd_correlations,
    "spectrum": cmd_spectrum,
    "bound": cmd_bound,
    "sweep": cmd_sweep,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        subcommand=args.subcommand,
        gamma=args.gamma,
        lam=args.lam,
        beta_l=args.beta_l,
        beta_r=args.beta_r,
        n_max=args.n_max,
        n_list=args.n_list,
        tol=args.tol,
        eps=args.eps,
        out_path=args.out_path,
        format=args.format,
        dump_matrices=args.dump_matrices,
        points=getattr(args, "points", []),
    )
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuadratureError, NumericalError, ConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
