"""Command-line surface: one deterministic CSV emitter over the pipeline.

Exit codes (stable contract): 0 success, 1 selftest failure, 2 usage error
or unwritable output path, 3 numerical failure, LAPACK's included.  ``--out``
is opened before any computing; a run that fails removes it if it is a
regular file.  Output is locale-independent: '.' decimal separator, LF line
endings, reals in 17-significant-digit scientific notation.  Repeated runs
with identical flags and the same BLAS thread count produce byte-identical
files (no timestamps, fixed summation orders).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

import numpy as np

from ._version import __version__
from .bounds import bound_report
from .fourier import COEFF_TOL, build_block_sequence
from .model import ModelParams, mu_sup
from .pipeline import DEFAULT_N_LIST, NumericalError, check_sizes, compute_series, sweep
from .quadrature import QuadratureError
from .selftest import run_selftest
from .spectral import LIMIT_TOL, avram_parter_gap, avram_parter_limit, indicator_log
from .toeplitz import assemble, dump_matrix
from .toeplitz import symbol_norm  # noqa: F401 (perfbench/tracer.py wraps this binding)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

#: the small singular-value threshold of ``spectrum``: the edge of the
#: indicator in ``chi_log`` and the bound of ``count_small``
SPECTRUM_EPS = 1e-3


def _fmt(x: float) -> str:
    """17 significant digits, scientific; deterministic and locale-free."""
    return f"{float(x):.16e}"


def _text(v) -> str:
    """A description value: a bool as true or false; else str, repr for a float."""
    return str(v).lower() if isinstance(v, bool) else str(v)


def _default_n_values(n_max: int, base=DEFAULT_N_LIST) -> list[int]:
    ns = [n for n in base if n <= n_max]
    if not ns:
        ns = sorted({2**k for k in range(n_max.bit_length()) if 2**k <= n_max} | {n_max})
    if ns[-1] != n_max:
        ns.append(n_max)
    return ns


def _emit(args, meta: dict, header: list[str], rows: list[list], p: ModelParams | None = None) -> None:
    """Write the run description, then ``header`` and ``rows``, as CSV to ``args.out``.

    Each key group describes the run on one ``# k=v`` line: the versions,
    the command, three groups for the point ``p`` if the run has one point,
    then one per ``meta`` key, led by ``tol``, the quadrature tolerance.
    """
    groups = [{"xyness": __version__, "numpy": np.__version__}, {"command": args.subcommand}]
    if p is not None:
        groups += [
            {"gamma": p.gamma, "lambda": p.lam, "beta_l": p.beta_l, "beta_r": p.beta_r},
            {"beta": p.beta, "delta": p.delta},
            {"swapped": p.swapped, "critical": p.critical},
        ]
    groups += ({k: v} for k, v in meta.items())
    lines = [
        *("# " + " ".join(f"{k}={_text(v)}" for k, v in g.items()) for g in groups),
        ",".join(header),
        *(",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row) for row in rows),
    ]
    args.out.write("".join(line + "\n" for line in lines))


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
    weak, rate = series.bound.weak_rate, series.bound.theorem_rate
    return [
        [
            r.n,
            r.log_abs_C,
            2.0 * r.log_abs_C,
            r.pf_det_residual,
            r.smin,
            r.smax,
            r.n * weak,
            rate * r.n,
        ]
        for r in series.rows
    ]


def cmd_correlations(args) -> int:
    if args.dump_matrices and not args.out_path:
        raise ValueError("--dump-matrices requires --out")
    p = ModelParams(args.gamma, args.lam, args.beta_l, args.beta_r)
    n_list = args.n_list or _default_n_values(args.n_max)
    series = compute_series(p, n_list=n_list)
    meta = {
        "tol": COEFF_TOL,
        "n_list": ",".join(str(n) for n in n_list),
        "theorem_rate": series.bound.theorem_rate,
        "weak_rate": series.bound.weak_rate,
        "mu_sup": mu_sup(p),
    }
    if series.fit is not None:
        meta["fit_slope"] = series.fit.slope
        meta["fit_window"] = f"{series.fit.n_lo}:{series.fit.n_hi}"
    _emit(args, meta, list(_SERIES_HEADER), _series_rows(series), p)
    if args.dump_matrices:
        # every size is a leading corner of the largest truncation
        omega = assemble(max(n_list), series.sequence)
        for n in n_list:
            dump_matrix(omega[: 2 * n, : 2 * n], f"{args.out_path}.omega{n:04d}.bin")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    p = ModelParams(args.gamma, args.lam, args.beta_l, args.beta_r)
    n_list = args.n_list or _default_n_values(args.n_max, base=(64, 128, 256, 512))
    n_list = check_sizes(n_list)
    g_log = indicator_log(SPECTRUM_EPS)
    seq = build_block_sequence(max(n_list), p)
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
    limit_square = avram_parter_limit(np.square, p)
    limit_log = avram_parter_limit(g_log, p)
    rows = []
    for n in n_list:
        s_log = avram_parter_gap(n, g_log, seq, limit_log)
        emp_square = float(np.mean(np.square(s_log.values)))
        rows.append(
            [
                n,
                float(s_log.values[0]),
                float(s_log.values[-1]),
                int(np.count_nonzero(s_log.values <= SPECTRUM_EPS)),
                s_log.empirical_mean,
                limit_log,
                s_log.gap,
                emp_square,
                limit_square,
                abs(emp_square - limit_square),
            ]
        )
    meta = {"tol": COEFF_TOL, "n_list": ",".join(str(n) for n in n_list), "eps": SPECTRUM_EPS}
    _emit(args, meta, header, rows, p)
    return EXIT_OK


def cmd_bound(args) -> int:
    p = ModelParams(args.gamma, args.lam, args.beta_l, args.beta_r)
    rep = bound_report(p)
    header = ["theorem_rate", "weak_rate", "mu_sup", "critical"]
    rows = [[rep.theorem_rate, rep.weak_rate, mu_sup(p), int(p.critical)]]
    _emit(args, {"tol": LIMIT_TOL}, header, rows, p)
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = [ModelParams(*pt) for pt in args.points]
    n_list = args.n_list or _default_n_values(args.n_max)
    results = sweep(grid, n_list=n_list)
    header = ["point", "gamma", "lambda", "beta_l", "beta_r", *_SERIES_HEADER]
    rows = []
    meta = {
        "tol": COEFF_TOL,
        "points": len(grid),
        "n_list": ",".join(str(n) for n in n_list),
    }
    for i, series in enumerate(results):
        q = series.params
        # each row carries its point with the temperatures in order, so the
        # description says which points were given swapped and which are critical
        meta[f"point_{i}_swapped"] = q.swapped
        meta[f"point_{i}_critical"] = q.critical
        if series.error is not None:
            meta[f"point_{i}_error"] = series.error
            continue
        rows.extend([i, q.gamma, q.lam, q.beta_l, q.beta_r, *row] for row in _series_rows(series))
    _emit(args, meta, header, rows)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = run_selftest()
    for r in results:
        print(f"[{'PASS' if r.ok else 'FAIL'}] {r.name:<28s} {r.detail}")
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
    """The ``xyness`` parser; each subcommand accepts only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="xyness",
        description="Steady-state XY chain correlations via Pfaffians of block Toeplitz truncations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_point(sp):
        sp.add_argument("--gamma", type=float, default=0.5, help="anisotropy, |gamma| < 1")
        sp.add_argument("--lambda", dest="lam", type=float, default=0.3, help="magnetic field")
        sp.add_argument("--beta-l", type=float, default=1.0, help="left inverse temperature")
        sp.add_argument("--beta-r", type=float, default=3.0, help="right inverse temperature")

    def add_sizes(sp, n_max_default=256):
        sizes = sp.add_mutually_exclusive_group()
        # a str default is parsed only if the flag is absent: "--n-max 256" still conflicts
        sizes.add_argument("--n-max", type=int, default=str(n_max_default), help="largest truncation size")
        sizes.add_argument("--n-list", type=_parse_n_list, default=None, help="explicit sizes, comma-separated")

    def add_output(sp):
        sp.add_argument("--out", dest="out_path", default="", help="CSV output path (default: stdout)")

    sp = sub.add_parser("correlations", help="log|C(n)| series with bounds")
    add_point(sp)
    add_sizes(sp)
    add_output(sp)
    sp.add_argument("--dump-matrices", action="store_true", help="write raw truncation dumps next to --out")

    sp = sub.add_parser("spectrum", help="singular-value distribution diagnostics")
    add_point(sp)
    add_sizes(sp, n_max_default=512)
    add_output(sp)

    sp = sub.add_parser("bound", help="decay-rate bound report")
    add_point(sp)
    add_output(sp)

    sp = sub.add_parser("sweep", help="independent series over parameter points")
    add_sizes(sp)
    add_output(sp)
    sp.add_argument(
        "--point",
        dest="points",
        action="append",
        type=_parse_point,
        required=True,
        metavar="G,L,BL,BR",
        help="parameter point; repeatable",
    )

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


_COMMANDS = {
    "correlations": cmd_correlations,
    "spectrum": cmd_spectrum,
    "bound": cmd_bound,
    "sweep": cmd_sweep,
    "selftest": cmd_selftest,
}


def _run(args) -> int:
    """Run the subcommand with ``args.out`` open; a failed run removes ``--out``."""
    path = getattr(args, "out_path", "")
    # opened before any computing, so a path open() rejects fails at once
    with open(path, "w", newline="\n") if path else nullcontext(sys.stdout) as args.out:
        try:
            return _COMMANDS[args.subcommand](args)
        except BaseException:
            if path:
                args.out.close()
                # what the run wrote goes, never a device or a symlink
                if os.path.isfile(path) and not os.path.islink(path):
                    os.remove(path)
            raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    # LinAlgError subclasses ValueError, so the numerical clause comes first
    except (QuadratureError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
