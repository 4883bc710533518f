"""Transversal correlations of the XY chain's two-reservoir steady state.

Library layout:

* :mod:`xyness.model` -- parameters, dispersion functions and the 2x2
  symbol;
* :mod:`xyness.fourier` -- block Fourier coefficients by panel quadrature;
* :mod:`xyness.toeplitz` -- truncated block Toeplitz assembly, its fold,
  the fold gathered straight from the blocks, and norm facts;
* :mod:`xyness.skewlinalg` -- log-scale determinants, Pfaffians, SVDs;
* :mod:`xyness.spectral` -- singular-value distribution diagnostics;
* :mod:`xyness.bounds` -- decay-rate bounds;
* :mod:`xyness.pipeline` -- correlation series, fits, parameter sweeps;
* :mod:`xyness.cli` -- the ``xyness`` command-line tool.
"""

from ._version import __version__
from .bounds import BoundReport, bound_report, theorem_bound, weak_rate
from .fourier import BlockSequence, breakpoints, build_block_sequence
from .model import (
    ModelParams,
    kappa,
    mu,
    mu_sup,
    phi,
    symbol_matrices,
    symbol_singular_values,
)
from .pipeline import (
    DEFAULT_N_LIST,
    CorrelationSeries,
    FitResult,
    NumericalError,
    SeriesRow,
    compute_series,
    fit_decay,
    sweep,
)
from .quadrature import QuadratureError, adaptive_panels
from .skewlinalg import (
    LogScalar,
    log_det,
    pfaffian,
    pfaffian_brute,
    singular_values,
)
from .spectral import (
    SpectralSummary,
    avram_parter_gap,
    avram_parter_limit,
    indicator_log,
)
from .toeplitz import assemble, dump_matrix, fold, folded, symbol_norm

__all__ = [
    "__version__",
    "BlockSequence",
    "BoundReport",
    "CorrelationSeries",
    "DEFAULT_N_LIST",
    "FitResult",
    "LogScalar",
    "ModelParams",
    "NumericalError",
    "QuadratureError",
    "SeriesRow",
    "SpectralSummary",
    "adaptive_panels",
    "assemble",
    "avram_parter_gap",
    "avram_parter_limit",
    "bound_report",
    "breakpoints",
    "build_block_sequence",
    "compute_series",
    "dump_matrix",
    "fit_decay",
    "fold",
    "folded",
    "indicator_log",
    "kappa",
    "log_det",
    "mu",
    "mu_sup",
    "pfaffian",
    "pfaffian_brute",
    "phi",
    "singular_values",
    "sweep",
    "symbol_matrices",
    "symbol_norm",
    "symbol_singular_values",
    "theorem_bound",
    "weak_rate",
]
