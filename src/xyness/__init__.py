"""Transversal correlations of the XY chain's two-reservoir steady state.

Library layout:

* :mod:`xyness.model` -- parameters, dispersion functions, the 2x2 symbol
  and the steady-state 2-point operator;
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
from .bounds import BoundReport, bound_report, theorem_bound, validate_weak_bound, weak_bound_log
from .fourier import BlockSequence, Component, breakpoints, build_block_sequence, fourier_coefficient
from .model import (
    ConsistencyError,
    DomainError,
    ModelParams,
    kappa,
    mu,
    mu_min,
    mu_sup,
    mu_zeros,
    phi,
    q_factor,
    symbol_matrices,
    symbol_singular_values,
    two_point_operator,
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
    count_small,
    indicator_log,
    smooth_indicator,
    square_plateau,
)
from .toeplitz import assemble, dump_matrix, fold, folded, symbol_norm

__all__ = [
    "__version__",
    "BlockSequence",
    "BoundReport",
    "Component",
    "ConsistencyError",
    "CorrelationSeries",
    "DEFAULT_N_LIST",
    "DomainError",
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
    "bound_report",
    "breakpoints",
    "build_block_sequence",
    "compute_series",
    "count_small",
    "dump_matrix",
    "fit_decay",
    "fold",
    "folded",
    "fourier_coefficient",
    "indicator_log",
    "kappa",
    "log_det",
    "mu",
    "mu_min",
    "mu_sup",
    "mu_zeros",
    "pfaffian",
    "pfaffian_brute",
    "phi",
    "q_factor",
    "singular_values",
    "smooth_indicator",
    "square_plateau",
    "sweep",
    "symbol_matrices",
    "symbol_norm",
    "symbol_singular_values",
    "theorem_bound",
    "two_point_operator",
    "validate_weak_bound",
    "weak_bound_log",
]
