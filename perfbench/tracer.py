"""Span tracer that wraps xyness functions from outside the package.

Each wrapped function is replaced, in the module that calls it, by a wrapper
that records one span: layer name, matrix size where there is one, inclusive
time, self time (inclusive minus traced children) and whether it raised.
Wrapping happens at the names the calling modules bind (``pipeline.pfaffian``,
``spectral.assemble``, ``fourier.adaptive_panels``, ...), so no file of the
package changes.  ``model`` is not wrapped: it runs only inside quadrature
integrands, where its time belongs to ``quadrature``.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


def _block_rows(args):
    return args[0].shape[0] // 2


def _first_arg(args):
    return int(args[0])


#: (calling module, bound name, span name, size of the call or None)
BINDINGS = (
    ("cli", "compute_series", "pipeline.compute_series", None),
    ("cli", "sweep", "pipeline.sweep", None),
    ("cli", "build_block_sequence", "fourier.build_block_sequence", _first_arg),
    ("cli", "symbol_norm", "toeplitz.symbol_norm", None),
    ("cli", "avram_parter_gap", "spectral.avram_parter_gap", _first_arg),
    ("pipeline", "compute_series", "pipeline.compute_series", None),
    ("pipeline", "build_block_sequence", "fourier.build_block_sequence", _first_arg),
    ("pipeline", "assemble", "toeplitz.assemble", _first_arg),
    ("pipeline", "pfaffian", "skewlinalg.pfaffian", _block_rows),
    ("pipeline", "log_det", "skewlinalg.log_det", _block_rows),
    ("pipeline", "singular_values", "skewlinalg.singular_values", _block_rows),
    ("pipeline", "bound_report", "bounds.bound_report", None),
    ("spectral", "assemble", "toeplitz.assemble", _first_arg),
    ("spectral", "singular_values", "skewlinalg.singular_values", _block_rows),
    ("spectral", "adaptive_panels", "quadrature.adaptive_panels", None),
    ("fourier", "adaptive_panels", "quadrature.adaptive_panels", None),
    ("bounds", "adaptive_panels", "quadrature.adaptive_panels", None),
)


@dataclass(frozen=True)
class Span:
    name: str
    caller: str
    size: int | None
    busy: float
    self_time: float
    failed: bool


class Tracer:
    """Collects spans from wrapped functions; one tracer per traced iteration."""

    def __init__(self):
        self.spans = []
        self._child_time = []  # per open span: inclusive time of its children

    def wrap(self, fn, name, caller="", size_of=None):
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            failed = True
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                busy = perf_counter() - t0
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += busy
                size = size_of(args) if size_of else None
                self.spans.append(Span(name, caller, size, busy, busy - children, failed))

        return traced

    @contextmanager
    def installed(self):
        """Swap every binding for its wrapper; restore the originals on exit."""
        originals = []
        try:
            for module_name, attr, name, size_of in BINDINGS:
                module = importlib.import_module(f"xyness.{module_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, module_name, size_of))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)


# -- per-layer metrics -------------------------------------------------------

SIZES = (64, 256, 512)
BY_SIZE_LAYERS = (
    "fourier.build_block_sequence",
    "toeplitz.assemble",
    "skewlinalg.pfaffian",
    "skewlinalg.log_det",
    "skewlinalg.singular_values",
)
COMPLEX_BYTES = 16


def pfaffian_flops(n: int) -> int:
    """Real flops of the rank-2 Parlett-Reid elimination of a 2n x 2n matrix.

    Each 2x2 step updates the trailing (2n-k-2)^2 entries with two complex
    products and two complex additions (16 real flops per entry).
    """
    h = n - 1
    return 16 * 4 * h * (h + 1) * (2 * h + 1) // 6


def span_sum(spans, name, field="busy", caller=None) -> float:
    return sum(
        getattr(s, field) if field != "calls" else 1
        for s in spans
        if s.name == name and (caller is None or s.caller == caller)
    )


def layer_metrics(iterations, walls_traced, walls_untraced, ops_per_iteration, sizes_per_op) -> dict:
    """Per-layer metrics from the spans of the traced iterations.

    Counts and times are medians over iterations of per-iteration totals;
    ``.busy_s.nN`` rows are medians over calls at N block rows; rates divide
    totals over all traced iterations.  ``walls_traced[i]`` and
    ``walls_untraced[i]`` time the same work with and without tracing.
    """
    out = {}

    def med(name, field="busy", caller=None):
        return statistics.median(span_sum(spans, name, field, caller) for spans in iterations)

    def put(key, value, unit):
        out[key] = {"value": float(value), "unit": unit}

    all_spans = [s for spans in iterations for s in spans]
    fb = "fourier.build_block_sequence"
    qa = "quadrature.adaptive_panels"
    for layer, fields in (
        (fb, ("calls", "busy", "self_time")),
        (qa, ("calls", "busy")),
        ("toeplitz.assemble", ("calls", "busy")),
        ("toeplitz.symbol_norm", ("busy",)),
        ("skewlinalg.pfaffian", ("calls", "busy")),
        ("skewlinalg.log_det", ("calls", "busy")),
        ("skewlinalg.singular_values", ("calls", "busy")),
        ("spectral.avram_parter_gap", ("calls", "self_time")),
        ("bounds.bound_report", ("calls", "busy", "failed")),
        ("pipeline.compute_series", ("calls", "self_time")),
        ("pipeline.sweep", ("self_time",)),
        ("cli.main", ("self_time",)),
    ):
        for field in fields:
            suffix = {"busy": "busy_s", "self_time": "self_s"}.get(field, field)
            put(f"{layer}.{suffix}", med(layer, field), "count" if field in ("calls", "failed") else "s")

    put("fourier.coeffs", med(qa, "calls", caller="fourier"), "count")
    busy = span_sum(all_spans, fb)
    put("fourier.coeffs_per_s", span_sum(all_spans, qa, "calls", "fourier") / busy if busy else 0.0, "1/s")
    for caller in ("fourier", "bounds", "spectral"):
        put(f"quadrature.calls.{caller}", med(qa, "calls", caller=caller), "count")

    per_unit = ops_per_iteration * sizes_per_op
    for layer in ("toeplitz.assemble", "skewlinalg.singular_values"):
        put(f"{layer}.calls_per_size", med(layer, "calls") / per_unit, "count")
    put(
        "toeplitz.assemble.mb_computed",
        statistics.median(
            sum((2 * s.size) ** 2 * COMPLEX_BYTES for s in spans if s.name == "toeplitz.assemble") / 2**20
            for spans in iterations
        ),
        "MiB",
    )
    pf = [s for s in all_spans if s.name == "skewlinalg.pfaffian"]
    pf_busy = sum(s.busy for s in pf)
    put(
        "skewlinalg.pfaffian.gflop_per_s_computed",
        sum(pfaffian_flops(s.size) for s in pf) / pf_busy / 1e9 if pf_busy else 0.0,
        "GFLOP/s",
    )
    for layer in BY_SIZE_LAYERS:
        for n in SIZES:
            times = [s.busy for s in all_spans if s.name == layer and s.size == n]
            put(f"{layer}.busy_s.n{n}", statistics.median(times) if times else 0.0, "s")

    traced_wall = sum(walls_traced)
    put("trace.coverage", sum(s.self_time for s in all_spans) / traced_wall, "1")
    put("trace.overhead_s", statistics.median(t - u for t, u in zip(walls_traced, walls_untraced)), "s")
    return out

