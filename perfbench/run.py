"""Benchmark of the xyness command-line tool, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --record

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every iteration calls ``xyness.cli.main(argv)`` in this
process on fresh seeded parameter points, writes to a temporary file inside
the checkout, and checks the output (see ``workloads.py``).  No point repeats
within the process, so the package's process-global coefficient cache never
turns timed work into a lookup.

With ``--trace 0`` the last stdout line reports, as JSON:

* ``wall_s``: median wall time of one iteration;
* ``setup_s``: median over separate probe processes of the time from process
  start to ready (``import xyness``, LAPACK warm-up at the workload's largest
  matrix dimension, one small CLI call on a point outside the timed set);
* ``peak_rss_mb``: peak resident memory of this process over set-up and the
  first two iterations, in MiB.

With ``--trace 1`` iterations alternate untraced and traced, and the line
reports per-layer metrics of the traced ones (see ``tracer.py``), plus
``trace.overhead_s``, the traced minus the untraced median wall time.

Failed operations (points) are counted in ``failed``; ``correct`` is false if
any output check fails or, at the default seed, if the values differ from
``reference.json``.  ``--record`` rewrites that file's entry for the workload.
The line before the result records the environment, seed, per-iteration
times and every failed point with its message.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, and inherited by the set-up probes.
# One BLAS thread: on a 2-core host a second OpenBLAS thread spins between
# calls (sweep_wide used twice its wall time in CPU time), so timings followed
# the load on the other core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("XYNESS_THREADS", None)  # serial sweep

import argparse
import gc
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stderr
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracer import Tracer, layer_metrics

DEFAULT_SEED = 0
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
REFERENCE_PATH = Path(__file__).with_name("reference.json")
PROBE_PATH = Path(__file__).with_name("setup_probe.py")
#: iterations compared against (and written to) reference.json
REFERENCE_ITERATIONS = 2
#: peak RSS is read after this many iterations, so that it measures a fixed
#: amount of work although the coefficient cache grows with every point
RSS_ITERATIONS = 2


def measure_setup(workload, tmp: Path) -> list:
    """Seconds from start to "ready" of fresh probe processes."""
    samples = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(PROBE_PATH), workload.name, str(tmp / f"probe{k}.csv")]
        t0 = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or rc != 0:
            raise SystemExit(f"perfbench: set-up probe exited with {rc}")
        samples.append(elapsed)
    return samples


def call_cli(main, argv) -> tuple:
    """Exit code and stderr text of one CLI call; a crash counts as exit -1."""
    err = io.StringIO()
    with redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash fails the iteration's points
            rc = -1
            err.write(traceback.format_exc())
    return rc, err.getvalue()


def twin(point) -> tuple:
    """A distinct point next to ``point``, on which the same work takes the same time."""
    g, l, bl, br = point
    return (g, l, bl, round(br + 1e-4, 4))


def run_iterations(cli, workload, seed, seconds, trace, out, reference, iterations=None):
    """Timed iterations; with ``trace``, each untraced one is followed by a traced twin."""
    points_stream = workload.points(seed)
    seen = {wl.point_key(workload.warm_up_point)}
    log = {"walls": [], "traced": [], "spans": [], "failures": [], "wrong": [], "entries": [], "rss_kib": 0}
    attempted = 0
    step = 2 if trace else 1  # iterations per point batch
    start = perf_counter()
    k = batch = 0
    wall = 0.0
    while True:
        if iterations is not None:
            if k == iterations:
                break
        # stop before a batch that would overrun the measuring time
        elif k >= RSS_ITERATIONS and k % step == 0 and perf_counter() - start + step * wall > seconds:
            break
        traced = trace and k % 2 == 1
        points = [twin(p) for p in points] if traced else next(points_stream)
        keys = [wl.point_key(p) for p in points]
        if seen.intersection(keys) or len(set(keys)) != len(keys):
            raise SystemExit("perfbench: a parameter point repeats within the process")
        seen.update(keys)
        argv = workload.argv(points, out)
        tracer = Tracer()
        main = tracer.wrap(cli.main, "cli.main") if traced else cli.main
        gc.collect()  # garbage of earlier iterations is not this one's cost
        with tracer.installed() if traced else nullcontext():
            t0 = perf_counter()
            rc, err = call_cli(main, argv)
            wall = perf_counter() - t0
        (log["traced"] if traced else log["walls"]).append(wall)
        if traced:
            log["spans"].append(tracer.spans)

        outcome = wl.check_iteration(workload, points, rc, out, err)
        out.unlink(missing_ok=True)
        if not traced:
            if reference is not None and batch < len(reference):
                problems = wl.reference_problems(reference[batch], points, outcome)
                outcome.wrong.extend(f"reference: {p}" for p in problems)
            log["entries"].append(wl.reference_entry(points, outcome))
            batch += 1
        attempted += len(points)
        log["wrong"].extend(f"iteration {k}: {w}" for w in outcome.wrong)
        log["failures"].extend(
            {"iteration": k, "point": points[i], "error": msg} for i, msg in sorted(outcome.failed.items())
        )
        k += 1
        if k == RSS_ITERATIONS:
            log["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return attempted, log


def git_commit() -> str:
    git = wl.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import xyness

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "xyness": xyness.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "xyness_threads": "unset",
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite this workload's reference values")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    wl.require_sources()
    reference = None
    if args.record:
        args.seed, args.trace = DEFAULT_SEED, 0
    elif args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE_PATH.read_text())[workload.name]

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=wl.ROOT) as tmp:
        tmp = Path(tmp)
        setup = [] if args.trace else measure_setup(workload, tmp)
        cli = wl.import_cli()
        wl.warm_up(cli, workload, tmp / "warm-up.csv")
        attempted, log = run_iterations(
            cli, workload, args.seed, args.seconds, args.trace, tmp / "out.csv", reference,
            iterations=REFERENCE_ITERATIONS if args.record else None,
        )

    if args.record:
        recorded = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
        recorded[workload.name] = log["entries"]
        REFERENCE_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")

    if args.trace:
        metrics = layer_metrics(
            log["spans"], log["traced"], log["walls"], workload.points_per_iteration, len(workload.sizes)
        )
    else:
        metrics = {
            "wall_s": {"value": statistics.median(log["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": log["rss_kib"] / 1024, "unit": "MiB"},
        }
    failed = len(log["failures"])
    details = {
        "workload": workload.name,
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "iteration_walls_s": log["walls"],
        "traced_iteration_walls_s": log["traced"],
        "setup_samples_s": setup,
        "fail_frac": failed / attempted,
        "failures": log["failures"],
        "wrong": log["wrong"],
    }
    print(json.dumps({"perfbench": details}))
    result = {"correct": not log["wrong"], "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
