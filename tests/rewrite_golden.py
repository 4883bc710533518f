"""Rewrite the golden record of ``tests/test_golden.py`` from the current code.

Run from the repository root as ``PYTHONPATH=src python tests/rewrite_golden.py``,
with OPENBLAS_NUM_THREADS=1 so the bytes match the other byte checks.  Each
run writes ``tests/golden/<point>_<run>.csv``, or ``<point>_<run>.exit``
(the exit code, then the message) when it fails.  Commit the files with the
change that moved them.
"""

from test_golden import GOLDEN, POINTS, RUNS, produce


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for point in POINTS:
        for run in RUNS:
            out = GOLDEN / f"{point}_{run}.csv"
            code, err = produce(point, run, out)
            if code != 0:
                out.unlink(missing_ok=True)
                out.with_suffix(".exit").write_text(f"{code}\n{err}")
            print(f"{out.stem}: exit {code}")


if __name__ == "__main__":
    main()
