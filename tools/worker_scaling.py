"""In-process diagnose-wide job time and memory at 1 worker and 2, by paths.

    PYTHONPATH=src python3 tools/worker_scaling.py
        [--paths 10000 20000 40000] [--runs 5]

Prepares the `diagnose-wide` workload of `perfbench/workloads.py` at
seed 1 in a temporary directory and runs its setups once.  Then, for
each path count, it runs the workload's job through `colmm.cli.main`
with its `--paths` replaced, alternating `COLMM_WORKERS` 1 and 2,
`--runs` times each after one untimed run of each, and then once more
each, untimed, under `tracemalloc`.  It prints, per path count, the
median wall seconds at 1 and 2 workers, the speedup, median(1) /
median(2), and the traced peak MB of the job at 1 and 2 workers: what
numpy and Python allocated at most at once, the job's inputs and outputs
included.  One BLAS thread is pinned, as the benchmark pins it.  colmm
is imported from PYTHONPATH, else from this checkout's `src/`.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD, SEED, WORKERS = "diagnose-wide", 1, (1, 2)


def with_paths(steps: list[list[str]], n_paths: int) -> list[list[str]]:
    """The job's CLI calls with every `--paths` value set to n_paths."""
    return [[str(n_paths) if i and argv[i - 1] == "--paths" else arg
             for i, arg in enumerate(argv)] for argv in steps]


def job_seconds(cli, steps: list[list[str]], workers: int) -> float:
    """Wall seconds of one run of the steps at the given worker count."""
    os.environ["COLMM_WORKERS"] = str(workers)
    t0 = perf_counter()
    for argv in steps:
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code not in (0, 4):      # 4: a diagnose row failed its limit
            raise SystemExit(f"error: {' '.join(argv[:1])} exited {code}")
    return perf_counter() - t0


def traced_peak_mb(cli, steps: list[list[str]], workers: int) -> float:
    """Traced peak MB of one run of the steps at the given worker count."""
    tracemalloc.start()
    try:
        job_seconds(cli, steps, workers)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--paths", type=int, nargs="+",
                        default=[10_000, 20_000, 40_000])
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.append(str(ROOT / "src"))

    from colmm import cli
    from workloads import WORKLOADS

    print(f"colmm from {cli.__file__}", file=sys.stderr)
    print(f"{WORKLOAD} seed={SEED}: median of {args.runs} runs "
          f"at COLMM_WORKERS={WORKERS[0]} and {WORKERS[1]}")
    print(f"{'paths':>8} {'1 worker s':>11} {f'{WORKERS[1]} workers s':>12} "
          f"{'speedup':>8} {'1 worker MB':>12} "
          f"{f'{WORKERS[1]} workers MB':>13}")
    saved = os.environ.get("COLMM_WORKERS")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            setups, jobs = WORKLOADS[WORKLOAD].prepare(Path(tmp), SEED)
            for job in setups:
                for step in job.steps:
                    with redirect_stdout(io.StringIO()):
                        cli.main(step)
            for n_paths in args.paths:
                steps = with_paths(jobs[0].steps, n_paths)
                times = {w: [] for w in WORKERS}
                for run in range(args.runs + 1):
                    for w in WORKERS:
                        t = job_seconds(cli, steps, w)
                        if run:             # the first run of each is warm-up
                            times[w].append(t)
                one, many = (statistics.median(times[w]) for w in WORKERS)
                peak_one, peak_many = (traced_peak_mb(cli, steps, w)
                                       for w in WORKERS)
                print(f"{n_paths:>8} {one:>11.4f} {many:>12.4f} "
                      f"{one / many:>8.2f} {peak_one:>12.1f} "
                      f"{peak_many:>13.1f}")
    finally:
        if saved is None:
            os.environ.pop("COLMM_WORKERS", None)
        else:
            os.environ["COLMM_WORKERS"] = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
