"""In-process diagnose-wide job time and memory by worker count, grid and paths.

    PYTHONPATH=src python3 tools/worker_scaling.py [--buckets 40 160]
        [--paths 10000 20000 40000] [--runs 5] [--workers 1 2]

For each bucket count of `--buckets` (the workload's own 40 by default),
prepares the `diagnose-wide` workload of `perfbench/workloads.py` at
seed 1 on a grid of that many buckets, in a temporary directory, and runs
its setups once; the count is set in-process, in the imported workloads
module, and put back afterwards.  Then, for each path count, it runs the
workload's job through `colmm.cli.main` with its `--paths` replaced,
alternating the `COLMM_WORKERS` counts of `--workers` (1 and 2 by
default), `--runs` times each after one untimed run of each, and then
once more each, untimed, under `tracemalloc`.  It prints, per bucket
count and path count, the median wall seconds at each worker count and
next to it the median CPU seconds of the blocks, `engine._simulate_block`
calls each timed with `time.thread_time` on its own thread and summed
over the job, so that CPU spent beyond the work shows; then the speedup,
the first count's median over the last one's, and the traced peak MB of
the job at each count: what numpy and Python allocated at most at once,
the job's inputs and outputs included.  One BLAS thread is
pinned, as the benchmark pins it.  colmm is imported from PYTHONPATH,
else from this checkout's `src/`.
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
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD, SEED = "diagnose-wide", 1


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


def measure(cli, engine, steps: list[list[str]], workers: list[int],
            runs: int) -> list[str]:
    """One row's cells: median seconds and median block CPU seconds per
    worker count, the speedup and the traced peak MB per worker count."""
    times = {w: [] for w in workers}
    cpus = {w: [] for w in workers}
    block_cpu, simulate_block = [], engine._simulate_block

    def timed_block(*args):
        t0 = thread_time()
        try:
            simulate_block(*args)
        finally:
            block_cpu.append(thread_time() - t0)

    engine._simulate_block = timed_block
    try:
        for run in range(runs + 1):
            for w in workers:
                block_cpu.clear()
                t = job_seconds(cli, steps, w)
                if run:             # the first run of each is warm-up
                    times[w].append(t)
                    cpus[w].append(sum(block_cpu))
    finally:
        engine._simulate_block = simulate_block
    medians = [statistics.median(times[w]) for w in workers]
    peaks = [traced_peak_mb(cli, steps, w) for w in workers]
    # Seconds to 6 decimals: rounded to 4, two 5-ms medians could have a
    # ratio 0.02 off the speedup, which is taken from the unrounded ones.
    return ([f"{t:.6f}" for w, wall in zip(workers, medians)
             for t in (wall, statistics.median(cpus[w]))]
            + [f"{medians[0] / medians[-1]:.2f}"]
            + [f"{mb:.1f}" for mb in peaks])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--buckets", type=int, nargs="+", default=[40])
    parser.add_argument("--paths", type=int, nargs="+",
                        default=[10_000, 20_000, 40_000])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    workers = args.workers
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.append(str(ROOT / "src"))

    import workloads
    from colmm import cli, engine

    print(f"colmm from {cli.__file__}", file=sys.stderr)
    *rest, last = workers
    counts = f"{', '.join(map(str, rest))} and {last}" if rest else str(last)
    print(f"{WORKLOAD} seed={SEED}: median of {args.runs} runs "
          f"at COLMM_WORKERS={counts}")
    # Each column is one wider than its label.
    labels = ([f"{w} worker{'s' * (w > 1)} {unit}" for w in workers
               for unit in ("s", "cpu s")] + ["speedup"]
              + [f"{w} worker{'s' * (w > 1)} MB" for w in workers])
    print(f"{'buckets':>7}", f"{'paths':>8}",
          *(f"{label:>{len(label) + 1}}" for label in labels))
    saved = os.environ.get("COLMM_WORKERS")
    saved_buckets = workloads.DIAGNOSE_BUCKETS
    try:
        for n_buckets in args.buckets:
            workloads.DIAGNOSE_BUCKETS = n_buckets
            with tempfile.TemporaryDirectory() as tmp:
                setups, jobs = workloads.WORKLOADS[WORKLOAD].prepare(
                    Path(tmp), SEED)
                for job in setups:
                    for step in job.steps:
                        with redirect_stdout(io.StringIO()):
                            cli.main(step)
                for n_paths in args.paths:
                    cells = measure(cli, engine,
                                    with_paths(jobs[0].steps, n_paths),
                                    workers, args.runs)
                    print(f"{n_buckets:>7}", f"{n_paths:>8}",
                          *(f"{cell:>{len(label) + 1}}" for
                            cell, label in zip(cells, labels)))
    finally:
        workloads.DIAGNOSE_BUCKETS = saved_buckets
        if saved is None:
            os.environ.pop("COLMM_WORKERS", None)
        else:
            os.environ["COLMM_WORKERS"] = saved
    return 0


if __name__ == "__main__":
    sys.exit(main())
