"""In-process paired A/B of two colmm source trees on one benchmark workload.

    python3 tools/paired_ab.py A/src B/src --workload bootstrap-analytic
        [--seed 1] [--pairs 30] [--workers N] [--paths N]

Copies the `colmm` package of each tree into a temporary directory twice,
A as `colmm_a` and `colmm_d` and B as `colmm_b` and `colmm_c`; colmm
imports its own modules only relatively, so all four copies load side by
side in this process.  It sets `COLMM_WORKERS` to `--workers`, by
default the workload's worker count (as `perfbench/run.py` does, with
one BLAS thread), and puts the caller's value back at the end.  It
prepares the workload of `perfbench/workloads.py` at `--seed` in a
temporary directory, with every `--paths` value of its jobs set to
`--paths` when given, as `tools/worker_scaling.py` sets it (a workload
whose jobs take no `--paths` is a usage error), and runs its set-up jobs
and one warm-up job on each copy.  Then it runs `--pairs` pairs of jobs
through each side's `cli.main`, cycling through the workload's jobs,
with A first in even pairs and B first in odd ones.  Pairs 4k and 4k + 3
run `colmm_a` against `colmm_b`, and pairs 4k + 1 and 4k + 2 `colmm_d`
against `colmm_c`, so half the pairs run on each pair of copies, each
side first in half of those: a copy's package name or load order then
weighs on both sides alike.  Each job's wall time is taken as the
benchmark takes it, around its CLI calls, and a job that fails the
workload's output check ends the run with its problems.

It prints each side's median and quartiles of job seconds and its wins
(pairs in which it was faster; ties count for neither), then B's median
over A's.  After every job it hashes the exit codes, standard output and
output files, and the last line says in how many pairs both sides
matched; the exit code is 1 when any pair did not.  Raw seconds are not
scaled to nominal machine speed, so these pairs complement the
benchmark's alternating runs and do not replace them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("A", "B")


def load_cli(tree: Path, package: str, into: Path):
    """`cli` of the colmm package under `tree`, imported as `package`."""
    shutil.copytree(tree / "colmm", into / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.cli")


def run_job(workloads, cli, job) -> tuple[float, str]:
    """Wall seconds of one job and a SHA-256 over everything it made."""
    wall, results = workloads.run_steps(cli, job)
    problems = job.check(job, results).problems
    if problems:
        raise SystemExit(f"error: {cli.__name__}: " + "; ".join(problems))
    h = hashlib.sha256()
    for step in results:
        h.update(f"exit {step.code}\n{step.stdout}".encode())
    h.update(workloads.digest(job).encode())
    return wall, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", type=Path, nargs=2, metavar="SRC",
                        help="a source tree holding colmm/: A, then B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--workers", type=int, default=None,
                        help="COLMM_WORKERS for both sides (default: the "
                             "workload's own)")
    parser.add_argument("--paths", type=int, default=None,
                        help="the jobs' --paths value (default: the "
                             "workload's own)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "tools"))
    import workloads
    from worker_scaling import with_paths

    workload = workloads.WORKLOADS[args.workload]
    workers = workload.workers if args.workers is None else args.workers
    saved = os.environ.get("COLMM_WORKERS")
    os.environ["COLMM_WORKERS"] = str(workers)
    # (A, B) package names of the copies each pair runs on.
    slots = (("colmm_a", "colmm_b"), ("colmm_d", "colmm_c"))
    packages = [package for slot in slots for package in slot]
    tmp = Path(tempfile.mkdtemp(prefix="paired_ab_"))
    sys.path.insert(0, str(tmp))
    try:
        clis = {package: load_cli(tree.resolve(), package, tmp)
                for slot in slots
                for tree, package in zip(args.trees, slot)}
        for side, tree, *names in zip(SIDES, args.trees, *slots):
            print(f"{side}: colmm from {tree.resolve()} as "
                  f"{' and '.join(names)}", file=sys.stderr)
        setups, jobs = workload.prepare(tmp / "work", args.seed)
        if args.paths is not None:
            if not any("--paths" in argv for job in jobs
                       for argv in job.steps):
                parser.error(f"--paths: the jobs of {args.workload} take "
                             f"no --paths")
            jobs = [dataclasses.replace(job, steps=with_paths(job.steps,
                                                              args.paths))
                    for job in jobs]
        for cli in clis.values():
            for job in [*setups, jobs[0]]:
                run_job(workloads, cli, job)
        times = {side: [] for side in SIDES}
        wins = dict.fromkeys(SIDES, 0)
        same = 0
        for i in range(args.pairs):
            job = jobs[i % len(jobs)]
            order = (0, 1) if i % 2 == 0 else (1, 0)
            slot = slots[(i + 1) // 2 % 2]
            walls, digests = [0.0, 0.0], ["", ""]
            for k in order:
                walls[k], digests[k] = run_job(workloads, clis[slot[k]], job)
            for side, wall in zip(SIDES, walls):
                times[side].append(wall)
            if walls[0] != walls[1]:
                wins[SIDES[walls[1] < walls[0]]] += 1
            same += digests[0] == digests[1]
    finally:
        sys.path.remove(str(tmp))
        for name in [m for m in sys.modules if m.split(".")[0] in packages]:
            del sys.modules[name]
        shutil.rmtree(tmp, ignore_errors=True)
        if saved is None:
            os.environ.pop("COLMM_WORKERS", None)
        else:
            os.environ["COLMM_WORKERS"] = saved

    paths = "" if args.paths is None else f" paths={args.paths}"
    print(f"{args.workload} seed={args.seed} COLMM_WORKERS={workers}{paths}:"
          f" {args.pairs} pairs, alternating which side runs first")
    print(f"{'side':<4} {'median_s':>9} {'q1_s':>9} {'q3_s':>9} {'wins':>5}")
    medians = {}
    for side in SIDES:
        q1, medians[side], q3 = statistics.quantiles(
            times[side], n=4, method="inclusive")
        print(f"{side:<4} {medians[side]:>9.5f} {q1:>9.5f} {q3:>9.5f} "
              f"{wins[side]:>5}")
    print(f"B/A median {medians['B'] / medians['A']:.4f}")
    print(f"outputs identical in {same} of {args.pairs} pairs")
    return 0 if same == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
