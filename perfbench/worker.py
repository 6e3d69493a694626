"""Runs one workload inside a process whose thread environment is pinned.

Started by run.py with COLMM_WORKERS and the BLAS thread counts already in
its environment (they must be set before numpy loads).  It generates the
inputs, runs the set-up and one warm-up job, then repeats jobs through
`colmm.cli.main` for the requested seconds and writes a JSON summary.
With --trace 1 it alternates untraced and traced jobs, so the tracing
overhead is measured under the same conditions as the traced figures.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

MIN_JOBS = 3
TAIL_PERCENTILES = (99, 95, 90, 75)


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


class Runner:
    """Runs jobs, checks their outputs, and keeps the tallies."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.mc_paths = 0
        self.rel_se: list[float] = []

    def run(self, job: workloads.Job) -> float | None:
        """Wall seconds of the job, or None when it failed any check."""
        self.attempted += 1
        try:
            wall, results = workloads.run_steps(self.cli, job)
            verdict = job.check(job, results)
            problems = list(verdict.problems)
            digest = workloads.digest(job)
        except (Exception, SystemExit):
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            return None
        first = self.digests.setdefault(job.key, digest)
        if digest != first:
            problems.append(f"job {job.key}: report digest {digest[:16]} "
                            f"differs from {first[:16]}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        self.mc_paths = verdict.mc_paths
        if verdict.rel_se is not None:
            self.rel_se.append(verdict.rel_se)
        return wall


def _at_nominal_speed(metrics: dict[str, float], scale: float) -> dict:
    """Scale the times (`_s`) and rates (`_per_s`) of one traced job."""
    out = {}
    for key, value in metrics.items():
        if key.endswith("_per_s"):
            value /= scale
        elif key.endswith("_s"):
            value *= scale
        out[key] = value
    return out


def _median_metrics(per_job: list[dict]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in per_job) for k in per_job[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    import colmm.cli as cli
    import numpy
    import scipy

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(cli)
    setup_jobs, jobs = workload.prepare(args.workdir, args.seed)
    for job in setup_jobs:
        runner.run(job)
    runner.run(jobs[0])  # warm-up

    tracer = tracing.Tracer()
    entries: list[tuple[bool, float, dict | None]] = []
    last_spans: list = []
    refs = [reference.reference_seconds(workload.reference)]
    deadline = perf_counter() + args.seconds
    # With --trace 1 odd attempts are untraced and even ones traced, and
    # traced attempt i and untraced attempt i + 1 run the same job.
    min_attempts = MIN_JOBS * (2 if args.trace else 1)
    i = 1
    while perf_counter() < deadline or i <= min_attempts:
        job = jobs[(i // 2 if args.trace else i) % len(jobs)]
        traced = bool(args.trace) and i % 2 == 0
        i += 1
        if traced:
            tracer.install()
        try:
            wall = runner.run(job)
        finally:
            tracer.uninstall()
        spans = tracer.take_spans()
        refs.append(reference.reference_seconds(workload.reference))
        if wall is None:
            entries.append((traced, math.nan, None))
            continue
        metrics = None
        if traced:
            metrics = tracing.job_metrics(spans, workload.workers)
            metrics["cli.report_bytes"] = job.outputs[-1].stat().st_size
            last_spans = spans
        entries.append((traced, wall, metrics))

    # Every time is brought to nominal machine speed by the reference runs
    # around its job; raw walls are kept for the record.
    walls, traced_walls, per_job = [], [], []
    for n, (traced, wall, metrics) in enumerate(entries):
        if math.isnan(wall):
            continue
        scale = reference.nominal_scale(workload.reference, refs, n)
        (traced_walls if traced else walls).append(wall * scale)
        if metrics is not None:
            per_job.append(_at_nominal_speed(metrics, scale))

    summary = {
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "colmm_file": cli.__file__,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "jobs": len(walls),
        "raw_walls_s": [wall for traced, wall, _ in entries if not traced],
        "references_s": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if walls:
        job_s = statistics.median(walls)
        summary["job_s"] = job_s
        summary["raw_job_s"] = statistics.median(
            w for w in summary["raw_walls_s"] if not math.isnan(w))
        summary["tail"] = tail(walls)
        if runner.mc_paths:
            summary["mc_paths_per_s"] = runner.mc_paths / job_s
        if runner.rel_se:
            summary["rel_se_sqrt_s"] = max(runner.rel_se) * math.sqrt(job_s)
    if per_job and walls:
        layer = _median_metrics(per_job)
        layer["trace.overhead"] = statistics.median(traced_walls) / summary["job_s"]
        summary["layer"] = layer
        summary["traced_jobs"] = len(per_job)
        summary["absent"] = (tracing.absent_metrics(tracer)
                             + [f"hook {h}" for h in tracer.absent])
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracing.export_spans(last_spans)))
    args.result.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
