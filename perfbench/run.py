"""colmm benchmark: one seeded workload per call, measured through the CLI.

    python3 perfbench/run.py --workload fxopt-mc --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout of the repository: it imports colmm
from the checkout's `src/` and from nowhere else, and keeps its working
files and run records under `.perfbench/` at the checkout root.  Each
workload runs in a child process whose thread environment is pinned
(COLMM_WORKERS per workload, one BLAS thread); `setup_s` is measured
afterwards in fresh processes with the same environment.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 0 whenever a result is printed, also when some jobs
failed their output checks (they are counted in `failed`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Times an import in a fresh interpreter and names the file it came from.
PROBE = ("import time; t = time.perf_counter(); import {0}; "
         "print(time.perf_counter() - t); print({0}.__file__)")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pinned_env(workers: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["COLMM_WORKERS"] = str(workers)
    for name in PINNED_THREADS:
        env[name] = "1"
    return env


def _import_probe(modules: str, env: dict[str, str]) -> tuple[float, str]:
    proc = subprocess.run([sys.executable, "-c", PROBE.format(modules)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import {modules}:\n{proc.stderr}")
    seconds, path = proc.stdout.split("\n")[:2]
    return float(seconds), path


def measure_setup(env: dict[str, str]) -> tuple[list[float], list[float]]:
    """Raw and nominal-speed seconds to import colmm.cli in fresh processes.

    Runs after the worker, whose own import has compiled the bytecode and
    filled the file cache.  Each probe sits between two imports of the
    reference modules, which scale it to nominal speed.
    """
    raw, refs = [], [_import_probe(reference.IMPORT_MODULES, env)[0]]
    for _ in range(IMPORT_PROBES):
        seconds, path = _import_probe("colmm.cli", env)
        if not Path(path).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"colmm.cli came from {path}, not {ROOT / 'src'}")
        raw.append(seconds)
        refs.append(_import_probe(reference.IMPORT_MODULES, env)[0])
    nominal = [t * reference.nominal_scale("import", refs, i)
               for i, t in enumerate(raw)]
    return raw, nominal


def git_sha() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run_worker(args, env: dict[str, str], records: Path, tag: str) -> dict:
    workdir = ROOT / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    result = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir), "--result", str(result)]
    if args.trace:
        cmd += ["--spans", str(records / f"{tag}.spans.json")]
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"worker exited with {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        return json.loads(result.read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ran longer than {WORKER_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report_lines(summary: dict, raw_setup: list[float], setup: list[float],
                 layer_units: dict[str, str]) -> list[str]:
    attempted, failed = summary["attempted"], summary["failed"]
    n = summary["jobs"]
    tail = summary.get("tail")
    tail_text = (f"p{tail[0]} {tail[1]:.6f} s" if tail
                 else "no percentile has 10 samples beyond it")
    na = "n/a (no Monte Carlo in this workload)"
    mc = summary.get("mc_paths_per_s")
    rel = summary.get("rel_se_sqrt_s")
    lines = [
        f"setup_s        {statistics.median(setup):.6f} s  "
        f"(median of {len(setup)} fresh imports of colmm.cli; raw "
        f"{statistics.median(raw_setup):.6f} s)",
        f"job_s          {summary.get('job_s', float('nan')):.6f} s  "
        f"(median of {n} jobs after one warm-up; {tail_text}; raw "
        f"{summary.get('raw_job_s', float('nan')):.6f} s)",
        f"mc_paths_per_s {mc:.1f} 1/s" if mc else f"mc_paths_per_s {na}",
        f"rel_se_sqrt_s  {rel:.6g} sqrt_s  (max SE/|reference| x sqrt(job_s))"
        if rel else f"rel_se_sqrt_s  {na}",
        f"peak_rss_mb    {summary['peak_rss_mb']:.1f} MB",
        f"error_rate     {failed / attempted:.4f}  ({failed} of {attempted} "
        f"jobs failed)",
    ]
    for problem in summary["problems"]:
        lines.append(f"  failure: {problem.strip()}")
    if "layer" in summary:
        lines.append(f"traced jobs    {summary['traced_jobs']}, "
                     f"trace.overhead {summary['layer']['trace.overhead']:.3f}")
        for metric, value in summary["layer"].items():
            lines.append(f"  {metric:28s} {value:.6g} {layer_units[metric]}")
        for absent in summary["absent"]:
            lines.append(f"  absent: {absent}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "colmm" / "cli.py").is_file():
        print(f"error: no colmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = pinned_env(workload.workers)
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        summary = run_worker(args, env, records, tag)
        raw_setup, setup = measure_setup(env)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    context = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "src_lines": src_lines(),
        **summary["versions"],
        **{k: env[k] for k in ("COLMM_WORKERS", *PINNED_THREADS)},
    }
    print(f"perfbench {args.workload}: {workload.why}")
    print(" ".join(f"{k}={v}" for k, v in context.items() if k != "why"))
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for line in report_lines(summary, raw_setup, setup, layer_units):
        print(line)

    if args.trace:
        values = {**summary.get("layer", {}),
                  "mc_paths_per_s": summary.get("mc_paths_per_s", 0.0),
                  "rel_se_sqrt_s": summary.get("rel_se_sqrt_s", 0.0)}
        declared = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup),
                  "job_s": summary.get("job_s"),
                  "peak_rss_mb": summary["peak_rss_mb"]}
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if any(values.get(k) is None for k in units):
        print("error: no job completed, so no metric can be given",
              file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    result = {"correct": summary["failed"] == 0,
              "attempted": summary["attempted"], "failed": summary["failed"],
              "metrics": metrics}
    (records / f"{tag}.json").write_text(json.dumps(
        {**context, "setup_probes_s": setup, "raw_setup_probes_s": raw_setup,
         "summary": summary,
         "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
