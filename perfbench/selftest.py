"""The benchmark's own tests: generators, output checks and the tracer.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's default test collection;
they run the workloads' real jobs and take a few tens of seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import colmm.cli as cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402


def _prepared(name, tmp_path, seed=7):
    setup, jobs = workloads.WORKLOADS[name].prepare(tmp_path, seed)
    runner = Runner(cli)
    for job in setup:
        assert runner.run(job) is not None, runner.problems
    return runner, jobs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_bootstrap_and_pass_their_checks(name, tmp_path,
                                                         monkeypatch):
    monkeypatch.setenv("COLMM_WORKERS", str(workloads.WORKLOADS[name].workers))
    runner, jobs = _prepared(name, tmp_path)
    for job in jobs:
        assert runner.run(job) is not None, runner.problems
    # A second run of the first job must reproduce its report bytes.
    assert runner.run(jobs[0]) is not None, runner.problems
    assert runner.failed == 0


def test_generators_are_functions_of_the_seed(tmp_path):
    for name, workload in workloads.WORKLOADS.items():
        texts = []
        for sub in ("a", "b", "c"):
            workload.prepare(tmp_path / name / sub, 3 if sub != "c" else 4)
            texts.append({p.name: p.read_bytes()
                          for p in sorted((tmp_path / name / sub).iterdir())})
        assert texts[0] == texts[1]
        assert texts[0] != texts[2]


def test_corrupted_drift_counts_as_a_failure(tmp_path, monkeypatch):
    monkeypatch.setenv("COLMM_WORKERS", "2")
    runner, (job,) = _prepared("diagnose-wide", tmp_path)
    job.steps[0].append("--corrupt-drift-c")
    assert runner.run(job) is None
    assert runner.failed == 1
    assert runner.problems[0] == "diagnose exit code 4"
    assert "max |z|" in runner.problems[1]


def test_diagnose_digest_is_the_same_at_one_and_two_workers(tmp_path,
                                                            monkeypatch):
    runner, (job,) = _prepared("diagnose-wide", tmp_path)
    digests = []
    for workers in ("1", "2"):
        monkeypatch.setenv("COLMM_WORKERS", workers)
        assert runner.run(job) is not None, runner.problems
        digests.append(workloads.digest(job))
    assert digests[0] == digests[1]


def test_traced_job_gives_the_same_report_and_counts_its_layers(tmp_path,
                                                                monkeypatch):
    monkeypatch.setenv("COLMM_WORKERS", "1")
    runner, (job,) = _prepared("fxopt-mc", tmp_path)
    assert runner.run(job) is not None
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert runner.run(job) is not None, runner.problems
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    m = tracing.job_metrics(tracer.take_spans(), workers=1)
    assert m["engine.simulations"] == 4
    assert m["pricers.mc_calls"] == 4
    assert m["engine.paths"] == 4 * workloads.FXOPT_PATHS
    # 8 semiannual steps for the 4y option, fewer for the shorter ones.
    assert m["dynamics.evolve_calls"] == 2 + 4 + 6 + 8
    assert m["engine.normals"] == (workloads.FXOPT_PATHS // 2) * 20 * 3
    # The originals are back in place once the tracer is removed.
    assert cli.main is tracing._resolve("colmm.cli").main
    assert not hasattr(cli.main, "__wrapped__")


def test_missing_hook_is_reported_absent_not_raised():
    hooks = [tracing.Hook("colmm.engine", "no_such_function", "engine.normals"),
             tracing.Hook("colmm.no_such_module", "f", "dynamics.drift"),
             tracing.Hook("colmm.cli", "main", "cli.main")]
    tracer = tracing.Tracer(hooks)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["colmm.engine.no_such_function",
                             "colmm.no_such_module.f"]
    absent = tracing.absent_metrics(tracer)
    assert "engine.normals_s" in absent and "dynamics.drift_s" in absent
    assert "cli.self_s" not in absent


def test_self_time_subtracts_the_union_of_children():
    root = ["cli.main", 0.0, 10.0, None, 1, 0.0, None]
    a = ["engine.simulate", 1.0, 5.0, root, 1, 0.0, None]
    # Two overlapping worker-thread blocks under the simulate span.
    b1 = ["engine.block", 1.5, 4.0, a, 2, 2.0, None]
    b2 = ["engine.block", 2.0, 4.5, a, 3, 2.0, None]
    nested = ["engine.simulate", 6.0, 7.0, root, 1, 0.0, None]
    inner = ["engine.simulate", 6.2, 6.8, nested, 1, 0.0, None]
    m = tracing.job_metrics([root, a, b1, b2, nested, inner], workers=2)
    assert m["cli.self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert m["engine.simulations"] == 2
    # simulate self: (4 - 3) + (1 - 0.6) + 0.6; block self: 2.5 + 2.5
    assert m["engine.self_s"] == pytest.approx(2.0 + 5.0)
    assert m["engine.parallel_eff"] == pytest.approx(4.0 / (2 * 5.0))


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "fxopt-mc", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
