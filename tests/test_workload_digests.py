"""tools/workload_digests.py: one digest per workload, whatever the workers."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

from colmm import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "workload_digests", ROOT / "tools" / "workload_digests.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def digests(tool, monkeypatch):
    module = tool
    # The workloads live in perfbench, which is not a package.
    monkeypatch.setattr(sys, "path", [str(ROOT / "perfbench"), *sys.path])
    had_workloads = "workloads" in sys.modules
    from workloads import WORKLOADS
    yield module.workload_digest, WORKLOADS
    if not had_workloads:
        sys.modules.pop("workloads", None)


def test_digests_do_not_depend_on_the_worker_count(digests, monkeypatch):
    workload_digest, workloads = digests
    found = {}
    # At 3 workers diagnose-wide's 50 chunks split into uneven blocks.
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("COLMM_WORKERS", workers)
        found[workers] = {name: workload_digest(cli, workload, 7)
                          for name, workload in workloads.items()}
    assert found["1"] == found["2"] == found["3"]
    # One SHA-256 per workload, and no two workloads alike.
    assert all(len(digest) == 64 for digest in found["1"].values())
    assert len(set(found["1"].values())) == len(workloads)


@pytest.mark.parametrize("caller", [None, "5"])
def test_workers_run_each_count_and_compare_them(tool, digests, monkeypatch,
                                                 capsys, caller):
    # --workers runs every (workload, seed) at each count, with
    # COLMM_WORKERS set to it, puts the caller's value back, and ends
    # with one line on whether the counts agree: exit 1 when they do not.
    _, workloads = digests
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    if caller is None:
        monkeypatch.delenv("COLMM_WORKERS", raising=False)
    else:
        monkeypatch.setenv("COLMM_WORKERS", caller)
    seen = []

    def digest(cli, workload, seed, keep=None):
        seen.append((os.environ["COLMM_WORKERS"], workload.name, seed))
        return f"{workload.name}-{seed}"

    monkeypatch.setattr(tool, "workload_digest", digest)
    assert tool.main(["--seeds", "7", "11", "--workers", "1", "3"]) == 0
    assert os.environ.get("COLMM_WORKERS") == caller
    assert seen == [(w, name, seed) for w in ("1", "3") for name in workloads
                    for seed in (7, 11)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [f"{name} seed={seed} COLMM_WORKERS=1 {name}-{seed}"
                         for name in list(workloads)[:1] for seed in (7, 11)]
    assert len(lines) == 2 * 2 * len(workloads) + 1
    assert lines[-1] == (f"each of {2 * len(workloads)} (workload, seed) "
                         f"pairs has one digest across COLMM_WORKERS 1 3")

    # A digest that moves with the worker count fails the run.
    name = list(workloads)[1]
    monkeypatch.setattr(tool, "workload_digest", lambda cli, w, seed, keep: (
        f"{w.name}-{seed}-{os.environ['COLMM_WORKERS']}"
        if (w.name, seed) == (name, 11) else f"{w.name}-{seed}"))
    assert tool.main(["--seeds", "7", "11", "--workers", "1", "2"]) == 1
    assert os.environ.get("COLMM_WORKERS") == caller
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"digests differ across COLMM_WORKERS 1 2: {name} seed=11")


def test_keep_copies_every_output_for_report_diff(tool, digests, monkeypatch,
                                                  tmp_path):
    # --keep copies each output a digest covers, the negative control's
    # report beside the report, to DIR/<workload>/seed<seed>/workers<n>/;
    # keeping changes no digest.
    workload_digest, workloads = digests
    monkeypatch.setenv("COLMM_WORKERS", "1")
    workload = workloads["diagnose-wide"]
    kept = tmp_path / "kept"
    digest = workload_digest(cli, workload, 7, kept)
    assert digest == workload_digest(cli, workload, 7)
    assert sorted(p.name for p in kept.iterdir()) == [
        "diag_curves.json", "diag_report.corrupt-drift-c.json",
        "diag_report.json"]
    report_diff = importlib.util.spec_from_file_location(
        "report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(report_diff)
    report_diff.loader.exec_module(module)
    # The control fails rows the report passes: report_diff exits 1.
    assert module.main([str(kept / "diag_report.json"),
                        str(kept / "diag_report.json")]) == 0
    assert module.main([str(kept / "diag_report.json"),
                        str(kept / "diag_report.corrupt-drift-c.json")]) == 1

    # main passes each (workload, seed, count) its own directory.
    seen = []

    def record(cli, workload, seed, keep=None):
        seen.append(keep)
        return "digest"

    monkeypatch.setattr(tool, "workload_digest", record)
    assert tool.main(["--seeds", "7", "--workers", "2",
                      "--keep", str(tmp_path)]) == 0
    assert seen == [tmp_path / name / "seed7" / "workers2"
                    for name in workloads]
    seen.clear()
    monkeypatch.delenv("COLMM_WORKERS")
    assert tool.main(["--seeds", "11", "--keep", str(tmp_path)]) == 0
    assert seen == [tmp_path / name / "seed11" / "workersunset"
                    for name in workloads]
