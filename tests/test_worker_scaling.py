"""tools/worker_scaling.py: in-process job times and memory by worker count and grid."""

import importlib.util
import os
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def worker_scaling(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "worker_scaling", ROOT / "tools" / "worker_scaling.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    # The tool puts perfbench on the path and imports its workloads.
    monkeypatch.setattr(sys, "path", list(sys.path))
    had_workloads = "workloads" in sys.modules
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv("COLMM_WORKERS", "3")
    yield module.main
    if not had_workloads:
        sys.modules.pop("workloads", None)


def test_prints_a_median_and_speedup_per_path_count(worker_scaling, capsys):
    assert worker_scaling(["--paths", "200", "400", "--runs", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("diagnose-wide seed=1: median of 1 runs at "
                      "COLMM_WORKERS=1 and 2")
    assert out[1].split() == ["buckets", "paths", "1", "worker", "s", "1",
                              "worker", "cpu", "s", "2", "workers", "s", "2",
                              "workers", "cpu", "s", "speedup", "1", "worker",
                              "MB", "2", "workers", "MB"]
    rows = [line.split() for line in out[2:]]
    assert [row[:2] for row in rows] == [["40", "200"], ["40", "400"]]
    for (_, _, one, cpu_one, many, cpu_many, speedup, peak_one,
         peak_many) in rows:
        assert float(one) > 0.0 and float(many) > 0.0
        assert float(cpu_one) > 0.0 and float(cpu_many) > 0.0
        assert re.fullmatch(r"\d+\.\d\d", speedup)
        assert re.fullmatch(r"\d+\.\d", peak_one)
        assert float(peak_one) > 0.0 and float(peak_many) > 0.0
    # Tracing is stopped again.
    assert not tracemalloc.is_tracing()
    # The caller's worker count is put back.
    assert os.environ["COLMM_WORKERS"] == "3"



def test_workers_names_the_counts_and_their_columns(worker_scaling, capsys):
    assert worker_scaling(["--paths", "200", "--runs", "1",
                           "--workers", "1", "3", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("diagnose-wide seed=1: median of 1 runs at "
                      "COLMM_WORKERS=1, 3 and 4")
    assert out[1].split() == ["buckets", "paths", "1", "worker", "s", "1",
                              "worker", "cpu", "s", "3", "workers", "s", "3",
                              "workers", "cpu", "s", "4", "workers", "s", "4",
                              "workers", "cpu", "s", "speedup", "1", "worker",
                              "MB", "3", "workers", "MB", "4", "workers", "MB"]
    (row,) = [line.split() for line in out[2:]]
    assert row[:2] == ["40", "200"] and len(row) == 12
    assert float(row[8]) == pytest.approx(float(row[2]) / float(row[6]),
                                          abs=0.02)
    assert all(re.fullmatch(r"\d+\.\d", mb) for mb in row[9:])
    # Columns line up under their labels.
    assert [len(line) for line in out[1:]] == [len(out[1])] * 2
    assert os.environ["COLMM_WORKERS"] == "3"


def test_buckets_sets_the_grid_in_process(worker_scaling, capsys,
                                          monkeypatch):
    # A row per bucket count and path count, in that order, each job on
    # its row's grid; the workload module's own bucket count is put back.
    from colmm import cli
    grids, simulate = [], cli.simulate_many
    monkeypatch.setattr(cli, "simulate_many", lambda model, *a: grids.append(
        model.ts.n_buckets) or simulate(model, *a))
    assert worker_scaling(["--buckets", "8", "16", "--paths", "200", "400",
                           "--runs", "1", "--workers", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in out[2:]]
    assert [row[:2] for row in rows] == [["8", "200"], ["8", "400"],
                                         ["16", "200"], ["16", "400"]]
    assert all(float(row[5]) > 0.0 for row in rows)
    assert grids == [8] * 6 + [16] * 6
    assert sys.modules["workloads"].DIAGNOSE_BUCKETS == 40
    assert os.environ["COLMM_WORKERS"] == "3"


def test_block_cpu_is_the_thread_time_of_the_blocks(worker_scaling, capsys):
    # Each timed run sums the thread CPU seconds of its blocks, and the
    # median of the sums is printed next to the median wall time.  A lone
    # block runs on the job's own thread, so its CPU is at most the job's
    # wall time.  The timing hook is taken off again.
    from colmm import engine
    simulate_block = engine._simulate_block
    assert worker_scaling(["--paths", "400", "--runs", "2"]) == 0
    (row,) = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert all(re.fullmatch(r"\d+\.\d{6}", v) for v in row[2:6])
    one, cpu_one, many, cpu_many = map(float, row[2:6])
    assert 0.0 < cpu_one <= one and cpu_many > 0.0
    assert engine._simulate_block is simulate_block
