"""tools/worker_scaling.py: in-process job times and memory at 1 and 2 workers."""

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
    assert out[1].split() == ["paths", "1", "worker", "s", "2", "workers",
                              "s", "speedup", "1", "worker", "MB", "2",
                              "workers", "MB"]
    rows = [line.split() for line in out[2:]]
    assert [row[0] for row in rows] == ["200", "400"]
    for _, one, many, speedup, peak_one, peak_many in rows:
        assert float(one) > 0.0 and float(many) > 0.0
        assert re.fullmatch(r"\d+\.\d\d", speedup)
        assert re.fullmatch(r"\d+\.\d", peak_one)
        assert float(peak_one) > 0.0 and float(peak_many) > 0.0
    # Tracing is stopped again.
    assert not tracemalloc.is_tracing()
    # The caller's worker count is put back.
    assert os.environ["COLMM_WORKERS"] == "3"

