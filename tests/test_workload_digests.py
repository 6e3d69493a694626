"""tools/workload_digests.py: one digest per workload, whatever the workers."""

import importlib.util
import sys
from pathlib import Path

import pytest

from colmm import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def digests(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "workload_digests", ROOT / "tools" / "workload_digests.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
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
