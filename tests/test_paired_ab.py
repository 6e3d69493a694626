"""tools/paired_ab.py: in-process pairs of two source trees, outputs compared."""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def paired_ab(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "paired_ab", ROOT / "tools" / "paired_ab.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    # The tool puts perfbench on the path and imports its workloads.
    monkeypatch.setattr(sys, "path", list(sys.path))
    had_workloads = "workloads" in sys.modules
    monkeypatch.setenv("COLMM_WORKERS", "3")
    yield module.main
    if not had_workloads:
        sys.modules.pop("workloads", None)


def test_one_tree_against_itself(paired_ab, capsys):
    src = str(ROOT / "src")
    assert paired_ab([src, src, "--workload", "bootstrap-analytic",
                      "--pairs", "2"]) == 0
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[0] == ("bootstrap-analytic seed=1 COLMM_WORKERS=1: 2 pairs, "
                      "alternating which side runs first")
    assert out[1].split() == ["side", "median_s", "q1_s", "q3_s", "wins"]
    wins = 0
    for side, row in zip("AB", out[2:4]):
        name, median, q1, q3, won = row.split()
        assert name == side
        assert 0.0 < float(q1) <= float(median) <= float(q3)
        assert all(re.fullmatch(r"\d+\.\d{5}", v) for v in (median, q1, q3))
        wins += int(won)
    assert wins <= 2
    assert re.fullmatch(r"B/A median \d+\.\d{4}", out[4])
    assert out[5] == "outputs identical in 2 of 2 pairs"
    assert len(out) == 6
    assert captured.err.count(f"colmm from {Path(src).resolve()}") == 2
    # Both copies are unloaded and the caller's worker count is put back.
    assert not any(m.startswith(("colmm_a", "colmm_b")) for m in sys.modules)
    assert os.environ["COLMM_WORKERS"] == "3"


def test_workers_flag_sets_the_count_for_both_sides(paired_ab, capsys):
    # diagnose-wide runs at 2 workers of its own; --workers 1 times it at
    # one, says so, and puts the caller's count back.
    src = str(ROOT / "src")
    assert paired_ab([src, src, "--workload", "diagnose-wide", "--pairs", "2",
                      "--workers", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("diagnose-wide seed=1 COLMM_WORKERS=1: 2 pairs, "
                      "alternating which side runs first")
    assert out[-1] == "outputs identical in 2 of 2 pairs"
    assert os.environ["COLMM_WORKERS"] == "3"


def test_workers_below_one_is_a_usage_error(paired_ab, capsys):
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as exc:
        paired_ab([src, src, "--workload", "diagnose-wide", "--workers", "0"])
    assert exc.value.code == 2
    assert "--workers must be at least 1" in capsys.readouterr().err
    assert os.environ["COLMM_WORKERS"] == "3"
