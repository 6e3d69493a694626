"""tools/paired_ab.py: in-process pairs of two source trees, outputs compared."""

import importlib.util
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COPIES = ("colmm_a", "colmm_b", "colmm_c", "colmm_d")


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
    # Every copy is unloaded and the caller's worker count is put back.
    assert not any(m.startswith(COPIES) for m in sys.modules)
    assert os.environ["COLMM_WORKERS"] == "3"


def test_half_the_pairs_run_on_each_pair_of_copies(paired_ab, capsys,
                                                   monkeypatch):
    # A loads as colmm_a and colmm_d, B as colmm_b and colmm_c; each copy
    # runs the set-up and warm-up jobs, then pairs 0 and 3 run (a, b) and
    # pairs 1 and 2 (d, c), with A first in pairs 0 and 2.
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    seen, run = [], workloads.run_steps
    monkeypatch.setattr(workloads, "run_steps", lambda cli, job: seen.append(
        cli.__name__.split(".")[0]) or run(cli, job))
    src = str(ROOT / "src")
    assert paired_ab([src, src, "--workload", "bootstrap-analytic",
                      "--pairs", "4"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "outputs identical in 4 of 4 pairs"
    tree = Path(src).resolve()
    assert captured.err.splitlines() == [
        f"A: colmm from {tree} as colmm_a and colmm_d",
        f"B: colmm from {tree} as colmm_b and colmm_c"]
    warm, timed = seen[:-8], seen[-8:]
    assert sorted(set(warm)) == list(COPIES)
    assert [warm.count(copy) for copy in COPIES] == [len(warm) // 4] * 4
    assert timed == ["colmm_a", "colmm_b", "colmm_c", "colmm_d",
                     "colmm_d", "colmm_c", "colmm_b", "colmm_a"]
    assert not any(m.startswith(COPIES) for m in sys.modules)


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


def test_paths_sets_the_path_count_of_every_job(paired_ab, capsys,
                                                monkeypatch):
    # Each job's --paths is rewritten: the warm-up job on each of the
    # four copies and both jobs of each pair run 400 paths.
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    seen, run = [], workloads.run_steps
    monkeypatch.setattr(workloads, "run_steps", lambda cli, job: seen.append(
        job.steps) or run(cli, job))
    src = str(ROOT / "src")
    assert paired_ab([src, src, "--workload", "diagnose-wide", "--pairs", "2",
                      "--workers", "1", "--paths", "400"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("diagnose-wide seed=1 COLMM_WORKERS=1 paths=400: 2 "
                      "pairs, alternating which side runs first")
    assert out[-1] == "outputs identical in 2 of 2 pairs"
    paths = [argv[argv.index("--paths") + 1] for steps in seen
             for argv in steps if "--paths" in argv]
    assert paths == ["400"] * 8


def test_paths_on_a_workload_without_paths_is_a_usage_error(paired_ab,
                                                            capsys):
    src = str(ROOT / "src")
    with pytest.raises(SystemExit) as exc:
        paired_ab([src, src, "--workload", "bootstrap-analytic",
                   "--paths", "400"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: --paths: the jobs of bootstrap-analytic take no --paths")
    assert not any(m.startswith(COPIES) for m in sys.modules)
    assert os.environ["COLMM_WORKERS"] == "3"
