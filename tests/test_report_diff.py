"""tools/report_diff.py: the row-by-row comparison of two reports."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def report_diff(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.main


def _diagnose(tmp_path, name, rows):
    doc = {"rows": [{"asset": "zcb", "tag": tag, "horizon": 1.0, "mean": m,
                     "target": 1.0, "std_error": se, "z": z}
                    for tag, m, se, z in rows],
           "z_limit": 4.0}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_diagnose_reports(tmp_path, capsys, report_diff):
    a = _diagnose(tmp_path, "a.json", [("USD", 1.0, 0.5, 0.0),
                                       ("EUR", 2.0, 0.25, 3.9)])
    b = _diagnose(tmp_path, "b.json", [("USD", 1.0, 0.5, 0.0),
                                       ("EUR", 2.5, 0.2, 4.1)])
    assert report_diff([a, a]) == 0
    assert capsys.readouterr().out == (
        "rows compared: 2\nmax |dz|: 0\nmax rel mean change: 0\n"
        "max rel SE change: 0\n")
    assert report_diff([a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("max |dz|: 0.2 (zcb EUR T=1)")
    assert out[2:] == ["max rel mean change: 0.25 (zcb EUR T=1)",
                       "max rel SE change: 0.2 (zcb EUR T=1)",
                       "pass/fail changed: zcb EUR T=1: z 3.9 -> 4.1"]


def test_price_reports(tmp_path, capsys, report_diff):
    def price(name, results):
        path = tmp_path / name
        path.write_text(json.dumps({"results": results}))
        return str(path)

    opt = {"kind": "fx_option", "price": 1.0, "mc_mean": 1.1,
           "mc_std_error": 0.05}
    a = price("a.json", {"opt": opt, "zcb": {"kind": "zcb", "price": 0.9}})
    b = price("b.json", {"opt": dict(opt, mc_mean=1.3),
                         "other": dict(opt)})
    assert report_diff([a, b]) == 1
    out = capsys.readouterr().out
    assert "pass/fail changed: opt: z " in out
    assert f"only in {b}: other" in out
    (tmp_path / "c.json").write_text("[]")
    assert report_diff([a, str(tmp_path / "c.json")]) == 2
