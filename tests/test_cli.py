"""End-to-end command line runs: bootstrap, price, diagnose, exit codes."""

import argparse
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest

import colmm
from colmm import load_curve_set
from colmm.cli import main

MARKET = """\
# two-currency sample
grid,0,0.5,1.0,1.5,2.0,2.5,3.0,3.5,4.0
base,USD
ois,USD,0.5,0.0200
ois,USD,1.0,0.0205
ois,USD,1.5,0.0210
ois,USD,2.0,0.0215
ois,USD,2.5,0.0218
ois,USD,3.0,0.0221
ois,USD,3.5,0.0223
ois,USD,4.0,0.0225
ois,EUR,0.5,0.0100
ois,EUR,1.0,0.0102
ois,EUR,1.5,0.0105
ois,EUR,2.0,0.0108
ois,EUR,2.5,0.0110
ois,EUR,3.0,0.0112
ois,EUR,3.5,0.0113
ois,EUR,4.0,0.0115
spot,USD,EUR,1.0800
fxforward,USD,EUR,USD,0.5,1.0862
fxforward,USD,EUR,USD,1.0,1.0925
fxforward,USD,EUR,USD,1.5,1.0989
fxforward,USD,EUR,USD,2.0,1.1055
fxforward,USD,EUR,USD,2.5,1.1118
fxforward,USD,EUR,USD,3.0,1.1183
fxforward,USD,EUR,USD,3.5,1.1248
fxforward,USD,EUR,USD,4.0,1.1312
fixing,USD,0,0.0015
fixing,USD,0.5,0.0015
fixing,USD,1.0,0.0016
fixing,USD,1.5,0.0016
equity,USD,0.5,102.0
equity,USD,1.0,104.1
equity,USD,1.5,106.2
equity,USD,2.0,108.3
"""

VOLS = {
    "n_factors": 3,
    "collateral": {"USD": [0.009, 0.0, 0.0], "EUR": [0.002, 0.008, 0.0]},
    "libor_ois": {"USD": [0.0, 0.1, 0.15]},
    "equity": {"USD": [0.05, 0.0, 0.18]},
    "funding": {"EUR/USD": [0.0, 0.002, 0.002]},
    "fx": {"USD/EUR": [0.04, -0.08, 0.02]},
}

ZERO_VOLS = {"n_factors": 1}

INSTRUMENTS = [
    {"type": "zcb", "currency": "USD", "collateral": "USD", "maturity": 2.0,
     "label": "usd_zcb"},
    {"type": "zcb", "currency": "EUR", "collateral": "USD", "maturity": 2.0,
     "label": "eur_zcb"},
    {"type": "fx_forward", "pay": "USD", "receive": "EUR",
     "collateral": "USD", "maturity": 2.0, "label": "fwd"},
    {"type": "fx_option", "pay": "USD", "receive": "EUR", "collateral": "USD",
     "maturity": 2.0, "strike": 1.10, "style": "call", "label": "opt"},
    {"type": "equity_forward", "currency": "USD", "maturity": 1.5,
     "label": "eqf"},
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "market.csv").write_text(MARKET)
    (d / "vols.json").write_text(json.dumps(VOLS))
    (d / "zero_vols.json").write_text(json.dumps(ZERO_VOLS))
    (d / "instruments.json").write_text(json.dumps(INSTRUMENTS))
    rc = main(["bootstrap", str(d / "market.csv"),
               "--out", str(d / "curves.json")])
    assert rc == 0
    return d


class TestBootstrap:
    def test_writes_curve_set_and_reports_residuals(self, workdir, capsys,
                                                    tmp_path):
        out = tmp_path / "curves.json"
        rc = main(["bootstrap", str(workdir / "market.csv"),
                   "--out", str(out), "--csv", str(tmp_path / "resid.csv")])
        captured = capsys.readouterr().out
        assert rc == 0
        assert out.exists()
        assert "wrote curve set" in captured
        worst = float(captured.split("max |residual| =")[1].split()[0])
        assert worst < 1e-12
        assert (tmp_path / "resid.csv").read_text().count("\n") > 16

    def test_listing_is_one_write(self, workdir, tmp_path, monkeypatch):
        # An unbuffered stdout makes each write a system call.
        writes = []

        class Out:
            write = staticmethod(writes.append)

        monkeypatch.setattr(sys, "stdout", Out())
        out = tmp_path / "curves.json"
        assert main(["bootstrap", str(workdir / "market.csv"),
                     "--out", str(out)]) == 0
        assert len(writes) == 1
        # 16 OIS and 8 forward residuals, the maximum, the worst quote
        # and the curve-set path.
        assert len(writes[0].splitlines()) == 16 + 8 + 3
        assert writes[0].endswith(f"\nwrote curve set to {out}\n")

    def test_names_the_worst_quote(self, tmp_path, capsys):
        # Discount pillars reprice exactly (residual 0), so the EUR OIS
        # quote's roundoff residual (1.3e-16) is the worst one.
        text = ("grid,0,1.0,2.0\nbase,USD\ndiscount,USD,1.0,0.98\n"
                "discount,USD,2.0,0.96\nois,EUR,1.0,0.015\n")
        (tmp_path / "m.csv").write_text(text)
        rc = main(["bootstrap", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "c.json")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        at = lines.index("max |residual| = 1.318e-16")
        assert lines[at + 1] == "worst quote: ois EUR T=1"

    def test_last_quote_just_below_a_whole_year_reprices(self, tmp_path,
                                                         capsys):
        # 2.9999999999999996 lies within 1e-9 below 3, so its fixed leg
        # takes the whole third year; that coupon pays at the quote's own
        # maturity, the last pillar, not at 3.0 past it.
        text = ("grid,0,1,2,2.9999999999999996\nbase,USD\n"
                "ois,USD,1,0.02\nois,USD,2,0.021\n"
                "ois,USD,2.9999999999999996,0.022\n")
        (tmp_path / "m.csv").write_text(text)
        rc = main(["bootstrap", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "c.json")])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        worst = float(captured.out.split("max |residual| =")[1].split()[0])
        assert worst <= 1e-10

    def test_zero_rates_give_unit_discounts(self, tmp_path, capsys):
        text = "grid,0,1.0,2.0\nbase,USD\nois,USD,1.0,0.0\nois,USD,2.0,0.0\n"
        (tmp_path / "m.csv").write_text(text)
        rc = main(["bootstrap", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 0
        capsys.readouterr()
        _, _, curves = load_curve_set(str(tmp_path / "c.json"))
        assert curves.discount_curve("USD").discount(1.0) == 1.0
        assert curves.discount_curve("USD").discount(2.0) == 1.0

    def test_parity_forwards_give_unit_spreads(self, tmp_path, capsys):
        d_usd = {0.5: 0.99, 1.0: 0.98}
        d_eur = {0.5: 0.995, 1.0: 0.99}
        spot = 1.08
        lines = ["grid,0,0.5,1.0", "base,USD"]
        for t, v in d_usd.items():
            lines.append(f"discount,USD,{t},{v!r}")
        for t, v in d_eur.items():
            lines.append(f"discount,EUR,{t},{v!r}")
        lines.append(f"spot,USD,EUR,{spot!r}")
        for t in (0.5, 1.0):
            fwd = spot * d_eur[t] / d_usd[t]  # zero-basis parity quote
            lines.append(f"fxforward,USD,EUR,USD,{t},{fwd!r}")
        (tmp_path / "m.csv").write_text("\n".join(lines) + "\n")
        rc = main(["bootstrap", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 0
        capsys.readouterr()
        _, _, curves = load_curve_set(str(tmp_path / "c.json"))
        y = curves.spread_curve("EUR", "USD")
        np.testing.assert_allclose(y.values, 1.0, rtol=0, atol=1e-15)


    def test_readme_library_example_runs(self, capsys):
        # The README's first python block, run as written: the ZCB it prints
        # is within 4 SE of its curve, and a name gone from colmm fails here.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        mean, se, _ = map(float, capsys.readouterr().out.split())
        assert se > 0.0 and abs(mean - math.exp(-0.04)) < 4.0 * se

    def test_readme_market_file_bootstraps(self, tmp_path, capsys):
        # The README's example market file must stay a valid input.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after = readme.split("A minimal two-currency file", 1)[1]
        block = after.split("```\n", 2)[1]
        (tmp_path / "m.csv").write_text(block)
        rc = main(["bootstrap", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "c.json")])
        captured = capsys.readouterr().out
        assert rc == 0
        assert float(captured.split("max |residual| =")[1].split()[0]) < 1e-12
        # ... and so must its vol config and instrument list, priced on it.
        for name, lead in [("v.json", "Volatility configs are JSON"),
                           ("i.json", "Instruments are a JSON array")]:
            after = readme.split(lead, 1)[1]
            (tmp_path / name).write_text(after.split("```json\n", 1)[1]
                                         .split("```", 1)[0])
        rc = main(["price", str(tmp_path / "c.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(tmp_path / "i.json"),
                   "--method", "both", "--paths", "2000",
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0, capsys.readouterr().err
        results = json.loads((tmp_path / "r.json").read_text())["results"]
        assert len(results) == 4


class TestPrice:
    def test_analytic_prices_match_library(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(workdir / "instruments.json"),
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        from colmm import (FxForwardSpec, collateralized_zcb, equity_forward,
                           fx_forward)
        _, _, curves = load_curve_set(str(workdir / "curves.json"))
        res = doc["results"]
        assert res["usd_zcb"]["price"] == collateralized_zcb(
            curves, "USD", "USD", 2.0)
        assert res["eur_zcb"]["price"] == collateralized_zcb(
            curves, "EUR", "USD", 2.0)
        assert res["fwd"]["price"] == fx_forward(
            curves, FxForwardSpec("USD", "EUR", "USD", 2.0))
        assert res["eqf"]["price"] == equity_forward(curves, "USD", 1.5)
        assert res["opt"]["method"] == "black"
        assert "mc_mean" not in res["opt"]
        assert doc["config"]["base"] == "USD"
        assert len(doc["job_id"]) == 16

    def test_method_both_agrees_within_3se(self, workdir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(workdir / "instruments.json"),
                   "--method", "both", "--paths", "4000",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        opt = json.loads(out.read_text())["results"]["opt"]
        assert opt["mc_std_error"] > 0
        assert abs(opt["mc_mean"] - opt["price"]) < 3.0 * opt["mc_std_error"]
        assert opt["mc_paths"] == 4000

    def test_shared_paths_match_single_option_runs(self, workdir, tmp_path,
                                                   capsys):
        # All MC options ride one path set; each must equal its own run.
        options = [
            {"type": "fx_option", "pay": "USD", "receive": "EUR",
             "collateral": "USD", "maturity": 1.0, "strike": 1.09,
             "style": "call", "label": "c1"},
            {"type": "fx_option", "pay": "USD", "receive": "EUR",
             "collateral": "EUR", "maturity": 3.0, "strike": 1.12,
             "style": "put", "label": "p3"},
            {"type": "fx_option", "pay": "EUR", "receive": "USD",
             "collateral": "USD", "maturity": 2.0, "strike": 0.91,
             "style": "call", "label": "c2"},
        ]
        (tmp_path / "opts.json").write_text(json.dumps(options))
        out = tmp_path / "report.json"
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(tmp_path / "opts.json"),
                   "--method", "both", "--paths", "2000", "--seed", "5",
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        res = json.loads(out.read_text())["results"]
        from colmm import (FxOptionSpec, Model, SimulationConfig,
                           load_vol_config, simulate_many)
        from colmm.pricers import fx_option_payoff
        ts, base, curves = load_curve_set(str(workdir / "curves.json"))
        model = Model(ts, curves,
                      load_vol_config(str(workdir / "vols.json"), ts.n_buckets),
                      base)
        cfg = SimulationConfig(n_paths=2000, seed=5)
        for opt in options:
            spec = FxOptionSpec(opt["pay"], opt["receive"], opt["collateral"],
                                opt["maturity"], opt["strike"],
                                opt["style"] == "call")
            est = simulate_many(model, cfg, {"p": fx_option_payoff(spec)})["p"]
            assert res[opt["label"]]["mc_mean"] == est.mean
            assert res[opt["label"]]["mc_std_error"] == est.std_error

    def test_reports_are_bytewise_reproducible(self, workdir, tmp_path,
                                               monkeypatch, capsys):
        outs = []
        for name, workers in [("a.json", "1"), ("b.json", "3"),
                              ("c.json", "8")]:
            monkeypatch.setenv("COLMM_WORKERS", workers)
            out = tmp_path / name
            rc = main(["price", str(workdir / "curves.json"),
                       "--vols", str(workdir / "vols.json"),
                       "--instruments", str(workdir / "instruments.json"),
                       "--method", "mc", "--paths", "2000",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("command", ["price", "diagnose"])
    def test_substeps_flag_changes_nothing(self, workdir, tmp_path, capsys,
                                           command):
        # The flag is still accepted, but the engine draws one exact
        # increment per interval whatever it says.
        argv = [command, str(workdir / "curves.json"),
                "--vols", str(workdir / "vols.json"), "--paths", "400"]
        if command == "price":
            argv += ["--instruments", str(workdir / "instruments.json"),
                     "--method", "both"]
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        rc = main(argv + ["--out", str(plain)])
        assert main(argv + ["--substeps", "4", "--out", str(flagged)]) == rc
        capsys.readouterr()
        assert plain.read_bytes() == flagged.read_bytes()

    def test_off_grid_maturity_is_input_error(self, workdir, tmp_path, capsys):
        bad = [{"type": "zcb", "currency": "USD", "collateral": "USD",
                "maturity": 0.25}]
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(tmp_path / "bad.json")])
        assert rc == 2
        assert "not a grid node" in capsys.readouterr().err


    def test_base_ccy_changes_the_measure_not_the_prices(self, workdir,
                                                           tmp_path, capsys):
        # Black prices do not depend on the measure; MC means under EUR
        # must still agree with them.
        options = [
            {"type": "fx_option", "pay": "USD", "receive": "EUR",
             "collateral": "USD", "maturity": 2.0, "strike": 1.10,
             "style": "call", "label": "c2"},
            {"type": "fx_option", "pay": "USD", "receive": "EUR",
             "collateral": "EUR", "maturity": 3.0, "strike": 1.12,
             "style": "put", "label": "p3"},
        ]
        (tmp_path / "opts.json").write_text(json.dumps(options))
        docs = {}
        for base in ("USD", "EUR"):
            out = tmp_path / f"{base}.json"
            rc = main(["price", str(workdir / "curves.json"),
                       "--vols", str(workdir / "vols.json"),
                       "--instruments", str(tmp_path / "opts.json"),
                       "--method", "both", "--paths", "8000",
                       "--base-ccy", base, "--out", str(out)])
            assert rc == 0
            docs[base] = json.loads(out.read_text())
        capsys.readouterr()
        assert docs["EUR"]["config"]["base"] == "EUR"
        for label, eur in docs["EUR"]["results"].items():
            usd = docs["USD"]["results"][label]
            assert eur["price"] == usd["price"]
            assert eur["mc_mean"] != usd["mc_mean"]
            assert abs(eur["mc_mean"] - eur["price"]) < 4.0 * eur["mc_std_error"]

    @pytest.mark.parametrize("command", ["price", "diagnose"])
    def test_unknown_base_ccy_is_2(self, workdir, capsys, command):
        argv = [command, str(workdir / "curves.json"),
                "--vols", str(workdir / "vols.json"), "--paths", "4",
                "--base-ccy", "JPY"]
        if command == "price":
            argv += ["--instruments", str(workdir / "instruments.json")]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "'JPY'" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["price", "diagnose"])
    def test_report_on_stdout_is_the_out_file(self, workdir, tmp_path, capsys,
                                              command):
        argv = [command, str(workdir / "curves.json"),
                "--vols", str(workdir / "vols.json"), "--paths", "4000"]
        if command == "price":
            argv += ["--instruments", str(workdir / "instruments.json"),
                     "--method", "both"]
        out = tmp_path / "report.json"
        rc = main(argv + ["--out", str(out)])
        assert capsys.readouterr().out == ""
        assert main(argv) == rc == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_black_reads_each_leg_once(self, workdir, monkeypatch):
        # The pay leg's discount is both the forward's denominator and the
        # annuity: one lookup per leg, and the price of the three-lookup
        # formula bit for bit, on this (the acceptance) market.
        import colmm.pricers as pricers
        from colmm import (FxForwardSpec, FxOptionSpec, collateralized_zcb,
                           forward_fx_total_stdev, fx_forward, fx_option_black)
        from colmm.market_data import load_vol_config

        ts, _, curves = load_curve_set(str(workdir / "curves.json"))
        vols = load_vol_config(str(workdir / "vols.json"), ts.n_buckets)
        calls = []

        def counting_zcb(*args):
            calls.append(args)
            return collateralized_zcb(*args)

        monkeypatch.setattr(pricers, "collateralized_zcb", counting_zcb)
        n_options = 0
        for T in map(float, ts.nodes[1:]):
            for pay, receive in (("USD", "EUR"), ("EUR", "USD")):
                for coll in ("USD", "EUR"):
                    fwd = fx_forward(curves,
                                     FxForwardSpec(pay, receive, coll, T))
                    stdev = forward_fx_total_stdev(vols, ts, pay, receive,
                                                   coll, T)
                    annuity = collateralized_zcb(curves, pay, coll, T)
                    for k, is_call in [(0.8, True), (1.0, False), (1.25, True)]:
                        spec = FxOptionSpec(pay, receive, coll, T, fwd * k,
                                            is_call)
                        want = annuity * pricers._black(fwd, fwd * k, stdev,
                                                        is_call)
                        calls.clear()
                        assert fx_option_black(curves, vols, ts, spec) == want
                        assert len(calls) == 2
                        n_options += 1
        assert n_options == 96

    def test_csv_fields_are_quoted(self, workdir, tmp_path, capsys):
        # A label holding the delimiter and the quote character reads back
        # as one field.
        insts = [dict(INSTRUMENTS[0], label='a,"b'), *INSTRUMENTS[1:]]
        (tmp_path / "i.json").write_text(json.dumps(insts))
        out = tmp_path / "prices.csv"
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(tmp_path / "i.json"),
                   "--out", str(tmp_path / "report.json"), "--csv", str(out)])
        capsys.readouterr()
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "kind", "price", "mc_mean", "mc_se"]
        assert [len(r) for r in rows] == [5] * (1 + len(insts))
        assert sorted(r[0] for r in rows[1:]) == sorted(i["label"] for i in insts)


class TestDiagnose:
    def test_zero_vols_reproduce_curves_exactly(self, workdir, tmp_path,
                                                capsys):
        out = tmp_path / "diag.json"
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(workdir / "zero_vols.json"),
                   "--paths", "4", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["rows"]
        for row in doc["rows"]:
            assert row["z"] == 0.0
            assert row["std_error"] == 0.0

    def test_libor_ois_vols_without_fixings_read_zero(self, workdir,
                                                      tmp_path, capsys):
        # EUR has LIBOR-OIS loadings but no fixings: its spread starts at 0
        # and, being lognormal, stays there on every path.
        (tmp_path / "v.json").write_text(json.dumps(
            {"n_factors": 1, "libor_ois": {"EUR": [0.1]}}))
        out = tmp_path / "diag.json"
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--paths", "8", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        rows = [r for r in doc["rows"]
                if (r["asset"], r["tag"]) == ("libor_ois", "EUR")]
        assert len(rows) == 8
        for row in rows:
            assert (row["mean"], row["target"], row["std_error"]) == (
                0.0, 0.0, 0.0)

    def test_stochastic_run_passes(self, workdir, tmp_path, capsys):
        out = tmp_path / "diag.json"
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--paths", "4000", "--out", str(out),
                   "--csv", str(tmp_path / "diag.csv")])
        capsys.readouterr()
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["max_abs_z"] <= 4.0
        families = {r["asset"] for r in doc["rows"]}
        assert families == {"zcb", "spread_zcb", "libor_ois", "equity"}
        assert (tmp_path / "diag.csv").exists()

    def test_corrupted_drift_is_caught(self, workdir, tmp_path, capsys):
        out = tmp_path / "diag.json"
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--paths", "4000", "--corrupt-drift-c",
                   "--out", str(out)])
        capsys.readouterr()
        assert rc == 4
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        assert doc["max_abs_z"] > 4.0
        assert doc["config"]["corrupt_drift_c"] is True


    def test_overflow_fails_without_warnings(self, workdir, tmp_path, capsys,
                                             recwarn):
        big = {key: ({name: [1e3 * x for x in load]
                      for name, load in value.items()}
                     if isinstance(value, dict) else value)
               for key, value in VOLS.items()}
        (tmp_path / "v.json").write_text(json.dumps(big))
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"), "--paths", "8",
                   "--out", str(tmp_path / "diag.json")])
        assert rc == 4
        assert capsys.readouterr().err == ""
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestExitCodes:
    def test_missing_file_is_2(self, tmp_path, capsys):
        rc = main(["bootstrap", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert "input error" in capsys.readouterr().err

    def test_bad_vol_config_is_2(self, workdir, tmp_path, capsys):
        (tmp_path / "v.json").write_text(json.dumps({"collateral": {}}))
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"), "--paths", "4"])
        assert rc == 2
        assert "n_factors" in capsys.readouterr().err

    # int() would run 1.7 as one factor and read "3" as three.
    @pytest.mark.parametrize("n_factors, code", [
        (3, 0), (3.0, 0), (1.7, 2), (2.5, 2), ("3", 2)])
    def test_n_factors_must_be_an_integer(self, workdir, tmp_path, capsys,
                                          n_factors, code):
        (tmp_path / "v.json").write_text(json.dumps({"n_factors": n_factors}))
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(workdir / "instruments.json"),
                   "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert rc == code
        if code:
            assert err.startswith("input error:") and err.count("\n") == 1
            assert f"n_factors must be an integer, got {n_factors!r}" in err

    def test_wrong_vol_section_type_is_2(self, workdir, tmp_path, capsys):
        bad = dict(VOLS, collateral=[1, 2])
        (tmp_path / "v.json").write_text(json.dumps(bad))
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"), "--paths", "4"])
        assert rc == 2
        assert "'collateral' must be a JSON object" in capsys.readouterr().err

    def test_wrong_curve_set_section_type_is_2(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "curves.json").read_text())
        doc["spreads"] = "x"
        (tmp_path / "c.json").write_text(json.dumps(doc))
        rc = main(["diagnose", str(tmp_path / "c.json"),
                   "--vols", str(workdir / "vols.json"), "--paths", "4"])
        assert rc == 2
        assert "'spreads' must be a JSON object" in capsys.readouterr().err

    def test_unknown_curve_set_section_is_2(self, workdir, tmp_path, capsys):
        # A misspelled section would leave every spread at the identity.
        doc = json.loads((workdir / "curves.json").read_text())
        doc["spred"] = doc.pop("spreads")
        (tmp_path / "c.json").write_text(json.dumps(doc))
        rc = main(["diagnose", str(tmp_path / "c.json"),
                   "--vols", str(workdir / "vols.json"), "--paths", "4"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'c.json'}: "
            "unknown curve-set section 'spred'\n")

    def test_forwards_under_both_collaterals_is_2(self, tmp_path, capsys):
        # Each collateral would give the pair a spread curve of its own
        # orientation, and Black and the simulation could read different ones.
        text = MARKET + "fxforward,USD,EUR,EUR,1.0,1.0924\n"
        (tmp_path / "m.csv").write_text(text)
        rc = main(["bootstrap", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'm.csv'}: fxforward quotes for "
            "EUR/USD come in more than one orientation or collateral\n")
        assert not (tmp_path / "c.json").exists()

    def test_object_loading_is_2(self, workdir, tmp_path, capsys):
        bad = dict(VOLS, collateral={"USD": {"a": 1}})
        (tmp_path / "v.json").write_text(json.dumps(bad))
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(workdir / "instruments.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_non_string_base_is_2(self, workdir, tmp_path, capsys):
        doc = json.loads((workdir / "curves.json").read_text())
        doc["base"] = ["USD"]
        (tmp_path / "c.json").write_text(json.dumps(doc))
        rc = main(["price", str(tmp_path / "c.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(workdir / "instruments.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and "base" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method", ["black", "mc", "both"])
    def test_non_finite_result_is_2(self, workdir, tmp_path, capsys, method):
        bad = dict(VOLS, collateral={"USD": [1e308, 1e308, 0.0]})
        (tmp_path / "v.json").write_text(json.dumps(bad))
        out = tmp_path / "r.json"
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(workdir / "instruments.json"),
                   "--method", method, "--paths", "8", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error: opt: ") and "not finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bootstrap", "price", "diagnose"])
    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_is_2(self, workdir, tmp_path, capsys, command,
                                    flag):
        model = [str(workdir / "curves.json"),
                 "--vols", str(workdir / "zero_vols.json"), "--paths", "4"]
        inputs = {
            "bootstrap": [str(workdir / "market.csv")],
            "price": model + ["--instruments",
                              str(workdir / "instruments.json")],
            "diagnose": model,
        }
        # Of two --out flags the later wins, so one argv serves both flags.
        argv = [command, *inputs[command], "--out", str(tmp_path / "r.json"),
                flag, str(tmp_path / "missing" / "x")]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and "cannot write" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, content", [
        ("market.csv", MARKET.encode().replace(b"base,USD", b"base,US\xff")),
        ("market.csv", MARKET.encode() + b"equity,USD,2.5," + b"1" * 131_073),
        ("vols.json", json.dumps(VOLS).encode().replace(b"USD", b"US\xff", 1)),
        ("vols.json", b"[" * 100_000 + b"]" * 100_000),
        ("vols.json", b'{"n_factors": ' + b"1" * 5_000 + b"}"),
    ], ids=["csv-byte", "csv-long-field", "json-byte", "json-deep",
            "json-digits"])
    def test_malformed_bytes_are_2(self, workdir, tmp_path, capsys, name,
                                   content):
        path = tmp_path / name
        path.write_bytes(content)
        if name == "market.csv":
            argv = ["bootstrap", str(path), "--out", str(tmp_path / "c.json")]
        else:
            argv = ["diagnose", str(workdir / "curves.json"),
                    "--vols", str(path), "--paths", "4"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_unsolvable_quote_is_3(self, tmp_path, capsys):
        text = "grid,0,1.0\nbase,USD\nois,USD,1.0,-3.0\n"
        (tmp_path / "m.csv").write_text(text)
        rc = main(["bootstrap", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "c.json")])
        assert rc == 3
        assert "calibration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price", "diagnose"])
    def test_out_of_memory_is_2(self, workdir, capsys, monkeypatch, command):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("colmm.engine._block_normals", exhausted)
        argv = [command, str(workdir / "curves.json"),
                "--vols", str(workdir / "vols.json"), "--paths", "200000000"]
        if command == "price":
            argv += ["--instruments", str(workdir / "instruments.json"),
                     "--method", "mc"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and "--paths 200000000" in err
        assert err.count("\n") == 1

    def test_bad_paths_value_is_2(self, workdir, capsys):
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"), "--paths", "1"])
        assert rc == 2
        capsys.readouterr()

    # The parser stops before any file is opened, so none need exist.
    @pytest.mark.parametrize("argv, message", [
        (["price", "c.json", "--vols", "v.json", "--instruments", "i.json",
          "--paths", "1e5"], "argument --paths: invalid int value: '1e5'"),
        (["price", "c.json", "--vols", "v.json", "--instruments", "i.json",
          "--method", "exact"], "argument --method: invalid choice: 'exact' "
                                "(choose from 'black', 'mc', 'both')"),
        (["diagnose", "c.json"],
         "the following arguments are required: --vols"),
        (["diagnose", "c.json", "--vols", "v.json", "--seeds", "3"],
         "unrecognized arguments: --seeds 3")],
        ids=["bad-int", "bad-choice", "missing-flag", "unknown-flag"])
    def test_usage_error_is_one_line_and_2(self, capsys, argv, message):
        # argparse would print its usage block and raise SystemExit(2).
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["price", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: colmm price ")

    @pytest.mark.parametrize("command", ["price", "diagnose"])
    def test_one_pair_is_2(self, workdir, capsys, command):
        # One antithetic pair has no spread: it would claim an exact price
        # (SE 0.0) in price and an infinite z in diagnose.
        argv = [command, str(workdir / "curves.json"),
                "--vols", str(workdir / "vols.json"), "--paths", "2"]
        if command == "price":
            argv += ["--instruments", str(workdir / "instruments.json"),
                     "--method", "mc"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == "input error: <flags>: need at least 4 paths, got 2\n"

    @pytest.mark.parametrize("command", ["price", "diagnose"])
    @pytest.mark.parametrize("paths", [2 ** 62, 2 ** 64, 10 ** 23])
    def test_unsizeable_paths_are_2(self, tmp_path, capsys, command, paths):
        # Counts whose arrays numpy cannot size are rejected before any
        # path array is allocated.
        (tmp_path / "m.csv").write_text(
            "grid,0,0.5,1.0\nbase,USD\nois,USD,0.5,0.02\nois,USD,1.0,0.021\n"
            "ois,EUR,0.5,0.01\nois,EUR,1.0,0.011\nspot,USD,EUR,1.08\n")
        (tmp_path / "v.json").write_text(json.dumps(
            {"n_factors": 1, "fx": {"USD/EUR": [0.1]}}))
        (tmp_path / "i.json").write_text(json.dumps(
            [dict(INSTRUMENTS[3], maturity=1.0)]))
        assert main(["bootstrap", str(tmp_path / "m.csv"),
                     "--out", str(tmp_path / "c.json")]) == 0
        capsys.readouterr()
        argv = [command, str(tmp_path / "c.json"), "--vols",
                str(tmp_path / "v.json"), "--paths", str(paths)]
        if command == "price":
            argv += ["--instruments", str(tmp_path / "i.json"),
                     "--method", "mc"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"input error: out of memory: cannot allocate the "
                       f"arrays for --paths {paths}\n")

    @pytest.mark.parametrize("where", ["maturity", "collateral", "fx",
                                       "spot_fx"])
    def test_huge_json_integer_is_2(self, workdir, tmp_path, capsys, where):
        huge = 10 ** 400
        curves = json.loads((workdir / "curves.json").read_text())
        vols = json.loads(json.dumps(VOLS))
        instruments = json.loads(json.dumps(INSTRUMENTS))
        if where == "maturity":
            instruments[0]["maturity"] = huge
        elif where == "spot_fx":
            curves["spot_fx"]["USD/EUR"] = huge
        else:
            key = "USD" if where == "collateral" else "USD/EUR"
            vols[where][key][0] = huge
        for name, doc in [("c.json", curves), ("v.json", vols),
                          ("i.json", instruments)]:
            (tmp_path / name).write_text(json.dumps(doc))
        rc = main(["price", str(tmp_path / "c.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(tmp_path / "i.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and err.count("\n") == 1

    # Black would read one orientation and Monte Carlo the other.
    @pytest.mark.parametrize("section, pair", [
        ("fx", "USD/EUR"), ("funding", "EUR/USD")])
    def test_pair_in_both_orientations_is_2(self, workdir, tmp_path, capsys,
                                             section, pair):
        vols = json.loads(json.dumps(VOLS))
        pay, col = pair.split("/")
        vols[section][f"{col}/{pay}"] = [0.01, 0.0, 0.0]
        (tmp_path / "v.json").write_text(json.dumps(vols))
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(workdir / "instruments.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and err.count("\n") == 1
        assert f"{section}: pair {pair} is also given as {col}/{pay}" in err

    # Every factor is positive, but D * Y of EUR at T = 1 (1e-160 * 1e-200)
    # and the USD/EUR forward at T = 0.5 (1e-200 * 1e-160) underflow to 0.
    @pytest.mark.parametrize("inst, what", [
        ({"type": "zcb", "currency": "EUR", "collateral": "USD",
          "maturity": 1.0}, "discount of EUR margined in USD at T=1"),
        ({"type": "fx_forward", "pay": "EUR", "receive": "USD",
          "collateral": "USD", "maturity": 1.0},
         "discount of EUR margined in USD at T=1"),
        ({"type": "fx_option", "pay": "USD", "receive": "EUR",
          "collateral": "USD", "maturity": 1.0, "strike": 1.0,
          "style": "call"}, "discount of EUR margined in USD at T=1"),
        ({"type": "fx_forward", "pay": "USD", "receive": "EUR",
          "collateral": "USD", "maturity": 0.5},
         "forward USD/EUR margined in USD at T=0.5"),
        ({"type": "fx_option", "pay": "USD", "receive": "EUR",
          "collateral": "USD", "maturity": 0.5, "strike": 1.0,
          "style": "put"}, "forward USD/EUR margined in USD at T=0.5"),
    ], ids=["zcb", "fx_forward", "fx_option", "fx_forward-spot",
            "fx_option-spot"])
    def test_underflow_to_zero_is_2(self, workdir, tmp_path, capsys, inst,
                                    what):
        doc = json.loads((workdir / "curves.json").read_text())
        doc["spot_fx"]["USD/EUR"] = 1e-200
        for curve, first, value in ((doc["discounts"]["EUR"], 1, 1e-160),
                                    (doc["spreads"]["EUR/USD"], 2, 1e-200)):
            assert curve["times"][1:3] == [0.5, 1.0]
            curve["values"][first:] = [value] * (len(curve["values"]) - first)
        (tmp_path / "c.json").write_text(json.dumps(doc))
        (tmp_path / "i.json").write_text(json.dumps([inst]))
        rc = main(["price", str(tmp_path / "c.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(tmp_path / "i.json"),
                   "--method", "black"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"configuration error: {what} is 0.0, not positive\n")

    # A loading keyed to a currency with no curve would price as zero vol.
    @pytest.mark.parametrize("section, key, ccy, curve", [
        ("collateral", "EUU", "EUU", "discount"),
        ("libor_ois", "EUU", "EUU", "discount"),
        ("fx", "USD/EUU", "EUU", "discount"),
        ("fx", "EUU/EUR", "EUU", "discount"),
        ("funding", "EUU/USD", "EUU", "discount"),
        ("equity", "EUR", "EUR", "equity"),
    ])
    def test_vol_key_without_curve_is_2(self, workdir, tmp_path, capsys,
                                        section, key, ccy, curve):
        vols = json.loads(json.dumps(VOLS))
        vols[section][key] = [0.01, 0.0, 0.0]
        (tmp_path / "v.json").write_text(json.dumps(vols))
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(workdir / "instruments.json")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"configuration error: vol config {section}: currency {ccy!r} "
            f"has no {curve} curve\n")

    def test_infinite_equity_time_is_2(self, workdir, tmp_path, capsys):
        # json reads Infinity; the equity curve must refuse it as the
        # discount and spread curves do.
        doc = json.loads((workdir / "curves.json").read_text())
        doc["equities"]["USD"] = {"times": [0.5, math.inf],
                                  "values": [102.0, 104.1]}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert "Infinity" in (tmp_path / "c.json").read_text()
        rc = main(["price", str(tmp_path / "c.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(workdir / "instruments.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and err.count("\n") == 1
        assert "equity curve USD: pillars must be finite" in err

    # float(), int() and numpy read true and false as 1 and 0; each of these
    # edits would otherwise price silently (or fail naming another field).
    @pytest.mark.parametrize("doc, where, value, field", [
        ("i.json", (0, "maturity"), True, "maturity"),
        ("i.json", (3, "strike"), True, "strike"),
        ("v.json", ("n_factors",), True, "n_factors"),
        ("v.json", ("collateral", "USD", 1), False, "collateral.USD"),
        ("v.json", ("fx", "USD/EUR", 1), True, "fx.USD/EUR"),
        ("c.json", ("grid", 0), False, "grid"),
        ("c.json", ("discounts", "USD", "values", 0), True,
         "discounts.USD.values"),
        ("c.json", ("spreads", "EUR/USD", "times", 0), False,
         "spreads.EUR/USD.times"),
        ("c.json", ("spot_fx", "USD/EUR"), True, "spot_fx.USD/EUR"),
        ("c.json", ("fixings", "USD", 0), False, "fixings.USD"),
    ])
    def test_json_boolean_number_is_2(self, workdir, tmp_path, capsys, doc,
                                      where, value, field):
        docs = {"c.json": json.loads((workdir / "curves.json").read_text()),
                "v.json": json.loads(json.dumps(VOLS)),
                "i.json": json.loads(json.dumps(INSTRUMENTS))}
        *keys, last = where
        reduce(getitem, keys, docs[doc])[last] = value
        for name, content in docs.items():
            (tmp_path / name).write_text(json.dumps(content))
        rc = main(["price", str(tmp_path / "c.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(tmp_path / "i.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and err.count("\n") == 1
        assert f"{field}: expected a number, got {json.dumps(value)}" in err

    # json reads 1e400 as inf, and the literals Infinity and NaN as well.
    @pytest.mark.parametrize("field", ["strike", "maturity"])
    @pytest.mark.parametrize("literal, shown", [
        ("1e400", "inf"), ("Infinity", "inf"), ("-Infinity", "-inf"),
        ("NaN", "nan")])
    def test_non_finite_instrument_number_is_2(self, workdir, tmp_path, capsys,
                                               field, literal, shown):
        insts = json.loads(json.dumps(INSTRUMENTS))
        insts[3][field] = "@"
        (tmp_path / "i.json").write_text(
            json.dumps(insts).replace('"@"', literal))
        rc = main(["price", str(workdir / "curves.json"),
                   "--vols", str(workdir / "vols.json"),
                   "--instruments", str(tmp_path / "i.json"),
                   "--method", "black"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and err.count("\n") == 1
        assert err.endswith(
            f"instrument 3: {field}: expected a finite number, got {shown}\n")

    def test_spread_factor_without_finite_reciprocal_is_3(self, tmp_path,
                                                          capsys):
        # Y(4) is about 1e-309: finite and positive, but the reversed
        # pair's pillar 1 / Y is not.
        quote = "fxforward,USD,EUR,USD,4.0,"
        assert quote + "1.1312" in MARKET
        (tmp_path / "m.csv").write_text(
            MARKET.replace(quote + "1.1312", quote + "1e-309"))
        rc = main(["bootstrap", str(tmp_path / "m.csv"),
                   "--out", str(tmp_path / "c.json")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("calibration error: FX forward at T=4.0 ")
        assert err.endswith("whose reciprocal is not finite\n")
        assert err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("command", ["price", "diagnose"])
    def test_subnormal_spread_pillar_is_2(self, workdir, tmp_path, capsys,
                                          command):
        # The curve set holds the reversed pair's curve from the start, so
        # a pillar whose reciprocal is inf fails at load, in one line.
        doc = json.loads((workdir / "curves.json").read_text())
        doc["spreads"]["EUR/USD"]["values"][-1] = 9e-310
        (tmp_path / "c.json").write_text(json.dumps(doc))
        (tmp_path / "i.json").write_text(json.dumps([
            {"type": "zcb", "currency": "USD", "collateral": "EUR",
             "maturity": 4.0}]))
        argv = [command, str(tmp_path / "c.json"),
                "--vols", str(workdir / "vols.json"), "--paths", "4"]
        if command == "price":
            argv += ["--instruments", str(tmp_path / "i.json")]
        rc = main(argv)
        assert rc == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'c.json'}: bad curve data: spread "
            f"curve (EUR,USD): a pillar's reciprocal is not finite\n")

    def test_too_many_workers_is_2(self, workdir, capsys, monkeypatch):
        # The count is refused before any thread starts; with --paths 4 a
        # broken check would still start no more than two.
        monkeypatch.setenv("COLMM_WORKERS", "100000")
        rc = main(["diagnose", str(workdir / "curves.json"),
                   "--vols", str(workdir / "zero_vols.json"),
                   "--paths", "4"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "configuration error: COLMM_WORKERS must be in [1, 64], "
            "got 100000\n")

    def test_payoff_error_on_a_worker_thread_is_2(self, workdir, capsys,
                                                  monkeypatch):
        # A payoff that raises on a worker thread ends the run as it does
        # inline: one line and exit 2, whatever the worker count.  The
        # LIBOR-OIS rows are described reads, so the grouped read raises;
        # the first one settles the step's nodes from node 1 on, and USD
        # is the only currency with LIBOR-OIS spreads.
        import threading
        from colmm.dynamics import PathState
        from colmm.errors import ConfigurationError
        seen = set()

        def broken(self, reads, out, at=0):
            seen.add(threading.current_thread())
            raise ConfigurationError(
                f"no spread for USD at {self.nodes[0]}")

        monkeypatch.setattr(PathState, "read", broken)
        results = []
        for workers in ("1", "2"):
            monkeypatch.setenv("COLMM_WORKERS", workers)
            rc = main(["diagnose", str(workdir / "curves.json"),
                       "--vols", str(workdir / "vols.json"), "--paths", "400"])
            results.append((rc, *capsys.readouterr()))
        assert results[0] == results[1] == (
            2, "", "configuration error: no spread for USD at 1\n")
        # Inline on the main thread, then on one thread per block.
        assert len(seen) == 3 and threading.main_thread() in seen

    # float() and numpy parse a numeric string, so each of these edits
    # would otherwise price as the number it spells.
    @pytest.mark.parametrize("doc, where, value, field", [
        ("c.json", ("grid", 1), "0.5", "grid"),
        ("c.json", ("discounts", "EUR", "values", 1), "0.99",
         "discounts.EUR.values"),
        ("c.json", ("fixings", "USD", 0), "0.0015", "fixings.USD"),
        ("c.json", ("spot_fx", "USD/EUR"), "1.08", "spot_fx.USD/EUR"),
        ("v.json", ("collateral", "USD", 0), "0.009", "collateral.USD"),
        ("v.json", ("fx", "USD/EUR", 0), None, "fx.USD/EUR"),
        ("i.json", (0, "maturity"), " 2.0 ", "maturity"),
        ("i.json", (3, "strike"), "1.1", "strike"),
    ])
    def test_json_string_number_is_2(self, workdir, tmp_path, capsys, doc,
                                     where, value, field):
        docs = {"c.json": json.loads((workdir / "curves.json").read_text()),
                "v.json": json.loads(json.dumps(VOLS)),
                "i.json": json.loads(json.dumps(INSTRUMENTS))}
        *keys, last = where
        reduce(getitem, keys, docs[doc])[last] = value
        for name, content in docs.items():
            (tmp_path / name).write_text(json.dumps(content))
        rc = main(["price", str(tmp_path / "c.json"),
                   "--vols", str(tmp_path / "v.json"),
                   "--instruments", str(tmp_path / "i.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("input error:") and err.count("\n") == 1
        assert f"{field}: expected a number, got {json.dumps(value)}" in err

    def test_spot_pair_in_both_orientations_is_2(self, workdir, tmp_path,
                                                 capsys):
        # Black would read the EUR/USD quote and the simulation the
        # reciprocal of USD/EUR.  A spread pair keeps the same rule: Black
        # would read one curve and the simulation the other.
        curve = {"times": [0.0, 4.0], "values": [1.0, 1.01]}
        for section, pair, value in [("spot_fx", "USD/EUR", 0.8),
                                     ("spreads", "EUR/USD", curve)]:
            doc = json.loads((workdir / "curves.json").read_text())
            pay, col = pair.split("/")
            doc[section][f"{col}/{pay}"] = value
            (tmp_path / "c.json").write_text(json.dumps(doc))
            rc = main(["price", str(tmp_path / "c.json"),
                       "--vols", str(workdir / "vols.json"),
                       "--instruments", str(workdir / "instruments.json")])
            assert rc == 2
            assert capsys.readouterr().err == (
                f"input error: {tmp_path / 'c.json'}: bad curve data: "
                f"{section}: pair {pair} is also given as {col}/{pay}; "
                "give one orientation\n")

    @pytest.mark.parametrize("section, key, curve", [
        ("discounts", "EUR", "discount curve EUR"),
        ("spreads", "USD/EUR", "spread curve (USD,EUR)"),
        ("spreads", "EUR/USD", "spread curve (EUR,USD)")])
    def test_curve_short_of_the_grid_has_one_message(self, workdir, tmp_path,
                                                     capsys, section, key,
                                                     curve):
        # The curve ends at 1.0 on a grid to 4.0.  The interpolator refuses
        # the lookup, for a simulation as for diagnose's targets.  Both
        # name the stored spread pair, whichever orientation they read
        # first: diagnose's targets read (base, EUR), and the simulation
        # reads the pairs in sorted order.
        doc = json.loads((workdir / "curves.json").read_text())
        doc["spreads"] = {}
        doc[section][key] = {"times": [0.0, 0.5, 1.0],
                             "values": [1.0, 0.995, 0.99]}
        (tmp_path / "c.json").write_text(json.dumps(doc))
        (tmp_path / "i.json").write_text(json.dumps(INSTRUMENTS[3:4]))
        model = [str(tmp_path / "c.json"), "--vols",
                 str(workdir / "zero_vols.json"), "--paths", "4"]
        errs = []
        for argv in (["price", *model, "--instruments", str(tmp_path / "i.json"),
                      "--method", "mc"], ["diagnose", *model]):
            assert main(argv) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == (
            f"configuration error: {curve}: time 1.5 outside pillar range "
            f"[0.0, 1.0] (no extrapolation)\n")


# USD, EUR and GBP, spots from the base only, and EUR/GBP forwards
# collateralized in EUR, so that an EUR/GBP option prices.
THREE_CCY = """\
grid,0,0.5,1.0,1.5,2.0
base,USD
ois,USD,1.0,0.020
ois,USD,2.0,0.021
ois,EUR,1.0,0.010
ois,EUR,2.0,0.011
ois,GBP,1.0,0.030
ois,GBP,2.0,0.031
spot,USD,EUR,1.1
spot,USD,GBP,1.3
fxforward,EUR,GBP,EUR,1.0,1.158
fxforward,EUR,GBP,EUR,2.0,1.135
"""

EUR_GBP_CALL = {"type": "fx_option", "pay": "EUR", "receive": "GBP",
                "collateral": "EUR", "maturity": 2.0, "strike": 1.18,
                "style": "call", "label": "call"}


class TestFxTables:
    """Every simulated FX leg is X(base, ccy) and every spread account is
    (base, c): the spot and fx pair tables are trees, every fx pair reaches
    the base, and every funding pair holds it."""

    @pytest.fixture
    def three(self, tmp_path, capsys):
        (tmp_path / "m.csv").write_text(THREE_CCY)
        (tmp_path / "i.json").write_text(json.dumps([EUR_GBP_CALL]))
        assert main(["bootstrap", str(tmp_path / "m.csv"),
                     "--out", str(tmp_path / "c.json")]) == 0
        capsys.readouterr()
        return tmp_path

    def run(self, d, command, fx, *flags, **sections):
        (d / "v.json").write_text(
            json.dumps({"n_factors": 1, "fx": fx, **sections}))
        argv = [command, str(d / "c.json"), "--vols", str(d / "v.json"),
                "--paths", "400", *flags]
        if command == "price":
            argv += ["--instruments", str(d / "i.json"), "--method", "both"]
        return main(argv)

    # Under base USD the EUR/GBP loading enters no leg X(USD, ccy): Monte
    # Carlo would price the call at zero vol.
    @pytest.mark.parametrize("command", ["price", "diagnose"])
    def test_fx_pair_off_the_base_is_2(self, three, capsys, command):
        assert self.run(three, command, {"EUR/GBP": 0.2}) == 2
        assert capsys.readouterr().err == (
            "configuration error: vol config fx: no chain of fx pairs links "
            "currency 'EUR' to the base 'USD'\n")
        assert self.run(three, "price", {"EUR/GBP": 0.2},
                        "--base-ccy", "EUR") == 0
        assert self.run(three, command, {"USD/EUR": 0.1, "EUR/GBP": 0.1}) == 0

    # Under base USD no simulated account reads a EUR/GBP funding loading:
    # Black would price it and Monte Carlo drop it.
    @pytest.mark.parametrize("command", ["price", "diagnose"])
    def test_funding_pair_off_the_base_is_2(self, three, capsys, command):
        fx, funding = {"USD/EUR": 0.1, "EUR/GBP": 0.1}, {"EUR/GBP": 0.002}
        assert self.run(three, command, fx, funding=funding) == 2
        assert capsys.readouterr().err == (
            "configuration error: vol config funding: pair EUR/GBP does not "
            "hold the base 'USD'\n")
        assert self.run(three, command, fx, "--base-ccy", "EUR",
                        funding=funding) == 0

    # Black would read the direct quote or loading and the simulation the
    # chain through the base; a triangle that agrees is refused too.
    @pytest.mark.parametrize("cross", ["1.0", repr(1.3 / 1.1)],
                             ids=["cycle", "consistent"])
    def test_spot_cycle_in_a_market_file_is_2(self, tmp_path, capsys, cross):
        (tmp_path / "m.csv").write_text(THREE_CCY + f"spot,EUR,GBP,{cross}\n")
        assert main(["bootstrap", str(tmp_path / "m.csv"),
                     "--out", str(tmp_path / "c.json")]) == 2
        assert capsys.readouterr().err == (
            f"input error: {tmp_path / 'm.csv'}: spot_fx: pair EUR/GBP closes "
            "a cycle: the pairs before it already link EUR and GBP; the pairs "
            "must form a tree\n")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("cross", [1.0, 1.3 / 1.1],
                             ids=["cycle", "consistent"])
    def test_spot_cycle_in_a_curve_set_is_2(self, three, capsys, cross):
        doc = json.loads((three / "c.json").read_text())
        doc["spot_fx"]["EUR/GBP"] = cross
        (three / "c.json").write_text(json.dumps(doc))
        assert self.run(three, "price", {"USD/EUR": 0.1}) == 2
        assert capsys.readouterr().err == (
            f"input error: {three / 'c.json'}: bad curve data: spot_fx: pair "
            "EUR/GBP closes a cycle: the pairs before it already link EUR and "
            "GBP; the pairs must form a tree\n")

    @pytest.mark.parametrize("cross", [0.05, 0.2], ids=["cycle", "sum"])
    def test_fx_cycle_in_a_vol_config_is_2(self, three, capsys, cross):
        fx = {"USD/EUR": 0.1, "EUR/GBP": 0.1, "USD/GBP": cross}
        assert self.run(three, "price", fx) == 2
        assert capsys.readouterr().err == (
            f"input error: {three / 'v.json'}: fx: pair USD/GBP closes a "
            "cycle: the pairs before it already link USD and GBP; the pairs "
            "must form a tree\n")


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestOutputForm:
    """Every JSON document written is json.dumps(sort_keys=True, indent=2)
    of itself plus a newline: colmm's writer must not drift from json's."""

    def test_curve_set(self, workdir):
        text = (workdir / "curves.json").read_text()
        assert text == _canonical(text)

    @pytest.mark.parametrize("flags", [
        ["price", "--method", "black"], ["price", "--method", "mc"],
        ["price", "--method", "both"], ["diagnose"],
        ["diagnose", "--corrupt-drift-c"]])
    def test_report_file_and_stdout(self, workdir, tmp_path, capsys, flags):
        argv = [flags[0], str(workdir / "curves.json"),
                "--vols", str(workdir / "vols.json"), "--paths", "400",
                *flags[1:]]
        if flags[0] == "price":
            argv += ["--instruments", str(workdir / "instruments.json")]
        out = tmp_path / "report.json"
        rc = main(argv + ["--out", str(out)])
        assert rc in (0, 4)
        capsys.readouterr()
        assert main(argv) == rc
        for text in (out.read_text(), capsys.readouterr().out):
            assert text == _canonical(text)


class TestParserReuse:
    """`main` builds its parser once per process and dispatches by name."""

    def price_argv(self, workdir, out):
        return ["price", str(workdir / "curves.json"),
                "--vols", str(workdir / "vols.json"),
                "--instruments", str(workdir / "instruments.json"),
                "--method", "both", "--paths", "400", "--out", str(out)]

    def test_parser_is_built_once(self, workdir, tmp_path, capsys,
                                  monkeypatch):
        argv = self.price_argv(workdir, tmp_path / "report.json")
        assert main(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        assert main(argv) == 0
        assert main(["bootstrap", str(workdir / "market.csv"),
                     "--out", str(tmp_path / "c.json")]) == 0
        assert main(["diagnose", str(workdir / "curves.json"),
                     "--vols", str(workdir / "zero_vols.json"),
                     "--paths", "4", "--out", str(tmp_path / "d.json")]) == 0
        assert main(["price", "--paths", "x"]) == 2
        capsys.readouterr()
        assert built == []

    def test_reuse_holds_no_state(self, workdir, tmp_path, capsys):
        curves = tmp_path / "curves.json"
        assert main(["bootstrap", str(workdir / "market.csv"),
                     "--out", str(curves)]) == 0
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        argv = self.price_argv(workdir, first)
        argv[1] = str(curves)
        assert main(argv) == 0
        assert main(["price", str(curves), "--paths", "1e5"]) == 2
        assert main(["price", str(tmp_path / "nope.json"),
                     "--vols", str(workdir / "vols.json"),
                     "--instruments", str(workdir / "instruments.json")]) == 2
        assert main(argv[:-1] + [str(second)]) == 0
        capsys.readouterr()
        assert second.read_bytes() == first.read_bytes()

    def test_dispatch_reads_the_handler_per_call(self, workdir, tmp_path,
                                                 capsys, monkeypatch):
        import colmm.cli as cli

        argv = ["bootstrap", str(workdir / "market.csv"),
                "--out", str(tmp_path / "c.json")]
        assert main(argv) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_bootstrap",
                            lambda args: seen.append(args.market) or 5)
        assert main(argv) == 5
        assert seen == [argv[1]]
        capsys.readouterr()

    def test_import_builds_no_parser(self):
        src = Path(colmm.__file__).resolve().parents[1]
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting_init(self, *args, **kwargs):\n"
                "    built.append(1)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting_init\n"
                "import colmm.cli\n"
                "print(len(built))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)}).stdout
        assert out.split() == ["0"]


def test_every_traced_layer_still_resolves(monkeypatch):
    # The benchmark's tracer patches colmm by name; a renamed function would
    # silently drop its layer from the traced metrics.  The hooks allowed to
    # be absent are the functions deleted from colmm, which no program
    # calls, until the tracer's hook list drops them.
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", root / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    deleted = {"colmm.cli.fx_option_mc", "colmm.pricers.simulate",
               *(f"colmm.dynamics.PathState.{name}" for name in
                 ("zcb", "spread_zcb", "account", "pair_account",
                  "initial")),
               *(f"colmm.dynamics.{family}_drift_vector" for family in
                 ("funding", "libor_ois", "equity"))}
    assert set(tracer.absent) <= deleted


def test_import_loads_no_scipy_or_numpy_random():
    src = Path(colmm.__file__).resolve().parents[1]
    code = ("import sys, colmm, colmm.cli; print(' '.join(m for m in sys.modules"
            " if m.startswith(('scipy', 'numpy.random'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == []


def test_import_loads_no_thread_pool():
    # Workers are plain threads: concurrent.futures, and the logging,
    # traceback and string modules it pulls in, stay unloaded.
    src = Path(colmm.__file__).resolve().parents[1]
    code = ("import sys, colmm, colmm.cli; print(' '.join(m for m in ("
            "'concurrent.futures', 'logging', 'traceback', 'string')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == []
