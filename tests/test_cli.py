"""End-to-end command line runs: bootstrap, price, diagnose, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
                           fx_option_mc, load_vol_config)
        ts, base, curves = load_curve_set(str(workdir / "curves.json"))
        model = Model(ts, curves,
                      load_vol_config(str(workdir / "vols.json"), ts.n_buckets),
                      base)
        cfg = SimulationConfig(n_paths=2000, seed=5)
        for opt in options:
            spec = FxOptionSpec(opt["pay"], opt["receive"], opt["collateral"],
                                opt["maturity"], opt["strike"],
                                opt["style"] == "call")
            est = fx_option_mc(model, cfg, spec)
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


def test_import_loads_no_scipy_optimize_or_stats():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, colmm, colmm.cli; print(' '.join(m for m in sys.modules"
            " if m.startswith(('scipy.optimize', 'scipy.stats'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.split() == []
