"""Acceptance gate: one numbered criterion per test, one pass/fail line each.

Run with -s to see the table; every criterion states its own tolerance.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from colmm import (
    CurveSet,
    DiscountCurve,
    FxForwardSpec,
    FxOptionSpec,
    GridPayoff,
    Model,
    SimulationConfig,
    SpreadCurve,
    SpreadFixings,
    TenorStructure,
    VolatilitySpec,
    build_curve_set,
    fx_forward,
    fx_option_black,
    parse_market_csv,
    repricing_residuals,
    simulate_many,
)
from colmm.cli import main
from colmm.dynamics import collateral_drift_vector
from colmm.pricers import fx_option_payoff

from conftest import flat_curve, flat_spread


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)


TS8 = TenorStructure(np.linspace(0.0, 4.0, 9))

MARKET = """\
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


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Market CSV, bootstrapped curve set, vol configs, instrument list."""
    d = tmp_path_factory.mktemp("acceptance")
    (d / "market.csv").write_text(MARKET)
    vols = {
        "n_factors": 3,
        "collateral": {"USD": [0.009, 0.0, 0.0], "EUR": [0.002, 0.008, 0.0]},
        "libor_ois": {"USD": [0.0, 0.1, 0.15]},
        "equity": {"USD": [0.05, 0.0, 0.18]},
        "funding": {"EUR/USD": [0.0, 0.002, 0.002]},
        "fx": {"USD/EUR": [0.04, -0.08, 0.02]},
    }
    (d / "vols.json").write_text(json.dumps(vols))
    (d / "zero_vols.json").write_text(json.dumps({"n_factors": 1}))
    instruments = [
        {"type": "zcb", "currency": "EUR", "collateral": "USD",
         "maturity": 2.0},
        {"type": "fx_forward", "pay": "USD", "receive": "EUR",
         "collateral": "USD", "maturity": 2.0},
        {"type": "fx_option", "pay": "USD", "receive": "EUR",
         "collateral": "USD", "maturity": 2.0, "strike": 1.10,
         "style": "call"},
        {"type": "equity_forward", "currency": "USD", "maturity": 1.5},
    ]
    (d / "instruments.json").write_text(json.dumps(instruments))
    assert main(["bootstrap", str(d / "market.csv"),
                 "--out", str(d / "curves.json")]) == 0
    return d


def _criterion2_model():
    """One currency, flat 2% curve, 1% rate vol, 20% spread vol, 0.5% basis vol."""
    nodes = TS8.nodes
    curves = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes)},
        spreads={("USD", "COL"): flat_spread("USD", "COL", 0.002, nodes)},
        fixings={"USD": SpreadFixings("USD", np.full(8, 0.003))},
    )
    vols = VolatilitySpec(
        n_factors=3, n_buckets=8,
        collateral={"USD": [0.01, 0.0, 0.0]},
        libor_ois={"USD": [0.0, 0.2, 0.0]},
        funding={("USD", "COL"): [0.0, 0.0, 0.005]},
    )
    return Model(TS8, curves, vols, "USD")


def _criterion2_payoffs(model):
    disc = model.curves.discount_curve("USD")
    spread = model.curves.spread_curve("USD", "COL")
    fix = model.curves.fixings["USD"]
    payoffs, targets = {}, {}
    for n in range(1, 9):
        T = float(TS8.nodes[n])
        payoffs[f"zcb {n}"] = GridPayoff(
            lambda st: np.ones(st.n_paths), T, "USD", "USD")
        targets[f"zcb {n}"] = disc.discount(T)
        payoffs[f"pair {n}"] = GridPayoff(
            lambda st: np.ones(st.n_paths), T, "USD", "COL")
        targets[f"pair {n}"] = disc.discount(T) * spread.value(T)
        payoffs[f"b {n}"] = GridPayoff(
            lambda st, k=n: st.libor_ois("USD", k), T, "USD", "USD")
        targets[f"b {n}"] = fix.value(n - 1) * disc.discount(T)
    return payoffs, targets


def test_criterion_1_drift_telescoping():
    rng = np.random.default_rng(2024)
    deltas = TS8.deltas
    # one warm-up call keeps first-touch numpy costs out of the timing
    warm = VolatilitySpec(n_factors=1, n_buckets=8, collateral={"X": 0.01})
    collateral_drift_vector(warm, TS8, "X")[0]
    np.einsum("nd,nd->n", np.ones((2, 1)), np.ones((2, 1)))
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        d = 1 + trial % 3
        sig = rng.normal(0.0, 0.02, (8, d))
        vols = VolatilitySpec(n_factors=d, n_buckets=8,
                              collateral={"X": sig})
        for t in TS8.nodes:
            k = TS8.q_index(float(t))
            drifts = collateral_drift_vector(vols, TS8, "X")[k]
            lhs = np.concatenate([[0.0], np.cumsum(deltas[k:] * drifts[k:8])])
            w = np.vstack([np.zeros(d),
                           np.cumsum(deltas[k:, None] * sig[k:], axis=0)])
            gaps = np.abs(lhs - 0.5 * np.einsum("nd,nd->n", w, w))
            worst = max(worst, gaps.max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, f"drift telescoping, 100 random specs, worst gap {worst:.2e}, "
               f"{elapsed:.2f}s", ok)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_martingale_suite():
    model = _criterion2_model()
    payoffs, targets = _criterion2_payoffs(model)
    cfg = SimulationConfig(n_paths=100_000, seed=42)
    start = time.perf_counter()
    estimates = simulate_many(model, cfg, payoffs)
    elapsed = time.perf_counter() - start
    worst = max(abs(est.z_score(targets[name]))
                for name, est in estimates.items())
    ok = worst < 4.0 and elapsed < 30.0
    _report(2, f"martingale suite, 24 rows at 1e5 paths, max |z| {worst:.2f}, "
               f"{elapsed:.1f}s", ok)
    assert worst < 4.0
    assert elapsed < 30.0


def test_criterion_3_black_vs_mc():
    nodes = TS8.nodes
    curves = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes)},
        spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
        spot_fx={("USD", "EUR"): 100.0},
    )
    vols = VolatilitySpec(
        n_factors=3, n_buckets=8,
        collateral={"USD": [0.01, 0.0, 0.0], "EUR": [0.0, 0.01, 0.0]},
        funding={("EUR", "USD"): [0.0, 0.0, 0.003]},
        fx={("USD", "EUR"): [0.06, -0.08, 0.0]},
    )
    model = Model(TS8, curves, vols, "USD")
    cfg = SimulationConfig(n_paths=100_000, seed=42)
    start = time.perf_counter()
    worst_gap, worst_se = 0.0, 0.0
    for coll in ("USD", "EUR"):
        fwd = fx_forward(curves, FxForwardSpec("USD", "EUR", coll, 2.0))
        for frac in (0.8, 1.0, 1.2):
            spec = FxOptionSpec("USD", "EUR", coll, 2.0, frac * fwd)
            ref = fx_option_black(curves, vols, TS8, spec)
            est = simulate_many(model, cfg, {"p": fx_option_payoff(spec)})["p"]
            worst_gap = max(worst_gap, abs(est.mean - ref) / est.std_error)
            worst_se = max(worst_se, est.std_error)
    elapsed = time.perf_counter() - start
    ok = worst_gap < 3.0 and worst_se < 0.15 and elapsed < 60.0
    _report(3, f"Black vs MC, 6 options, worst |gap|/SE {worst_gap:.2f}, "
               f"max SE {worst_se:.3f}, {elapsed:.1f}s", ok)
    assert worst_gap < 3.0
    assert worst_se < 0.15
    assert elapsed < 60.0


def test_criterion_4_triangle_identity():
    rng = np.random.default_rng(77)
    nodes = TS8.nodes
    discounts, spreads = {}, {}
    for ccy in ("AAA", "BBB", "CCC"):
        df = np.exp(-np.concatenate([[0.0],
                                     np.cumsum(rng.uniform(0.001, 0.03, 8))]))
        discounts[ccy] = DiscountCurve(ccy, nodes, df)
        if ccy != "AAA":
            y = np.exp(np.concatenate([[0.0],
                                       np.cumsum(rng.uniform(-2e-3, 2e-3, 8))]))
            spreads[(ccy, "AAA")] = SpreadCurve(ccy, "AAA", nodes, y)
    curves = CurveSet(discounts=discounts, spreads=spreads,
                      spot_fx={("AAA", "BBB"): 1.3, ("AAA", "CCC"): 0.8})
    worst = 0.0
    for T in nodes[1:]:
        ab = fx_forward(curves, FxForwardSpec("AAA", "BBB", "AAA", float(T)))
        bc = fx_forward(curves, FxForwardSpec("BBB", "CCC", "AAA", float(T)))
        ac = fx_forward(curves, FxForwardSpec("AAA", "CCC", "AAA", float(T)))
        worst = max(worst, abs(ab * bc / ac - 1.0))
    ok = worst <= 1e-14
    _report(4, f"FX forward triangle identity, worst |ratio-1| {worst:.2e}", ok)
    assert worst <= 1e-14


def test_criterion_5_bootstrap_round_trip(dataset):
    md = parse_market_csv(str(dataset / "market.csv"))
    curves = build_curve_set(md)
    residuals = repricing_residuals(md, curves)
    worst = max(abs(r) for _, r in residuals)
    assert len(md.ois["USD"]) == 8 and len(md.ois["EUR"]) == 8
    assert len(md.fx_forwards[("USD", "EUR", "USD")]) == 8
    spread = curves.spread_curve("EUR", "USD")
    d_usd = curves.discount_curve("USD")
    d_eur = curves.discount_curve("EUR")
    spot = md.spots[("USD", "EUR")]
    invert_exact = True
    for T, quote in md.fx_forwards[("USD", "EUR", "USD")]:
        want = quote / spot * d_usd.discount(T) / d_eur.discount(T)
        invert_exact &= spread.value(T) == want
    ok = worst < 1e-12 and invert_exact
    _report(5, f"bootstrap round trip, {len(residuals)} quotes, worst "
               f"residual {worst:.2e}, pillar inversion exact: {invert_exact}",
            ok)
    assert worst < 1e-12
    assert invert_exact


def test_criterion_6_measure_change():
    nodes = TS8.nodes
    curves = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes)},
        spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
        spot_fx={("USD", "EUR"): 100.0},
    )
    vols = VolatilitySpec(
        n_factors=3, n_buckets=8,
        collateral={"USD": [0.01, 0.0, 0.0], "EUR": [0.0, 0.008, 0.0]},
        funding={("EUR", "USD"): [0.0, 0.001, 0.002]},
        fx={("USD", "EUR"): [0.05, -0.07, 0.02]},
    )
    model = Model(TS8, curves, vols, "USD")
    cfg = SimulationConfig(n_paths=100_000, seed=42)
    payoff = GridPayoff(lambda st: np.ones(st.n_paths), 2.0, "EUR", "EUR")
    est = simulate_many(model, cfg, {"p": payoff})["p"]
    target = curves.discount_curve("EUR").discount(2.0)
    z = est.z_score(target)
    ok = abs(z) < 3.0
    _report(6, f"EUR ZCB via USD-measure simulation: mean {est.mean:.6f}, "
               f"target {target:.6f}, z {z:+.2f}", ok)
    assert abs(z) < 3.0


def test_criterion_7_deterministic_limit(dataset, tmp_path, capsys):
    out = tmp_path / "diag.json"
    rc = main(["diagnose", str(dataset / "curves.json"),
               "--vols", str(dataset / "zero_vols.json"),
               "--paths", "64", "--out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    rows = doc["rows"]
    all_zero_z = all(r["z"] == 0.0 for r in rows)
    all_zero_se = all(r["std_error"] == 0.0 for r in rows)
    worst_rel = max(abs(r["mean"] - r["target"])
                    / max(1.0, abs(r["target"])) for r in rows)
    ok = rc == 0 and all_zero_z and all_zero_se and worst_rel <= 1e-14
    _report(7, f"zero-vol limit, {len(rows)} diagnostics rows, all z == 0: "
               f"{all_zero_z}, all SE == 0: {all_zero_se}, worst "
               f"|mean-target| rel {worst_rel:.2e}", ok)
    assert rc == 0
    assert all_zero_z and all_zero_se
    assert worst_rel <= 1e-14


def test_criterion_8_reproducibility(dataset, tmp_path, monkeypatch, capsys):
    blobs = []
    for workers in ("1", "2", "8"):
        monkeypatch.setenv("COLMM_WORKERS", workers)
        out = tmp_path / f"report_w{workers}.json"
        rc = main(["price", str(dataset / "curves.json"),
                   "--vols", str(dataset / "vols.json"),
                   "--instruments", str(dataset / "instruments.json"),
                   "--method", "both", "--paths", "10000",
                   "--out", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(8, "price reports byte-identical across 1/2/8 workers", ok)
    assert ok


def test_criterion_9_negative_control():
    model = _criterion2_model()
    payoffs, targets = _criterion2_payoffs(model)
    cfg = SimulationConfig(n_paths=100_000, seed=42)
    corrupted = dataclasses.replace(model, half_variance_sign=-1.0)
    estimates = simulate_many(corrupted, cfg, {"zcb 8": payoffs["zcb 8"]})
    z = estimates["zcb 8"].z_score(targets["zcb 8"])
    ok = abs(z) > 4.0
    _report(9, f"flipped convexity sign moves the 4y ZCB to z {z:+.1f}", ok)
    assert abs(z) > 4.0
