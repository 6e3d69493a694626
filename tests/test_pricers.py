"""Analytic pricers against hand values, parity relations, and the MC engine."""

import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from colmm import (
    ConfigurationError,
    CurveSet,
    DiscountCurve,
    EquityForwardCurve,
    FxForwardSpec,
    FxOptionSpec,
    Model,
    ModelTables,
    PathState,
    SimulationConfig,
    SpreadCurve,
    TenorStructure,
    VolatilitySpec,
    collateralized_zcb,
    equity_forward,
    fx_forward,
    fx_option_black,
    forward_fx_total_stdev,
    simulate_many,
)
from colmm.dynamics import evolve_step
from colmm.pricers import _black, _ndtr, fx_option_payoff

from conftest import flat_curve, flat_spread


@pytest.fixture
def pillar_curves():
    d_usd = DiscountCurve("USD", np.array([0.0, 1.0]), np.array([1.0, 0.99]))
    d_eur = DiscountCurve("EUR", np.array([0.0, 1.0]), np.array([1.0, 0.98]))
    y = SpreadCurve("EUR", "USD", np.array([0.0, 1.0]), np.array([1.0, 0.995]))
    return CurveSet(discounts={"USD": d_usd, "EUR": d_eur},
                    spreads={("EUR", "USD"): y},
                    spot_fx={("USD", "EUR"): 100.0})


class TestCollateralizedZcb:
    def test_own_collateral_is_discount_factor(self, pillar_curves):
        assert collateralized_zcb(pillar_curves, "USD", "USD", 1.0) == 0.99

    def test_spread_multiplies(self, pillar_curves):
        got = collateralized_zcb(pillar_curves, "EUR", "USD", 1.0)
        assert got == pytest.approx(0.98 * 0.995, rel=1e-15)

    def test_value_today_is_one(self, pillar_curves):
        assert collateralized_zcb(pillar_curves, "EUR", "USD", 0.0) == 1.0

    def test_unknown_currency(self, pillar_curves):
        with pytest.raises(ConfigurationError):
            collateralized_zcb(pillar_curves, "JPY", "USD", 1.0)


class TestFxForward:
    def test_common_collateral_hand_value(self, pillar_curves):
        spec = FxForwardSpec("USD", "EUR", "USD", 1.0)
        want = 100.0 * (0.98 * 0.995) / 0.99
        assert fx_forward(pillar_curves, spec) == pytest.approx(want, rel=1e-15)

    def test_no_spread_reduces_to_discount_ratio(self, pillar_curves):
        spec = FxForwardSpec("USD", "EUR", "EUR", 1.0)
        # collateral EUR: the pay leg carries the reciprocal spread
        want = 100.0 * 0.98 / (0.99 / 0.995)
        assert fx_forward(pillar_curves, spec) == pytest.approx(want, rel=1e-14)

    def test_maturity_zero_is_spot(self, pillar_curves):
        spec = FxForwardSpec("USD", "EUR", "USD", 0.0)
        assert fx_forward(pillar_curves, spec) == 100.0

    def test_same_currency_is_one(self, pillar_curves):
        assert fx_forward(pillar_curves, FxForwardSpec("USD", "USD", "EUR", 1.0)) \
            == pytest.approx(1.0, rel=1e-15)

    def test_triangle_consistency(self):
        rng = np.random.default_rng(2)
        times = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        discounts, spreads = {}, {}
        for ccy in ("AAA", "BBB", "CCC"):
            rate = rng.uniform(-0.01, 0.05)
            discounts[ccy] = flat_curve(ccy, rate, times)
            if ccy != "AAA":
                spreads[(ccy, "AAA")] = flat_spread(
                    ccy, "AAA", rng.uniform(-0.003, 0.003), times)
        curves = CurveSet(discounts=discounts, spreads=spreads,
                          spot_fx={("AAA", "BBB"): 1.3, ("AAA", "CCC"): 0.8})
        for t in times[1:]:
            ab = fx_forward(curves, FxForwardSpec("AAA", "BBB", "AAA", t))
            bc = fx_forward(curves, FxForwardSpec("BBB", "CCC", "AAA", t))
            ac = fx_forward(curves, FxForwardSpec("AAA", "CCC", "AAA", t))
            assert ab * bc == pytest.approx(ac, rel=1e-14)


def interval_loop_stdev(vols, ts, pay, receive, collateral, maturity):
    """forward_fx_total_stdev written out: one ddot per interval, in order."""
    n = ts.node_index(maturity)
    gap = ((vols.collateral_loadings(pay)
            + vols.funding_loadings(pay, collateral))
           - (vols.collateral_loadings(receive)
              + vols.funding_loadings(receive, collateral)))
    suffix = np.zeros((n + 1, vols.n_factors))
    suffix[:n] = np.cumsum((ts.deltas[:n, None] * gap[:n])[::-1], axis=0)[::-1]
    total = 0.0
    for a in range(1, n + 1):
        vec = vols.fx_loadings(pay, receive) + suffix[a]
        total += ts.deltas[a - 1] * float(vec @ vec)
    return math.sqrt(total)


class TestTotalStdev:
    def test_stacked_product_is_the_interval_loop(self):
        # 2,000 seeded cases on uneven grids, cross pairs and maturity 0
        # included: the stacked product takes the loop's ddot per interval
        # and adds in its order, so the two agree bit for bit.
        rng = np.random.default_rng(15)
        ccys = ("USD", "EUR", "GBP", "JPY")
        for _ in range(10):
            n, d = 40, int(rng.integers(1, 6))
            ts = TenorStructure(np.concatenate(
                ([0.0], np.cumsum(rng.uniform(0.1, 0.5, n)))))
            vols = VolatilitySpec(
                n_factors=d, n_buckets=n,
                collateral={c: rng.normal(0, 0.01, (n, d)) for c in ccys},
                funding={**{(c, "USD"): rng.normal(0, 0.003, (n, d))
                            for c in ccys[1:]},
                         ("EUR", "GBP"): rng.normal(0, 0.003, (n, d))},
                fx={("USD", c): rng.normal(0, 0.1, d) for c in ccys[1:]})
            for _ in range(200):
                pay, receive, coll = (str(c) for c in rng.choice(ccys, 3))
                T = float(ts.nodes[rng.integers(0, n + 1)])
                want = interval_loop_stdev(vols, ts, pay, receive, coll, T)
                assert forward_fx_total_stdev(
                    vols, ts, pay, receive, coll, T) == want, (pay, receive,
                                                              coll, T)

    def test_fx_vol_only(self, ts8):
        v = VolatilitySpec(n_factors=2, n_buckets=8, fx={("USD", "EUR"): [0.06, 0.08]})
        got = forward_fx_total_stdev(v, ts8, "USD", "EUR", "USD", 2.0)
        assert got == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-14)

    def test_zero_everything(self, ts8):
        v = VolatilitySpec(n_factors=1, n_buckets=8)
        assert forward_fx_total_stdev(v, ts8, "USD", "EUR", "USD", 3.0) == 0.0

    def test_manual_accumulation(self, ts8):
        rng = np.random.default_rng(8)
        sc_u = rng.normal(0, 0.01, (8, 2))
        sc_e = rng.normal(0, 0.01, (8, 2))
        sy = rng.normal(0, 0.003, (8, 2))
        sx = np.array([0.1, -0.05])
        v = VolatilitySpec(n_factors=2, n_buckets=8,
                           collateral={"USD": sc_u, "EUR": sc_e},
                           funding={("EUR", "USD"): sy},
                           fx={("USD", "EUR"): sx})
        n = 4  # T = 2.0
        deltas = ts8.deltas
        gap = (sc_u) - (sc_e + sy)  # pay USD minus receive EUR, collateral USD
        total = 0.0
        for a in range(1, n + 1):
            vec = sx.copy()
            for m in range(a, n):
                vec = vec + deltas[m] * gap[m]
            total += deltas[a - 1] * vec @ vec
        got = forward_fx_total_stdev(v, ts8, "USD", "EUR", "USD", 2.0)
        assert got == pytest.approx(np.sqrt(total), rel=1e-13)

    def test_rate_gap_contributes_even_without_fx_vol(self, ts8):
        v = VolatilitySpec(n_factors=1, n_buckets=8,
                           collateral={"USD": 0.01})
        got = forward_fx_total_stdev(v, ts8, "USD", "EUR", "USD", 1.0)
        assert got > 0.0


@pytest.fixture
def option_setup(ts8):
    nodes = ts8.nodes
    curves = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes)},
        spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
        spot_fx={("USD", "EUR"): 100.0},
    )
    vols = VolatilitySpec(
        n_factors=2, n_buckets=8,
        collateral={"USD": [0.01, 0.0], "EUR": [0.0, 0.01]},
        funding={("EUR", "USD"): [0.001, -0.002]},
        fx={("USD", "EUR"): [0.08, -0.06]},
    )
    return curves, vols


class TestFxOptionBlack:
    def test_zero_vol_is_discounted_intrinsic(self, ts8, option_setup):
        curves, _ = option_setup
        v0 = VolatilitySpec(n_factors=1, n_buckets=8)
        fwd = fx_forward(curves, FxForwardSpec("USD", "EUR", "USD", 2.0))
        dpay = collateralized_zcb(curves, "USD", "USD", 2.0)
        for k, want in [(90.0, dpay * (fwd - 90.0)), (110.0, 0.0)]:
            spec = FxOptionSpec("USD", "EUR", "USD", 2.0, k)
            assert fx_option_black(curves, v0, ts8, spec) == pytest.approx(
                want, abs=1e-15)

    def test_atm_closed_form(self, ts8, option_setup):
        curves, vols = option_setup
        fwd = fx_forward(curves, FxForwardSpec("USD", "EUR", "USD", 2.0))
        spec = FxOptionSpec("USD", "EUR", "USD", 2.0, fwd)
        stdev = forward_fx_total_stdev(vols, ts8, "USD", "EUR", "USD", 2.0)
        dpay = collateralized_zcb(curves, "USD", "USD", 2.0)
        want = dpay * fwd * (2.0 * norm.cdf(stdev / 2.0) - 1.0)
        assert fx_option_black(curves, vols, ts8, spec) == pytest.approx(
            want, rel=1e-14)

    def test_zero_strike_call_is_forward_leg(self, ts8, option_setup):
        curves, vols = option_setup
        spec = FxOptionSpec("USD", "EUR", "USD", 2.0, 0.0)
        fwd = fx_forward(curves, FxForwardSpec("USD", "EUR", "USD", 2.0))
        dpay = collateralized_zcb(curves, "USD", "USD", 2.0)
        assert fx_option_black(curves, vols, ts8, spec) == pytest.approx(
            dpay * fwd, rel=1e-14)

    def test_put_call_parity(self, ts8, option_setup):
        curves, vols = option_setup
        k = 95.0
        call = fx_option_black(curves, vols, ts8,
                               FxOptionSpec("USD", "EUR", "USD", 2.0, k))
        put = fx_option_black(curves, vols, ts8,
                              FxOptionSpec("USD", "EUR", "USD", 2.0, k,
                                           is_call=False))
        fwd = fx_forward(curves, FxForwardSpec("USD", "EUR", "USD", 2.0))
        dpay = collateralized_zcb(curves, "USD", "USD", 2.0)
        assert call - put == pytest.approx(dpay * (fwd - k), rel=1e-13)

    def test_strike_monotonicity_and_convexity(self, ts8, option_setup):
        curves, vols = option_setup
        strikes = np.linspace(60.0, 150.0, 19)
        prices = [fx_option_black(curves, vols, ts8,
                                  FxOptionSpec("USD", "EUR", "USD", 2.0, k))
                  for k in strikes]
        diffs = np.diff(prices)
        assert (diffs < 0).all()            # calls fall in strike
        assert (np.diff(diffs) > -1e-12).all()  # and are convex

    def test_black_matches_norm_cdf_formula(self):
        # _black calls the in-repo cephes ndtr; scipy.stats.norm.cdf at
        # loc 0, scale 1 is the oracle, and the prices must agree bit for bit.
        rng = np.random.default_rng(1512)
        for _ in range(2000):
            forward = float(np.exp(rng.uniform(-5.0, 5.0)))
            strike = forward * float(np.exp(rng.normal(0.0, 1.0)))
            stdev = float(10.0 ** rng.uniform(-4.0, 1.0))
            d1 = math.log(forward / strike) / stdev + 0.5 * stdev
            d2 = d1 - stdev
            call = forward * norm.cdf(d1) - strike * norm.cdf(d2)
            put = strike * norm.cdf(-d2) - forward * norm.cdf(-d1)
            assert _black(forward, strike, stdev, True) == call
            assert _black(forward, strike, stdev, False) == put

    def test_ndtr_matches_scipy_bit_for_bit(self):
        # scipy.special.ndtr (cephes) is a test-only oracle.  The special
        # values, both sides of every branch point (|a| = 1, sqrt(2), 8 * sqrt(2)
        # and the underflow at a * a / 2 = MAXLOG), then wide random inputs.
        r2 = math.sqrt(2.0)
        points = [0.0, -0.0, 1.0, -1.0, r2, -r2, 8.0 * r2, -8.0 * r2,
                  math.inf, -math.inf, math.nan, 37.67, -37.67, 37.68, -37.68]
        points += [math.nextafter(p, q) for p in points[2:8] for q in (0.0, 40.0)]
        rng = np.random.default_rng(8)
        points += [float(v) for v in np.concatenate([
            rng.normal(0.0, 1.0, 20_000), rng.normal(0.0, 6.0, 20_000),
            rng.uniform(-40.0, 40.0, 20_000),
            np.ldexp(rng.uniform(-1.0, 1.0, 5_000), rng.integers(-1070, 0, 5_000))])]
        for a in points:
            got, want = _ndtr(a), float(ndtr(a))
            assert np.array(got).tobytes() == np.array(want).tobytes(), a

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FxOptionSpec("USD", "EUR", "USD", 0.0, 100.0)
        with pytest.raises(ValueError):
            FxOptionSpec("USD", "EUR", "USD", 1.0, -5.0)
        with pytest.raises(ValueError):
            FxForwardSpec("USD", "EUR", "USD", -1.0)
        # Each of these used to build: a NaN strike priced NaN, a string
        # is_call priced the call, and a non-finite maturity was refused
        # only later, by a curve's range check.  The option is checked as
        # an engine FxOption is.
        for args, error, message in (
                ((1.0, math.nan), ValueError,
                 "strike must be a finite number >= 0, got nan"),
                ((1.0, 1.0, "put"), TypeError,
                 "is_call must be a bool, got 'put'"),
                ((math.nan, 1.0), ValueError,
                 "maturity must be a finite number > 0, got nan"),
                ((math.inf, 1.0), ValueError,
                 "maturity must be a finite number > 0, got inf")):
            with pytest.raises(error, match=message):
                FxOptionSpec("USD", "EUR", "USD", *args)
        for maturity in (math.nan, math.inf):
            with pytest.raises(ValueError, match="maturity must be a finite "
                               f"number >= 0, got {maturity}"):
                FxForwardSpec("USD", "EUR", "USD", maturity)


class TestFxOptionMc:
    def test_matches_black_within_3se(self, ts8, option_setup):
        curves, vols = option_setup
        model = Model(ts8, curves, vols, "USD")
        cfg = SimulationConfig(n_paths=20_000, seed=17)
        for k in (90.0, 105.0):
            spec = FxOptionSpec("USD", "EUR", "USD", 2.0, k)
            ref = fx_option_black(curves, vols, ts8, spec)
            est = simulate_many(model, cfg, {"p": fx_option_payoff(spec)})["p"]
            assert est.std_error > 0
            assert abs(est.mean - ref) < 3.0 * est.std_error

    def test_put_priced_too(self, ts8, option_setup):
        curves, vols = option_setup
        model = Model(ts8, curves, vols, "USD")
        cfg = SimulationConfig(n_paths=10_000, seed=3)
        spec = FxOptionSpec("USD", "EUR", "USD", 1.0, 101.0, is_call=False)
        ref = fx_option_black(curves, vols, ts8, spec)
        est = simulate_many(model, cfg, {"p": fx_option_payoff(spec)})["p"]
        assert abs(est.mean - ref) < 3.0 * est.std_error


@pytest.fixture
def cross_setup(ts4):
    """USD, EUR and GBP with spot and FX vol stored against USD only.

    No funding spreads or funding loadings, so every price is consistent
    under any base currency.
    """
    nodes = ts4.nodes
    curves = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes),
                   "GBP": flat_curve("GBP", 0.03, nodes)},
        spreads={(c, "USD"): flat_spread(c, "USD", 0.0, nodes)
                 for c in ("EUR", "GBP")},
        spot_fx={("USD", "EUR"): 1.1, ("USD", "GBP"): 1.3},
    )
    vols = VolatilitySpec(
        n_factors=3, n_buckets=4,
        collateral={"USD": [0.01, 0.0, 0.0], "EUR": [0.0, 0.008, 0.0],
                    "GBP": [0.0, 0.0, 0.009]},
        fx={("USD", "EUR"): [0.08, -0.05, 0.02],
            ("USD", "GBP"): [-0.03, 0.06, 0.07]},
    )
    return curves, vols


class TestCrossPairFx:
    """FX vol of a pair with no stored orientation, through the stored ones."""

    def test_black_matches_mc_on_a_cross_pair(self, ts4, cross_setup):
        curves, vols = cross_setup
        spec = FxOptionSpec("EUR", "GBP", "USD", 2.0,
                            fx_forward(curves, FxForwardSpec(
                                "EUR", "GBP", "USD", 2.0)))
        ref = fx_option_black(curves, vols, ts4, spec)
        est = simulate_many(Model(ts4, curves, vols, "USD"),
                            SimulationConfig(n_paths=20_000, seed=5),
                            {"p": fx_option_payoff(spec)})["p"]
        assert abs(est.mean - ref) < 4.0 * est.std_error

    def test_mc_price_does_not_depend_on_base(self, ts4, cross_setup):
        curves, vols = cross_setup
        spec = FxOptionSpec("USD", "GBP", "USD", 2.0,
                            fx_forward(curves, FxForwardSpec(
                                "USD", "GBP", "USD", 2.0)))
        cfg = SimulationConfig(n_paths=20_000, seed=9)
        payoffs = {"p": fx_option_payoff(spec)}
        usd = simulate_many(Model(ts4, curves, vols, "USD"), cfg, payoffs)["p"]
        eur = simulate_many(Model(ts4, curves, vols, "EUR"), cfg, payoffs)["p"]
        assert abs(usd.mean - eur.mean) < 4.0 * math.hypot(usd.std_error,
                                                           eur.std_error)


class TestEquityForward:
    def test_curve_lookup(self, ts4):
        eq = EquityForwardCurve("USD", np.array([0.5, 1.0]),
                                np.array([101.0, 102.5]))
        curves = CurveSet(
            discounts={"USD": flat_curve("USD", 0.02, ts4.nodes)},
            equities={"USD": eq})
        assert equity_forward(curves, "USD", 1.0) == 102.5

    def test_state_lookup_zero_vol(self, ts4):
        eq = EquityForwardCurve("USD", ts4.nodes[1:],
                                100.0 * np.exp(0.03 * ts4.nodes[1:]))
        curves = CurveSet(
            discounts={"USD": flat_curve("USD", 0.02, ts4.nodes)},
            equities={"USD": eq})
        v0 = VolatilitySpec(n_factors=1, n_buckets=4)
        st = PathState(ModelTables.of(Model(ts4, curves, v0, "USD")), 2)
        before = st.equity_forward("USD", 2.0)
        evolve_step(st, np.zeros((2, 1)))
        after = st.equity_forward("USD", 2.0)
        np.testing.assert_allclose(after, before, rtol=1e-15)
        np.testing.assert_allclose(before, eq.value(2.0), rtol=1e-15)

    def test_forward_measure_martingale(self, ts4):
        nodes = ts4.nodes
        eq = EquityForwardCurve("USD", nodes[1:],
                                100.0 * np.exp(0.03 * nodes[1:]))
        curves = CurveSet(
            discounts={"USD": flat_curve("USD", 0.02, nodes)},
            equities={"USD": eq})
        vols = VolatilitySpec(n_factors=2, n_buckets=4,
                              collateral={"USD": [0.01, 0.0]},
                              equity={"USD": [0.05, 0.18]})
        model = Model(ts4, curves, vols, "USD")
        from colmm import GridPayoff
        pay = GridPayoff(amount=lambda st: st.equity_forward("USD", 2.0),
                         maturity=2.0, currency="USD", collateral="USD")
        est = simulate_many(model, SimulationConfig(n_paths=20_000, seed=29),
                            {"p": pay})["p"]
        target = eq.value(2.0) * curves.discount_curve("USD").discount(2.0)
        assert abs(est.z_score(target)) < 4.0

    def test_missing_equity_curve(self, ts4):
        curves = CurveSet(discounts={"USD": flat_curve("USD", 0.02, ts4.nodes)})
        with pytest.raises(ConfigurationError):
            equity_forward(curves, "USD", 1.0)
