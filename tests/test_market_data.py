"""Parsing, bootstrapping from files, serialization round trips."""

import json
import math

import numpy as np
import pytest

from colmm import (
    InputError,
    build_curve_set,
    build_volatility,
    load_curve_set,
    parse_instruments,
    parse_market_csv,
    repricing_residuals,
    save_curve_set,
)

GOOD = """\
# two currencies, one year of semiannual periods
grid,0,0.5,1.0
base,USD

ois,USD,0.5,0.02
ois,USD,1.0,0.021
discount,EUR,0.5,0.996
discount,EUR,1.0,0.991

fixing,USD,0.0,0.0012
fixing,USD,0.5,0.0015

spot,USD,EUR,1.08
fxforward,USD,EUR,USD,0.5,1.0812
fxforward,USD,EUR,USD,1.0,1.0825

equity,USD,0.5,102.0
equity,USD,1.0,104.1
"""


def write(tmp_path, text, name="market.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseMarketCsv:
    def test_happy_path(self, tmp_path):
        md = parse_market_csv(write(tmp_path, GOOD))
        assert md.base == "USD"
        assert md.ts.nodes.tolist() == [0.0, 0.5, 1.0]
        assert [q[:2] for q in md.ois["USD"]] == [(0.5, 0.02), (1.0, 0.021)]
        assert md.discounts["EUR"] == [(0.5, 0.996), (1.0, 0.991)]
        assert md.fixings["USD"] == [(0.0, 0.0012), (0.5, 0.0015)]
        assert md.spots[("USD", "EUR")] == 1.08
        assert md.fx_forwards[("USD", "EUR", "USD")] == [(0.5, 1.0812),
                                                         (1.0, 1.0825)]
        assert md.equities["USD"] == [(0.5, 102.0), (1.0, 104.1)]

    @pytest.mark.parametrize("mangle,needle", [
        (lambda t: t.replace("grid,0,0.5,1.0\n", ""), "grid"),
        (lambda t: t + "grid,0,0.5,1.0\n", "grid"),
        (lambda t: t.replace("base,USD\n", ""), "base"),
        (lambda t: t + "base,EUR\n", "base"),
        (lambda t: t + "wat,1,2\n", "unknown record"),
        (lambda t: t + "ois,USD,0.75,0.02\n", "grid"),
        (lambda t: t + "ois,USD,0.5\n", "fields"),
        (lambda t: t + "ois,USD,0.5,abc\n", "number"),
        (lambda t: t + "discount,USD,0.5,0.99\n", "both"),
        (lambda t: t + "spot,EUR,USD,0.9259\n", "spot"),
        (lambda t: t + "fxforward,USD,EUR,JPY,0.5,1.08\n", "collateral"),
        (lambda t: t + "discount,EUR,0.5,-0.5\n", "positive"),
        (lambda t: t + "equity,JPY,0.5,100\n", "JPY"),
        (lambda t: t + "fixing,USD,1.0,0.001\n", "start"),
        (lambda t: t + "ois,USD,0,0.02\n", "ois maturity must be positive"),
        (lambda t: t + "fxforward,USD,EUR,USD,0,1.08\n",
         "fxforward maturity must be positive"),
        (lambda t: t + "discount,EUR,1.0,0\n",
         "discount factor must be positive, got 0.0"),
        (lambda t: t + "spot,USD,GBP,-1\n",
         "spot rate must be positive, got -1.0"),
        (lambda t: t + "fxforward,USD,EUR,EUR,1.0,-1.08\n",
         "forward rate must be positive, got -1.08"),
        (lambda t: t + "equity,EUR,1.0,-5\n",
         "equity forward must be positive, got -5.0"),
        (lambda t: t + "spot,EUR,EUR,1.0\n",
         "spot pair must use two currencies"),
        (lambda t: t + "fxforward,EUR,EUR,EUR,0.5,1.0\n",
         "fxforward pair must use two currencies"),
        (lambda t: t + "spot,EUR,USD,0.9259\n", "duplicate spot for EUR/USD"),
        (lambda t: t.replace("ois,USD,0.5,0.02\nois,USD,1.0,0.021\n", ""),
         "base currency 'USD' has no curve records"),
        (lambda t: t + "fixing,JPY,0.5,0.001\n",
         "fixing for unknown currency 'JPY'"),
        (lambda t: t + "spot,JPY,USD,0.0067\n",
         "spot quote uses unknown currency 'JPY'"),
        (lambda t: t + "fxforward,USD,JPY,USD,0.5,150\n",
         "fxforward uses unknown currency 'JPY'"),
        (lambda t: t + "equity,JPY,0.5,100\n",
         "equity pillars for unknown currency 'JPY'"),
    ])
    def test_rejects_bad_input(self, tmp_path, mangle, needle):
        path = write(tmp_path, mangle(GOOD))
        with pytest.raises(InputError) as err:
            parse_market_csv(path)
        assert needle in str(err.value)

    @pytest.mark.parametrize("line", [
        "ois,USD,1,0.03",
        "discount,EUR,1.0,0.95",
        "fixing,USD,0.5,0.0099",
        "fxforward,USD,EUR,USD,1.0,1.2",
        "equity,USD,1.0,99.0",
    ])
    def test_rejects_a_repeated_quote_at_its_line(self, tmp_path, line):
        path = write(tmp_path, GOOD + line + "\n")
        with pytest.raises(InputError) as err:
            parse_market_csv(path)
        n_lines = GOOD.count("\n") + 1
        assert f"{path}:{n_lines}: duplicate" in str(err.value)

    def test_error_carries_location(self, tmp_path):
        path = write(tmp_path, GOOD + "ois,USD,0.5,abc\n")
        with pytest.raises(InputError) as err:
            parse_market_csv(path)
        n_lines = GOOD.count("\n") + 1
        assert f"{path}:{n_lines}:" in str(err.value)


class TestBuildCurveSet:
    def test_reprices_inputs(self, tmp_path):
        md = parse_market_csv(write(tmp_path, GOOD))
        curves = build_curve_set(md)
        worst = max(abs(r) for _, r in repricing_residuals(md, curves))
        assert worst < 1e-12

    def test_direct_discount_pillars_kept(self, tmp_path):
        md = parse_market_csv(write(tmp_path, GOOD))
        curves = build_curve_set(md)
        assert curves.discount_curve("EUR").discount(1.0) == 0.991

    def test_receive_collateral_folds_to_reciprocal(self, tmp_path):
        text = GOOD.replace(
            "fxforward,USD,EUR,USD,0.5,1.0812\n"
            "fxforward,USD,EUR,USD,1.0,1.0825\n",
            "fxforward,EUR,USD,USD,0.5,0.924898261191269\n"
            "fxforward,EUR,USD,USD,1.0,0.923787528868360\n")
        md_flipped = parse_market_csv(write(tmp_path, text, "flip.csv"))
        md_plain = parse_market_csv(write(tmp_path, GOOD))
        a = build_curve_set(md_flipped)
        b = build_curve_set(md_plain)
        ya = a.spread_curve("EUR", "USD")
        yb = b.spread_curve("EUR", "USD")
        np.testing.assert_allclose(ya.values, yb.values, rtol=1e-12)

    def test_duplicate_pair_after_folding_rejected(self, tmp_path):
        # The mirrored pair under the same collateral, and the same pair
        # under the other collateral, would each give EUR/USD a second curve.
        for line in ("fxforward,EUR,USD,USD,0.5,0.9249\n",
                     "fxforward,USD,EUR,EUR,0.5,1.0811\n"):
            md = parse_market_csv(write(tmp_path, GOOD + line))
            with pytest.raises(InputError, match="fxforward quotes for EUR/USD"):
                build_curve_set(md)

    def test_fx_forward_needs_spot(self, tmp_path):
        text = GOOD.replace("spot,USD,EUR,1.08\n", "")
        md = parse_market_csv(write(tmp_path, text))
        with pytest.raises(InputError):
            build_curve_set(md)


class TestCurveSetJson:
    def test_round_trip_is_exact(self, tmp_path):
        md = parse_market_csv(write(tmp_path, GOOD))
        curves = build_curve_set(md)
        out = str(tmp_path / "curves.json")
        save_curve_set(out, md.ts, md.base, curves)
        ts2, base2, curves2 = load_curve_set(out)
        assert base2 == "USD"
        np.testing.assert_array_equal(ts2.nodes, md.ts.nodes)
        for ccy in ("USD", "EUR"):
            c1 = curves.discount_curve(ccy)
            c2 = curves2.discount_curve(ccy)
            np.testing.assert_array_equal(c1.values, c2.values)
        y1 = curves.spread_curve("EUR", "USD")
        y2 = curves2.spread_curve("EUR", "USD")
        np.testing.assert_array_equal(y1.values, y2.values)
        assert curves2.spot_fx[("USD", "EUR")] == 1.08
        np.testing.assert_array_equal(curves2.fixings["USD"].values,
                                      curves.fixings["USD"].values)
        np.testing.assert_array_equal(curves2.equities["USD"].values,
                                      curves.equities["USD"].values)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(InputError):
            load_curve_set(str(p))
        p2 = tmp_path / "bad2.json"
        p2.write_text(json.dumps({"base": "USD"}))
        with pytest.raises(InputError):
            load_curve_set(str(p2))

    @pytest.mark.parametrize("edit, message", [
        ({"fixings": {"USD": [0.001]}}, "fixings USD: 1 periods, grid has 2"),
        ({"base": "JPY"}, "base currency 'JPY' has no discount curve"),
    ])
    def test_rejects_what_the_grid_or_base_cannot_use(self, tmp_path, edit,
                                                      message):
        md = parse_market_csv(write(tmp_path, GOOD))
        out = tmp_path / "curves.json"
        save_curve_set(str(out), md.ts, md.base, build_curve_set(md))
        out.write_text(json.dumps({**json.loads(out.read_text()), **edit}))
        with pytest.raises(InputError, match=message):
            load_curve_set(str(out))


class TestBuildVolatility:
    def test_pair_keys_and_broadcast(self):
        doc = {
            "n_factors": 2,
            "collateral": {"USD": [0.01, 0.0]},
            "funding": {"EUR/USD": [0.001, 0.002]},
            "fx": {"USD/EUR": [0.08, -0.06]},
        }
        v = build_volatility(doc, n_buckets=4)
        assert v.n_factors == 2
        assert v.collateral_loadings("USD").shape == (4, 2)
        np.testing.assert_array_equal(v.fx_loadings("EUR", "USD"),
                                      [-0.08, 0.06])

    def test_per_bucket_rows(self):
        rows = [[0.01, 0.0], [0.02, 0.0], [0.0, 0.01], [0.0, 0.02]]
        doc = {"n_factors": 2, "collateral": {"USD": rows}}
        v = build_volatility(doc, n_buckets=4)
        np.testing.assert_array_equal(v.collateral_loadings("USD"), rows)

    @pytest.mark.parametrize("doc,needle", [
        ({}, "n_factors"),
        ({"n_factors": 2, "momentum": {}}, "unknown"),
        ({"n_factors": 2, "fx": {"USDEUR": 0.1}}, "pair"),
        ({"n_factors": 2, "collateral": {"USD": [0.01, 0.02, 0.03]}}, "USD"),
    ])
    def test_rejects_bad_documents(self, doc, needle):
        with pytest.raises(InputError) as err:
            build_volatility(doc, n_buckets=4)
        assert needle in str(err.value)


class TestParseInstruments:
    def test_parses_each_kind(self, tmp_path):
        doc = [
            {"type": "zcb", "currency": "EUR", "collateral": "USD",
             "maturity": 1.0},
            {"type": "fx_forward", "pay": "USD", "receive": "EUR",
             "collateral": "USD", "maturity": 1.0, "label": "fwd1"},
            {"type": "fx_option", "pay": "USD", "receive": "EUR",
             "collateral": "USD", "maturity": 1.0, "strike": 1.05,
             "style": "put"},
            {"type": "equity_forward", "currency": "USD", "maturity": 0.5},
        ]
        p = tmp_path / "insts.json"
        p.write_text(json.dumps(doc))
        out = parse_instruments(str(p))
        assert [i.kind for i in out] == ["zcb", "fx_forward", "fx_option",
                                        "equity_forward"]
        assert out[1].label == "fwd1"
        assert out[0].label == "000_zcb"
        assert out[2].spec.is_call is False

    @pytest.mark.parametrize("doc,needle", [
        ([], "non-empty"),
        ([{"type": "swaption"}], "unknown type"),
        ([{"type": "zcb", "currency": "USD"}], "missing field"),
        ([{"type": "zcb", "currency": "USD", "collateral": "USD",
           "maturity": 1.0, "notional": 5}], "unexpected"),
        ([{"type": "fx_option", "pay": "USD", "receive": "EUR",
           "collateral": "USD", "maturity": 1.0, "strike": 1.0,
           "style": "straddle"}], "style"),
        ([{"type": "zcb", "currency": "USD", "collateral": "USD",
           "maturity": 1.0, "label": "a"},
          {"type": "zcb", "currency": "USD", "collateral": "USD",
           "maturity": 2.0, "label": "a"}], "duplicate"),
    ])
    def test_rejects_bad_lists(self, tmp_path, doc, needle):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError) as err:
            parse_instruments(str(p))
        assert needle in str(err.value)
