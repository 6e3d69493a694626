"""Curve storage, interpolation, forward extraction, and bootstrapping."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from colmm import (
    CalibrationError,
    ConfigurationError,
    CurveSet,
    DiscountCurve,
    EquityForwardCurve,
    SpreadCurve,
    SpreadFixings,
    TenorStructure,
    bootstrap_discount_curve,
    bootstrap_spread_curve,
    forward_rates,
    ois_par_rate,
)
from colmm.curves import _brentq


class TestDiscountCurve:
    def test_pillar_hit_and_midpoint(self):
        curve = DiscountCurve("USD", np.array([0.0, 1.0]), np.array([1.0, 0.99]))
        assert curve.discount(1.0) == 0.99
        assert curve.discount(0.0) == 1.0
        # log-linear: D(0.5) = 0.99**0.5
        assert curve.discount(0.5) == pytest.approx(0.99 ** 0.5, rel=1e-15)

    def test_anchor_added_when_missing(self):
        curve = DiscountCurve("USD", np.array([1.0]), np.array([0.97]))
        assert curve.discount(0.0) == 1.0

    def test_no_extrapolation(self):
        curve = DiscountCurve("USD", np.array([0.0, 1.0]), np.array([1.0, 0.99]))
        with pytest.raises(ValueError):
            curve.discount(1.5)
        with pytest.raises(ValueError):
            curve.discount(-0.1)

    @pytest.mark.parametrize("values", [[1.0, -0.5], [1.0, 0.0], [0.9, 0.8]])
    def test_rejects_bad_pillars(self, values):
        # non-positive factor, or a t=0 pillar different from one
        with pytest.raises(ValueError):
            DiscountCurve("USD", np.array([0.0, 1.0]), np.array(values))


class TestForwardRates:
    def test_flat_segment_is_zero_rate(self):
        ts = TenorStructure(np.array([0.0, 1.0, 2.0]))
        curve = DiscountCurve("X", np.array([0.0, 1.0, 2.0]),
                              np.array([1.0, 0.99, 0.99]))
        assert forward_rates(curve.log_discount, ts)[1] == 0.0

    def test_hand_values(self):
        ts = TenorStructure(np.array([0.0, 1.0, 2.0]))
        curve = DiscountCurve("X", np.array([0.0, 1.0, 2.0]),
                              np.array([1.0, 0.99, 0.97]))
        want = math.log(0.99 / 0.97)  # ~0.0204096
        assert forward_rates(curve.log_discount, ts)[1] == pytest.approx(want, rel=1e-14)

    def test_negative_rate_admitted(self):
        ts = TenorStructure(np.array([0.0, 0.5, 1.0]))
        curve = DiscountCurve("X", np.array([0.0, 0.5, 1.0]),
                              np.array([1.0, 1.0, 1.005]))
        want = -2.0 * math.log(1.005)  # ~-0.0099751
        assert forward_rates(curve.log_discount, ts)[1] == pytest.approx(want, rel=1e-14)

    def test_spread_hand_values(self):
        ts = TenorStructure(np.array([0.0, 1.0, 2.0]))
        curve = SpreadCurve("A", "B", np.array([0.0, 1.0, 2.0]),
                            np.array([1.0, 0.999, 0.997]))
        want = math.log(0.999 / 0.997)  # ~0.0020040
        assert forward_rates(curve.log_value, ts)[1] == pytest.approx(want, rel=1e-14)

    def test_negative_spread(self):
        ts = TenorStructure(np.array([0.0, 0.5, 1.0]))
        curve = SpreadCurve("A", "B", np.array([0.0, 0.5, 1.0]),
                            np.array([1.0, 1.001, 1.003]))
        want = -2.0 * math.log(1.003 / 1.001)  # ~-0.0039940
        assert forward_rates(curve.log_value, ts)[1] == pytest.approx(want, rel=1e-14)

    def test_identity_spread_is_zero(self):
        ts = TenorStructure(np.array([0.0, 0.5, 1.0]))
        same = SpreadCurve("A", "A", np.array([0.0, 1.0]), np.array([1.0, 0.9]))
        assert same.value(0.7) == 1.0  # same-currency pair collapses
        for m in range(2):
            assert forward_rates(same.log_value, ts)[m] == 0.0

    def test_consistency_with_discounts(self):
        # exp(-sum delta_m c_m) telescopes back to the pillar discount
        nodes = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        ts = TenorStructure(nodes)
        curve = DiscountCurve("X", nodes,
                              np.array([1.0, 0.99, 0.975, 0.962, 0.95]))
        for n in range(1, 5):
            acc = sum(ts.accrual(m) * forward_rates(curve.log_discount, ts)[m]
                      for m in range(n))
            assert math.exp(-acc) == pytest.approx(curve.discount(nodes[n]),
                                                   rel=1e-14)


class TestSpreadCurveReciprocal:
    def test_pillars_invert(self):
        curve = SpreadCurve("EUR", "USD", np.array([0.0, 1.0, 2.0]),
                            np.array([1.0, 0.995, 0.99]))
        rec = curve.reciprocal()
        assert rec.currency == "USD" and rec.collateral == "EUR"
        np.testing.assert_allclose(rec.values, 1.0 / curve.values, rtol=0)

    def test_forward_spreads_negate(self):
        ts = TenorStructure(np.array([0.0, 1.0, 2.0]))
        curve = SpreadCurve("EUR", "USD", np.array([0.0, 1.0, 2.0]),
                            np.array([1.0, 0.995, 0.99]))
        rec = curve.reciprocal()
        for m in range(2):
            a = forward_rates(curve.log_value, ts)[m]
            b = forward_rates(rec.log_value, ts)[m]
            assert a == pytest.approx(-b, rel=1e-14)


def _random_bracketed(rng):
    """A random smooth function and a bracket [a, b] with a sign change."""
    while True:
        kind = int(rng.integers(5))
        c = rng.normal(size=6)
        r = float(rng.uniform(-2.0, 2.0))
        if kind == 0:
            coef = c[: int(rng.integers(2, 7))]
            f = lambda x, coef=coef: float(np.polyval(coef, x))
        elif kind == 1:
            f = lambda x, c=c: math.exp(c[0] * x) - abs(c[1]) - c[2] * x
        elif kind == 2:
            k = 10.0 ** rng.uniform(0.0, 3.0)
            f = lambda x, k=k, r=r, c=c: (math.tanh(k * (x - r))
                                          + 0.01 * c[0] * (x - r))
        elif kind == 3:
            f = lambda x, r=r: (x - r) ** 3 * (1.0 + x * x)
        else:
            rate = float(rng.uniform(-0.02, 0.08))
            ts = np.sort(rng.uniform(0.1, 1.0, size=3))
            f = lambda x, rate=rate, ts=ts: (
                rate * sum(math.exp(t * math.log(x)) for t in ts) - (1.0 - x))
            a, b = float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.0, 3.0))
        if kind != 4:
            a, b = (float(v) for v in rng.uniform(-3.0, 3.0, size=2))
        fa, fb = f(a), f(b)
        if math.isfinite(fa) and math.isfinite(fb) and fa * fb < 0.0:
            return f, a, b


class TestBrentq:
    """`curves._brentq` against scipy.optimize.brentq (a test-only oracle)."""

    @pytest.mark.parametrize("xtol,rtol", [(1e-16, 8.9e-16), (1e-6, 1e-9)])
    def test_matches_scipy_bit_for_bit(self, xtol, rtol):
        rng = np.random.default_rng(20151)
        converged = 0
        for _ in range(1200):
            f, a, b = _random_bracketed(rng)
            seen_port, seen_scipy = [], []
            try:
                want = brentq(lambda x: seen_scipy.append(x) or f(x), a, b,
                              xtol=xtol, rtol=rtol)
            except RuntimeError:
                # A triple root can exhaust maxiter at the tight tolerances;
                # the port must then fail after the same evaluations.
                with pytest.raises(CalibrationError, match="did not converge"):
                    _brentq(lambda x: seen_port.append(x) or f(x), a, b,
                            xtol=xtol, rtol=rtol)
            else:
                got = _brentq(lambda x: seen_port.append(x) or f(x), a, b,
                              xtol=xtol, rtol=rtol)
                assert got == want, (a, b)
                converged += 1
            assert seen_port == seen_scipy, (a, b)
        assert converged >= 1000

    @pytest.mark.parametrize("xtol,rtol", [(0.05, 0.05), (2**-4, 2**-6)])
    def test_matches_scipy_on_dyadic_polynomials(self, xtol, rtol):
        # Roots and brackets on a dyadic lattice make the trial step land
        # exactly on the acceptance bound, where the `- delta` term decides.
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 2000:
            r, s = rng.integers(-16, 17, size=2) / 8
            f = [lambda x: x - r, lambda x: (x - r) * (x - s),
                 lambda x: (x - r) * (x - s) * (x + 1.0)][rng.integers(3)]
            a, b = (float(v) for v in rng.integers(-12, 13, size=2) / 4)
            if not f(a) * f(b) < 0.0:
                continue
            seen_port, seen_scipy = [], []
            got = _brentq(lambda x: seen_port.append(x) or f(x), a, b,
                          xtol=xtol, rtol=rtol)
            want = brentq(lambda x: seen_scipy.append(x) or f(x), a, b,
                          xtol=xtol, rtol=rtol)
            assert (got, seen_port) == (want, seen_scipy), (a, b)
            checked += 1

    def test_root_at_an_endpoint(self):
        assert _brentq(lambda x: x - 0.25, 0.25, 1.0, 1e-16, 8.9e-16) == 0.25
        assert _brentq(lambda x: x - 1.0, 0.25, 1.0, 1e-16, 8.9e-16) == 1.0

    def test_failures_are_calibration_errors(self):
        f = lambda x: math.exp(x) - 2.0
        with pytest.raises(RuntimeError):
            brentq(f, -5.0, 5.0, xtol=1e-16, rtol=8.9e-16, maxiter=2)
        with pytest.raises(CalibrationError, match="did not converge"):
            _brentq(f, -5.0, 5.0, 1e-16, 8.9e-16, maxiter=2)
        with pytest.raises(CalibrationError, match="share a sign"):
            _brentq(f, 1.0, 5.0, 1e-16, 8.9e-16)
        with pytest.raises(CalibrationError, match="NaN"):
            _brentq(lambda x: math.nan if x > 0.0 else -1.0, -1.0, 1.0,
                    1e-16, 8.9e-16)


class TestOisBootstrap:
    def test_single_annual_quote(self):
        curve = bootstrap_discount_curve("USD", [(1.0, 0.01)])
        assert curve.discount(1.0) == pytest.approx(1.0 / 1.01, rel=1e-14)

    def test_zero_rates_give_unit_curve(self):
        quotes = [(t, 0.0) for t in (0.5, 1.0, 1.5, 2.0)]
        curve = bootstrap_discount_curve("USD", quotes)
        for t, _ in quotes:
            assert curve.discount(t) == pytest.approx(1.0, abs=1e-15)

    def test_round_trip_semiannual(self):
        quotes = [(0.5 * k, 0.015 + 0.001 * k) for k in range(1, 9)]
        curve = bootstrap_discount_curve("USD", quotes)
        for T, rate in quotes:
            assert abs(ois_par_rate(curve, T) - rate) < 1e-12

    def test_round_trip_with_gap(self):
        # 3y quote after a 1y pillar leaves the 2y fixed payment inside the
        # gap, forcing the root search branch
        quotes = [(1.0, 0.02), (3.0, 0.025)]
        curve = bootstrap_discount_curve("USD", quotes)
        for T, rate in quotes:
            assert abs(ois_par_rate(curve, T) - rate) < 1e-12

    def test_negative_rates(self):
        quotes = [(1.0, -0.005), (2.0, -0.004)]
        curve = bootstrap_discount_curve("USD", quotes)
        assert curve.discount(1.0) > 1.0
        for T, rate in quotes:
            assert abs(ois_par_rate(curve, T) - rate) < 1e-12

    def test_errors(self):
        with pytest.raises(CalibrationError):
            bootstrap_discount_curve("USD", [])
        with pytest.raises(CalibrationError):
            bootstrap_discount_curve("USD", [(1.0, 0.02), (1.0, 0.02)])
        with pytest.raises(CalibrationError):
            # fixed leg worth more than par is achievable: no positive pillar
            bootstrap_discount_curve("USD", [(1.0, -3.0)])


class TestSpreadBootstrap:
    def _curves(self):
        nodes = np.array([0.0, 1.0, 2.0])
        d_i = DiscountCurve("USD", nodes, np.array([1.0, 0.99, 0.975]))
        d_j = DiscountCurve("EUR", nodes, np.array([1.0, 0.98, 0.955]))
        return d_i, d_j

    def test_zero_basis(self):
        d_i, d_j = self._curves()
        spot = 100.0
        quotes = [(t, spot * d_j.discount(t) / d_i.discount(t)) for t in (1.0, 2.0)]
        curve = bootstrap_spread_curve(spot, quotes, d_i, d_j)
        for t, _ in quotes:
            assert curve.value(t) == pytest.approx(1.0, rel=1e-14)

    def test_hand_value(self):
        d_i, d_j = self._curves()
        curve = bootstrap_spread_curve(100.0, [(1.0, 98.4949)], d_i, d_j)
        want = 98.4949 * 0.99 / 0.98 / 100.0  # ~0.995
        assert curve.value(1.0) == pytest.approx(want, rel=1e-14)
        assert curve.currency == "EUR" and curve.collateral == "USD"

    def test_round_trip(self):
        from colmm import FxForwardSpec, fx_forward
        d_i, d_j = self._curves()
        spot = 100.0
        quotes = [(1.0, 98.5), (2.0, 97.1)]
        spread = bootstrap_spread_curve(spot, quotes, d_i, d_j)
        curves = CurveSet(discounts={"USD": d_i, "EUR": d_j},
                          spreads={("EUR", "USD"): spread},
                          spot_fx={("USD", "EUR"): spot})
        for T, quote in quotes:
            spec = FxForwardSpec("USD", "EUR", "USD", T)
            assert abs(fx_forward(curves, spec) / quote - 1.0) < 1e-12

    def test_rejects_empty(self):
        d_i, d_j = self._curves()
        with pytest.raises(CalibrationError):
            bootstrap_spread_curve(100.0, [], d_i, d_j)


class TestSpreadFixings:
    def test_lookup_and_default(self):
        fix = SpreadFixings("USD", np.array([0.001, -0.002]))
        assert fix.value(0) == 0.001
        assert fix.value(1) == -0.002  # negative is allowed
        with pytest.raises(ValueError):
            fix.value(2)
        assert SpreadFixings.zeros("USD", 3).values.tolist() == [0.0, 0.0, 0.0]


class TestEquityForwardCurve:
    def test_pillars_and_interp(self):
        curve = EquityForwardCurve("USD", np.array([0.5, 1.0]),
                                   np.array([102.0, 104.0]))
        assert curve.value(0.5) == 102.0
        mid = math.exp(0.5 * (math.log(102.0) + math.log(104.0)))
        assert curve.value(0.75) == pytest.approx(mid, rel=1e-14)
        with pytest.raises(ValueError):
            curve.value(2.0)

    def test_grid_values_mask(self):
        ts = TenorStructure(np.array([0.0, 0.5, 1.0, 1.5]))
        curve = EquityForwardCurve("USD", np.array([0.5, 1.0]),
                                   np.array([102.0, 104.0]))
        vals, mask = curve.grid_values(ts)
        assert mask.tolist() == [True, True, False]
        assert vals[0] == 102.0


class TestCurveSet:
    def test_fx_rate_orientations(self, two_ccy_curves):
        cs = two_ccy_curves
        assert cs.fx_rate("USD", "EUR") == 100.0
        assert cs.fx_rate("EUR", "USD") == 0.01
        assert cs.fx_rate("USD", "USD") == 1.0

    def test_fx_triangulation(self):
        cs = CurveSet(
            discounts={c: DiscountCurve(c, np.array([0.0, 1.0]),
                                        np.array([1.0, 0.99]))
                       for c in ("A", "B", "C")},
            spot_fx={("A", "B"): 2.0, ("A", "C"): 8.0},
        )
        assert cs.fx_rate("B", "C") == pytest.approx(4.0, rel=1e-15)
        assert cs.fx_rate("C", "B") == pytest.approx(0.25, rel=1e-15)

    def test_fx_missing_link(self, two_ccy_curves):
        with pytest.raises(ConfigurationError):
            two_ccy_curves.fx_rate("USD", "JPY")

    def test_spread_reciprocal_fallback(self, two_ccy_curves):
        # only (EUR, USD) is registered; the reversed pair is its reciprocal
        y = two_ccy_curves.spread_curve("USD", "EUR")
        assert y.value(1.0) == pytest.approx(math.exp(0.002), rel=1e-14)

    def test_spread_missing(self, two_ccy_curves):
        with pytest.raises(ConfigurationError):
            two_ccy_curves.spread_curve("USD", "JPY")
        ident = two_ccy_curves.spread_curve("USD", "JPY", missing_ok=True)
        assert ident.value(1.0) == 1.0

    def test_rejects_diagonal_entries(self):
        with pytest.raises(ValueError):
            CurveSet(spot_fx={("USD", "USD"): 1.0})
        with pytest.raises(ValueError):
            CurveSet(spreads={("USD", "USD"): SpreadCurve.identity("USD")})
