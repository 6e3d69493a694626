"""Curve storage, interpolation, forward extraction, and bootstrapping."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import colmm.curves
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
from colmm.curves import RATE_BOUND, _brentq, _log_linear
from colmm.market_data import MarketDataFile, repricing_residuals


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
            rates = forward_rates(curve.log_discount, ts)
            acc = sum(float(ts.deltas[m]) * rates[m] for m in range(n))
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

    def test_reversed_pair_lookup_is_memoized(self, two_ccy_curves):
        registered = two_ccy_curves.spreads[("EUR", "USD")]
        rec = two_ccy_curves.spread_curve("USD", "EUR")
        assert two_ccy_curves.spread_curve("USD", "EUR") is rec
        assert rec.currency == "USD" and rec.collateral == "EUR"
        assert rec.times.tobytes() == registered.times.tobytes()
        assert rec.values.tobytes() == (1.0 / registered.values).tobytes()

    def test_identity_lookups(self, two_ccy_curves):
        same = two_ccy_curves.spread_curve("USD", "USD")
        assert two_ccy_curves.spread_curve("USD", "USD") is same
        assert (same.currency, same.collateral) == ("USD", "USD")
        assert same.is_identity and same.value(7.0) == 1.0
        missing = two_ccy_curves.spread_curve("USD", "JPY", missing_ok=True)
        assert (missing.currency, missing.collateral) == ("USD", "JPY")
        assert missing.is_identity and missing.log_value(3.0) == 0.0
        assert two_ccy_curves.spread_curve("EUR", "EUR") is not same

    @pytest.mark.parametrize("T", [-1.0, -1e-300, float("nan")])
    def test_identity_lookups_refuse_what_pillar_curves_refuse(self, T):
        # A pillar curve refuses a negative or NaN T; so do both lookups of
        # the identity, with one error, where they once gave 1.0 and 0.0.
        pillared = SpreadCurve("USD", "EUR", np.array([0.0, 1.0]),
                               np.array([1.0, 0.99]))
        for lookup in (pillared.value, pillared.log_value):
            with pytest.raises(ConfigurationError):
                lookup(T)
        identity = SpreadCurve.identity("USD", "EUR")
        errors = []
        for lookup in (identity.value, identity.log_value):
            with pytest.raises(ConfigurationError,
                               match="negative or NaN") as exc:
                lookup(T)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert identity.value(0.0) == 1.0 and identity.log_value(0.0) == 0.0


def _numpy_log_linear(times, values, T, what, log=False):
    """The array formula: np.log over the pillar array, np.searchsorted."""
    times, values = np.array(times), np.array(values)
    log_values = np.log(values)
    idx = int(np.searchsorted(times, T, side="left"))
    if idx < times.size and times[idx] == T:
        return float(log_values[idx] if log else values[idx])
    if idx == 0 or idx == times.size:
        raise ConfigurationError(
            f"{what}: time {T} outside pillar range [{times[0]}, {times[-1]}]"
            " (no extrapolation)"
        )
    w = (T - times[idx - 1]) / (times[idx] - times[idx - 1])
    x = (1.0 - w) * log_values[idx - 1] + w * log_values[idx]
    return float(x) if log else math.exp(x)


def _assert_same_lookup(got_fn, want_fn, T):
    """Same float bits and exact type float, or the same error message."""
    try:
        want = want_fn(T)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError) as info:
            got_fn(T)
        assert str(info.value) == str(exc)
        return
    got = got_fn(T)
    assert type(got) is float, (T, type(got))
    assert got.hex() == want.hex(), T


def _query_times(times):
    """Pillar hits, interior points, both ends and their outsides, NaN."""
    out = [-math.inf, math.inf, math.nan]
    for a, b in zip(times, times[1:]):
        out += [a, 0.5 * (a + b), a + 0.3 * (b - a), np.nextafter(a, b),
                np.nextafter(b, a)]
    out += [times[-1], np.nextafter(times[0], -1.0),
            np.nextafter(times[-1], math.inf), times[-1] + 1.0]
    return [float(t) for t in out] + [np.float64(t) for t in out]


_PILLARS = st.lists(
    st.tuples(st.floats(1e-3, 30.0), st.floats(0.05, 3.0)),
    min_size=1, max_size=12, unique_by=lambda p: p[0],
).map(sorted)


class TestLookupsMatchNumpyFormula:
    """Scalar lookups against the array formula, bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_PILLARS)
    def test_curves(self, pillars):
        times = [t for t, _ in pillars]
        values = [v for _, v in pillars]
        disc = DiscountCurve("USD", np.array(times), np.array(values))
        spread = SpreadCurve("EUR", "USD", np.array(times), np.array(values))
        equity = EquityForwardCurve("SPX", np.array(times),
                                    100.0 * np.array(values))
        cases = [
            (disc.discount, disc, "discount curve USD", False),
            (disc.log_discount, disc, "discount curve USD", True),
            (spread.value, spread, "spread curve (EUR,USD)", False),
            (spread.log_value, spread, "spread curve (EUR,USD)", True),
            (equity.value, equity, "equity curve SPX", False),
        ]
        for fn, curve, what, log in cases:
            def want(T, curve=curve, what=what, log=log):
                return _numpy_log_linear(curve.times, curve.values, T, what,
                                         log)
            for T in _query_times(curve.times.tolist()):
                _assert_same_lookup(fn, want, T)


def _fixed_leg_schedule(T: float):
    """Annual fixed-leg payment times up to T with a short final stub."""
    whole_years = int(math.floor(T + 1e-9))
    times = [float(j) for j in range(1, whole_years + 1)]
    if not times or times[-1] < T - 1e-12:
        times.append(T)
    prev = [0.0] + times[:-1]
    accruals = [t - p for t, p in zip(times, prev)]
    return times, accruals


def _numpy_bootstrap(quotes) -> np.ndarray:
    """Pillar values of bootstrap_discount_curve by the array formula.

    Discounts off known pillars take np.array over the pillars and
    _numpy_log_linear on every call; the rest of the sequence is the
    bootstrap's own.
    """
    pillar_t, pillar_v = [0.0], [1.0]

    def known_df(t, candidate_T, candidate_x):
        if t <= pillar_t[-1]:
            return _numpy_log_linear(pillar_t, pillar_v, t, "bootstrap")
        w = (t - pillar_t[-1]) / (candidate_T - pillar_t[-1])
        return math.exp(
            (1.0 - w) * math.log(pillar_v[-1]) + w * math.log(candidate_x))

    for T, rate in quotes:
        times, accruals = _fixed_leg_schedule(T)
        if not any(t > pillar_t[-1] for t in times[:-1]):
            known = sum(a * known_df(t, T, 1.0)
                        for t, a in zip(times[:-1], accruals[:-1]))
            x = (1.0 - rate * known) / (1.0 + rate * accruals[-1])
        else:
            def par_residual(x):
                fixed = sum(a * known_df(t, T, x)
                            for t, a in zip(times, accruals))
                return rate * fixed - (1.0 - x)

            gap = T - pillar_t[-1]
            x = _brentq(par_residual, pillar_v[-1] * math.exp(-RATE_BOUND * gap),
                        pillar_v[-1] * math.exp(RATE_BOUND * gap),
                        xtol=1e-16, rtol=8.9e-16)
        if not x > 0.0:
            raise CalibrationError(f"non-positive discount {x}")
        pillar_t.append(T)
        pillar_v.append(x)
    return np.array(pillar_v)


def _has_gap(maturities) -> bool:
    """Some annual payment date falls strictly between two quotes."""
    return any(math.floor(a) + 1 < b
               for a, b in zip([0.0] + maturities, maturities))


@st.composite
def _gapped_ois_quotes(draw):
    maturities = sorted(draw(st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 12.0,
                         15.0, 20.0]),
        min_size=2, max_size=8, unique=True).filter(_has_gap)))
    rates = draw(st.lists(st.floats(-0.01, 0.08), min_size=len(maturities),
                          max_size=len(maturities)))
    return list(zip(maturities, rates))


class TestGappedBootstrapBitForBit:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_gapped_ois_quotes())
    @example([(1.0, 0.02), (3.0, 0.025), (4.0, 0.027), (7.0, 0.03),
              (10.0, 0.031)])
    def test_matches_array_formula(self, quotes):
        try:
            want = _numpy_bootstrap(quotes)
        except CalibrationError:
            # A steep quote set admits no pillar; both must refuse it.
            with pytest.raises(CalibrationError):
                bootstrap_discount_curve("USD", quotes)
            return
        curve = bootstrap_discount_curve("USD", quotes)
        assert curve.values.tolist() == want.tolist()

    def test_reaches_the_root_search(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return _brentq(*args, **kwargs)

        monkeypatch.setattr(colmm.curves, "_brentq", counted)
        quotes = [(1.0, 0.02), (3.0, 0.025), (4.0, 0.027), (7.0, 0.03),
                  (10.0, 0.031)]
        curve = bootstrap_discount_curve("USD", quotes)
        assert len(calls) == 3                    # the 3y, 7y and 10y pillars
        assert curve.values.tolist() == _numpy_bootstrap(quotes).tolist()


# Offsets from a whole year W at the edges of the fixed leg's stub rule: a
# maturity T in [W - 1e-9, W + 1e-12] pays its last coupon at W, one
# outside it a short stub ending at T.
_WHOLE_YEAR_EDGES = (-2e-9, -5e-10, 5e-13, 2e-12)


@st.composite
def _gapless_ois_quotes(draw):
    """Quarterly or semi-annual quotes out to 10-20 y, some whole years
    moved to an edge of the stub rule (which may open a gap after them)."""
    step = draw(st.sampled_from([0.25, 0.5]))
    years = draw(st.integers(10, 20))
    level = draw(st.floats(-0.005, 0.05))
    quotes = []
    for k in range(1, round(years / step) + 1):
        T = step * k
        if T.is_integer() and draw(st.booleans()):
            T += draw(st.sampled_from(_WHOLE_YEAR_EDGES))
        quotes.append((T, level + draw(st.floats(-0.002, 0.002))))
    return quotes


def _par_rate_by_schedule(curve, T):
    """The par rate off the list schedule, one lookup per payment."""
    times, accruals = _fixed_leg_schedule(T)
    annuity = sum(a * curve.discount(t) for t, a in zip(times, accruals))
    return (1.0 - curve.discount(T)) / annuity


def _ois_file(quotes) -> MarketDataFile:
    return MarketDataFile("quotes.csv", TenorStructure(np.array([0.0, 1.0])),
                          "USD", ois={"USD": quotes})


class TestGaplessBootstrapBitForBit:
    """The closed-form branch, which quarterly and semi-annual quotes take."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_gapless_ois_quotes())
    @example([(T + dict(zip((3.0, 5.0, 7.0, 9.0), _WHOLE_YEAR_EDGES)).get(
        T, 0.0), 0.02 + 0.002 * T) for T in (0.25 * k for k in range(1, 41))])
    def test_matches_array_formula_and_repricing(self, quotes):
        try:
            want = _numpy_bootstrap(quotes)
        except CalibrationError:
            with pytest.raises(CalibrationError):
                bootstrap_discount_curve("USD", quotes)
            return
        curve = bootstrap_discount_curve("USD", quotes)
        assert curve.values.tolist() == want.tolist()
        md, curves = _ois_file(quotes), CurveSet(discounts={"USD": curve})
        lines = []
        for T, rate in quotes:
            try:
                want_rate = _par_rate_by_schedule(curve, T)
            except ConfigurationError as exc:   # the last payment is past T
                for reprice in (lambda: ois_par_rate(curve, T),
                                lambda: repricing_residuals(md, curves)):
                    with pytest.raises(ConfigurationError,
                                       match=re.escape(str(exc))):
                        reprice()
                return
            par = ois_par_rate(curve, T)
            assert par == want_rate
            lines.append((f"ois USD T={T:g}",
                          abs(par - rate) / max(1.0, abs(rate))))
        assert repricing_residuals(md, curves) == lines

    def test_sums_stay_linear_in_the_quotes(self, monkeypatch):
        # The bootstrap and the repricing pass look each whole-year coupon
        # up once per curve, so a quote costs a few lookups however long
        # its fixed leg is.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return _log_linear(*args, **kwargs)

        monkeypatch.setattr(colmm.curves, "_log_linear", counted)
        quotes = [(0.25 * k, 0.02 + 0.0002 * k) for k in range(1, 41)]
        curve = bootstrap_discount_curve("USD", quotes)
        repricing_residuals(_ois_file(quotes),
                            CurveSet(discounts={"USD": curve}))
        assert len(calls) <= 3 * len(quotes)


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

    def test_rejects_a_factor_without_a_finite_reciprocal(self):
        # Y about 9e-310 is positive and finite, but the reversed pair's
        # pillar 1 / Y is not.
        d_i, d_j = self._curves()
        with pytest.raises(CalibrationError, match="reciprocal is not finite"):
            bootstrap_spread_curve(1.0, [(1.0, 9e-310)], d_i, d_j)


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


# One bad pillar set each: (times, values).
_BAD_PILLARS = {
    "nan time": ([0.5, math.nan], [0.99, 0.98]),
    "infinite time": ([0.5, math.inf], [0.99, 0.98]),
    "negative time": ([-0.5, 1.0], [0.99, 0.98]),
    "non-increasing times": ([1.0, 0.5], [0.99, 0.98]),
    "repeated time": ([0.5, 0.5], [0.99, 0.98]),
    "zero value": ([0.5, 1.0], [0.99, 0.0]),
    "negative value": ([0.5, 1.0], [0.99, -0.98]),
    "shape mismatch": ([0.5, 1.0], [0.99, 0.98, 0.97]),
    "no pillars": ([], []),
}


@pytest.mark.parametrize("times, values", _BAD_PILLARS.values(),
                         ids=_BAD_PILLARS.keys())
def test_every_pillar_curve_rejects_bad_pillars(times, values):
    # Discount, spread and equity curves share one validator, and each
    # names itself in the message.
    for make, name in [
        (lambda t, v: DiscountCurve("USD", t, v), "discount curve USD"),
        (lambda t, v: SpreadCurve("EUR", "USD", t, v),
         "spread curve (EUR,USD)"),
        (lambda t, v: EquityForwardCurve("USD", t, v), "equity curve USD"),
    ]:
        with pytest.raises(ValueError, match=re.escape(name)):
            make(np.array(times), np.array(values))


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
        for _ in range(2):   # a failed walk is not kept
            with pytest.raises(ConfigurationError, match=re.escape(
                    "no spot FX quote linking USD and JPY")):
                two_ccy_curves.fx_rate("USD", "JPY")

    def test_fx_rates_are_kept_per_set(self):
        # Each set answers from its own spots, before and after the other
        # set's walks: no rate is kept beyond the set that walked it.
        sets = [CurveSet(spot_fx={("A", "B"): spot, ("B", "C"): 3.0})
                for spot in (2.0, 4.0)]
        for _ in range(2):
            assert [cs.fx_rate("A", "C") for cs in sets] == [6.0, 12.0]
            assert [cs.fx_rate("C", "A") for cs in sets] == [1.0 / 6.0,
                                                            1.0 / 12.0]

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

    def test_fx_chain_takes_forward_steps(self):
        # A/C is quoted through B, both steps in their stored orientation.
        cs = CurveSet(spot_fx={("A", "B"): 2.0, ("B", "C"): 3.0})
        assert cs.fx_rate("A", "C") == 6.0
        assert cs.fx_rate("C", "A") == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_derived_spread_curves_are_built_with_the_set(self):
        # The reciprocal of a subnormal pillar is inf: the set refuses it
        # when it is built, not at the first reversed lookup.
        nodes = np.array([0.0, 1.0])
        tiny = SpreadCurve("EUR", "USD", nodes, np.array([1.0, 9e-310]))
        with pytest.raises(ValueError, match=(
                re.escape("spread curve (EUR,USD): a pillar's reciprocal "
                          "is not finite"))):
            CurveSet(spreads={("EUR", "USD"): tiny})

    def test_missing_equity_curve_raises(self, two_ccy_curves):
        with pytest.raises(ConfigurationError,
                           match=re.escape("no equity curve for 'XXX'")):
            two_ccy_curves.equity_curve("XXX")

    def test_spread_pair_in_both_orientations_rejected(self):
        # Black would read one curve and Monte Carlo the other.
        nodes = np.array([0.0, 1.0])
        eur_usd = SpreadCurve("EUR", "USD", nodes, np.array([1.0, 0.99]))
        usd_eur = SpreadCurve("USD", "EUR", nodes, np.array([1.0, 0.98]))
        with pytest.raises(ValueError, match=re.escape(
                "spreads: pair EUR/USD is also given as USD/EUR; "
                "give one orientation")):
            CurveSet(spreads={("EUR", "USD"): eur_usd,
                              ("USD", "EUR"): usd_eur})

    @pytest.mark.parametrize("cross", [1.0, 1.3 / 1.1],
                             ids=["cycle", "consistent"])
    def test_spot_cycle_rejected(self, cross):
        # fx_rate would take the direct quote and the simulation the chain
        # through the base; a triangle that agrees is refused too.
        with pytest.raises(ValueError, match=re.escape(
                "spot_fx: pair GBP/EUR closes a cycle")):
            CurveSet(spot_fx={("USD", "EUR"): 1.1, ("USD", "GBP"): 1.3,
                              ("GBP", "EUR"): 1.0 / cross})

    @pytest.mark.parametrize("section, value", [
        ("spreads", SpreadCurve.identity("EUR", "USD")), ("spot_fx", 0.9)],
        ids=["spreads", "spot_fx"])
    def test_pair_keys_must_be_tuples(self, section, value):
        with pytest.raises(ValueError, match=re.escape(
                f"{section}: pair keys must be (ccy, ccy) tuples, "
                "got 'EUR/USD'")):
            CurveSet(**{section: {"EUR/USD": value}})

    def test_own_pair_without_a_discount_curve_is_the_identity(self):
        cs = CurveSet()
        same = cs.spread_curve("JPY", "JPY")
        assert (same.currency, same.collateral) == ("JPY", "JPY")
        assert same.is_identity
