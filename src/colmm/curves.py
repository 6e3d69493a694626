"""Time-0 market curves and the bootstrap routines that build them.

Conventions
-----------
- DiscountCurve holds collateralized zero-coupon bond prices D(0,T) for one
  currency: pillars on tenor nodes, log-linear interpolation in between
  (piecewise-constant forward rates), no extrapolation past the last pillar.
  D may exceed 1; negative rates are allowed everywhere.
- SpreadCurve holds the multiplicative funding-spread factor Y(0,T) of an
  ordered currency pair (pay currency, collateral currency).  The price of
  a pay-currency zero coupon bond collateralized in the other currency is
  D(0,T) * Y(0,T).  Y(0,0) = 1 and the same-currency curve is identically 1.
- SpreadFixings holds simple LIBOR-OIS spreads B(0; T_m, T_{m+1}) per grid
  period, indexed by the period's start bucket m.  Values may be negative.
- bootstrap_discount_curve assumes standard par overnight-indexed swaps:
  annual fixed leg (short final stub if the maturity is not a whole number
  of years) against a compounded floating leg worth 1 - D(0,T).
- bootstrap_spread_curve inverts the collateralized FX forward formula
  fwd = spot * D_for(T) * Y(T) / D_dom(T) for quotes collateralized in the
  domestic (quote) currency, yielding Y for the pair (foreign, domestic).

Quote maturities must lie on tenor nodes; off-node quotes are rejected
rather than silently interpolated.

Pillar storage
--------------
DiscountCurve, SpreadCurve and EquityForwardCurve share one pillar rule:
positive values, log-linear between pillars, no extrapolation.  One store,
_PillarCurve._store, checks the pillars, anchors discount and spread curves
at (0, 1), and keeps them twice: as the public numpy arrays `times` and
`values`, which dynamics and the curve-set writer read, and as private float
lists `_t`, `_v` and `_logv` (the logs from one np.log over the pillar
array), built once at construction.  Scalar lookups bisect the lists with
plain float arithmetic, which gives the same bits as numpy's element-wise
operations without numpy's per-call dispatch.  The lists do not follow a
later reassignment of `times` or `values`; curves are not edited in place.
A CurveSet builds the reversed and identity spread curves it answers when
it is built, and is not edited afterwards.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ConfigurationError
from .tenor import TenorStructure

# Quotes whose implied pillar would need a continuously-compounded rate
# outside +-RATE_BOUND per year are treated as calibration failures.
RATE_BOUND = 5.0


def _brentq(f, a: float, b: float, xtol: float, rtol: float,
            maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of scipy's `brentq.c`: the same float operations
    in the same order, so it returns the same root bit for bit.  Raises
    CalibrationError if f(a) and f(b) share a sign, if f returns NaN, or
    if `maxiter` iterations do not converge.
    """
    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise CalibrationError(f"root search: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise CalibrationError(
            f"root search: f({a!r}) and f({b!r}) share a sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)      # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)              # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry                            # short step
            else:
                spre = scur = sbis                                 # bisect
        else:
            spre = scur = sbis                                     # bisect

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise CalibrationError(
        f"root search did not converge in {maxiter} iterations (at {xcur!r})"
    )


def _log_linear(times: list, values: list, log_values: list, T, what: str,
                log: bool = False) -> float:
    """Interpolate log-linearly between pillars; exact (bit-for-bit) at them.

    Returns the value, or its log when `log` is set.  No extrapolation: a
    T outside [times[0], times[-1]] asks for a value the curve does not hold.
    The pillars are float lists, so the lookup stays in plain Python.
    """
    idx = bisect_left(times, T)
    if idx < len(times) and times[idx] == T:
        return log_values[idx] if log else values[idx]
    if idx == 0 or idx == len(times):   # outside the pillars, or T is NaN
        raise ConfigurationError(
            f"{what}: time {T} outside pillar range [{times[0]}, {times[-1]}]"
            " (no extrapolation)"
        )
    w = (T - times[idx - 1]) / (times[idx] - times[idx - 1])
    x = (1.0 - w) * log_values[idx - 1] + w * log_values[idx]
    return float(x) if log else math.exp(x)


class _PillarCurve:
    """Pillar validator and store of the discount, spread and equity curves."""

    def _store(self, what: str, anchored: bool = True) -> None:
        """Check and keep `times` and `values`; `anchored` starts at (0, 1)."""
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError(f"{what}: times and values must be 1-d and equal length")
        if t.size == 0:
            raise ValueError(f"{what}: at least one pillar required")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise ValueError(f"{what}: pillars must be finite")
        if np.any(t < 0.0):
            raise ValueError(f"{what}: pillar times must be non-negative")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError(f"{what}: pillar times must be strictly increasing")
        if np.any(v <= 0.0):
            raise ValueError(f"{what}: pillar values must be strictly positive")
        # Anchor the curve at (0, 1) so interpolation is defined from time zero.
        if anchored and t[0] != 0.0:
            t = np.concatenate([[0.0], t])
            v = np.concatenate([[1.0], v])
        elif anchored and v[0] != 1.0:
            raise ValueError(f"{what}: value at time 0 must be 1, got {v[0]}")
        self.times, self.values, self._what = t, v, what
        self._t, self._v, self._logv = t.tolist(), v.tolist(), np.log(v).tolist()


@dataclass
class DiscountCurve(_PillarCurve):
    """Collateralized zero-coupon bond prices D(0,T) for one currency."""

    currency: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._store(f"discount curve {self.currency}")

    def discount(self, T: float) -> float:
        """D(0,T); exact at pillars, log-linear between them."""
        return _log_linear(self._t, self._v, self._logv, T, self._what)

    def log_discount(self, T: float) -> float:
        return _log_linear(self._t, self._v, self._logv, T, self._what,
                           log=True)


@dataclass
class SpreadCurve(_PillarCurve):
    """Funding-spread factor Y(0,T) for the ordered pair (currency, collateral).

    `flipped` marks the reciprocal of the stored (collateral, currency)
    curve; its errors name that stored pair, the one the data gave.
    """

    currency: str
    collateral: str
    times: np.ndarray
    values: np.ndarray
    flipped: bool = False

    def __post_init__(self):
        if self.currency == self.collateral:
            # Same-currency spread is identically one regardless of input.
            self.times, self.values = np.array([0.0]), np.array([1.0])
        pair = (self.collateral, self.currency) if self.flipped else (
            self.currency, self.collateral)
        self._store(f"spread curve ({pair[0]},{pair[1]})")

    @classmethod
    def identity(cls, currency: str, collateral: str | None = None) -> "SpreadCurve":
        """The constant-1 curve (zero funding spread at time 0)."""
        return cls(currency, collateral if collateral is not None else currency,
                   np.array([0.0]), np.array([1.0]))

    @property
    def is_identity(self) -> bool:
        return len(self._t) == 1 and self._v[0] == 1.0

    def _check_identity_time(self, T: float) -> None:
        # The identity spans every T >= 0 but, as a pillar curve does,
        # refuses a negative or NaN T.
        if not T >= 0.0:
            raise ConfigurationError(f"{self._what}: time {T} is negative or NaN")

    def reciprocal(self) -> "SpreadCurve":
        """The reversed pair's curve: Y of (j,i) is 1/Y of (i,j) pillar-wise.

        Forward spreads built from the reciprocal are the exact negatives of
        the original pair's, matching how reversed-pair vol loadings flip.
        Its errors name this pair, as this curve's do.
        """
        with np.errstate(over="ignore"):    # a subnormal pillar gives inf
            values = 1.0 / self.values
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{self._what}: a pillar's reciprocal is not finite")
        return SpreadCurve(self.collateral, self.currency, self.times.copy(),
                           values, flipped=not self.flipped)

    def value(self, T: float) -> float:
        """Y(0,T); the single-anchor identity curve is 1 for every T >= 0."""
        if self.is_identity:
            self._check_identity_time(T)
            return 1.0
        return _log_linear(self._t, self._v, self._logv, T, self._what)

    def log_value(self, T: float) -> float:
        if self.is_identity:
            self._check_identity_time(T)
            return 0.0
        return _log_linear(self._t, self._v, self._logv, T, self._what,
                           log=True)


@dataclass
class SpreadFixings:
    """Simple LIBOR-OIS spreads B(0; T_m, T_{m+1}) indexed by start bucket m."""

    currency: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("spread fixings must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            raise ValueError("spread fixings must be finite (negative is fine)")
        self.values = v

    def value(self, m: int) -> float:
        if not 0 <= m < self.values.size:
            raise ValueError(f"period start bucket {m} outside fixings range")
        return float(self.values[m])

    @classmethod
    def zeros(cls, currency: str, n_periods: int) -> "SpreadFixings":
        return cls(currency, np.zeros(n_periods))


@dataclass
class EquityForwardCurve(_PillarCurve):
    """Equity forward pillars S(0,T); log-linear between pillars."""

    currency: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._store(f"equity curve {self.currency}", anchored=False)

    def value(self, T: float) -> float:
        return _log_linear(self._t, self._v, self._logv, T, self._what)

    def grid_values(self, ts: TenorStructure):
        """Forwards per bucket column m (maturity T_{m+1}) plus a validity mask."""
        n = ts.n_buckets
        vals = np.full(n, np.nan)
        mask = np.zeros(n, dtype=bool)
        for m in range(n):
            T = float(ts.nodes[m + 1])
            if self._t[0] <= T <= self._t[-1]:
                vals[m] = self.value(T)
                mask[m] = True
        return vals, mask


def forward_rates(log_value, ts: TenorStructure) -> np.ndarray:
    """One-period rates (log_value(T_m) - log_value(T_{m+1})) / delta_m.

    c_m(0) from DiscountCurve.log_discount, y_m(0) from SpreadCurve.log_value.
    """
    logs = np.array([log_value(float(t)) for t in ts.nodes])
    return (logs[:-1] - logs[1:]) / ts.deltas


def _fixed_leg(T: float):
    """Annual fixed leg up to T: (n, t, a), accrual 1.0 at each whole year
    1..n, then accrual a at t, a short stub at T, or the whole year n + 1
    when T lies within 1e-9 below it or 1e-12 above it."""
    whole_years = int(math.floor(T + 1e-9))
    if whole_years and whole_years >= T - 1e-12:
        return whole_years - 1, float(whole_years), 1.0
    return whole_years, T, T - whole_years


def _coupon_discounts(discount, coupons: list, years: int) -> list:
    """D(1), ..., D(years), kept in `coupons` so each is looked up once."""
    coupons += [discount(float(j)) for j in range(len(coupons) + 1, years + 1)]
    return coupons[:years]


def ois_par_rate(curve: DiscountCurve, T: float,
                 coupons: list | None = None) -> float:
    """Par rate of a spot-starting OIS maturing at T, off the given curve.

    Calls on one curve may share `coupons` (_coupon_discounts).  One sum()
    over the leg's terms in order keeps a compensated sum()'s bits.
    """
    n, last, accrual = _fixed_leg(T)
    known = _coupon_discounts(curve.discount,
                              [] if coupons is None else coupons, n)
    annuity = sum([*known, accrual * curve.discount(last)])
    if annuity <= 0.0:
        raise CalibrationError(f"non-positive annuity for OIS maturity {T}")
    return (1.0 - curve.discount(T)) / annuity


def bootstrap_discount_curve(currency: str, ois_quotes) -> DiscountCurve:
    """Sequentially bootstrap D(0,.) from par OIS quotes (maturity, rate).

    Maturities must be strictly increasing.  Each step solves for the single
    new pillar; payment dates that fall strictly between known pillars and
    the new maturity are handled by a one-dimensional root search on the
    log-linear curve, otherwise the par equation is solved in closed form.
    """
    quotes = [(float(T), float(r)) for T, r in ois_quotes]
    if not quotes:
        raise CalibrationError(f"{currency}: no OIS quotes supplied")
    if any(T <= 0.0 for T, _ in quotes):
        raise CalibrationError(f"{currency}: OIS maturities must be positive")
    if any(t2 <= t1 for (t1, _), (t2, _) in zip(quotes, quotes[1:])):
        raise CalibrationError(f"{currency}: OIS maturities must be increasing")

    pillar_t = [0.0]
    pillar_v = [1.0]
    pillar_log = [0.0]
    coupons = []  # whole-year discounts, each at or before the last pillar

    def known_df(t: float, candidate_T: float, candidate_x: float) -> float:
        """Discount at t off known pillars, or between the last one and the
        candidate pillar (candidate_T, candidate_x)."""
        if t <= pillar_t[-1]:
            return _log_linear(pillar_t, pillar_v, pillar_log, t, "bootstrap")
        w = (t - pillar_t[-1]) / (candidate_T - pillar_t[-1])
        return math.exp(
            (1.0 - w) * math.log(pillar_v[-1]) + w * math.log(candidate_x)
        )

    for T, rate in quotes:
        if T <= pillar_t[-1]:
            raise CalibrationError(
                f"{currency}: quote maturity {T} not beyond last pillar"
            )
        n, last, accrual = _fixed_leg(T)
        if n <= pillar_t[-1]:
            # Every earlier payment date sits at or before a known pillar.
            known = sum(_coupon_discounts(lambda t: known_df(t, T, 1.0),
                                          coupons, n))
            denom = 1.0 + rate * accrual
            if denom <= 0.0:
                raise CalibrationError(
                    f"{currency}: OIS quote at T={T} admits no positive pillar"
                )
            x = (1.0 - rate * known) / denom
        else:
            def par_residual(x: float) -> float:
                fixed = sum([*(known_df(float(j), T, x)
                               for j in range(1, n + 1)),
                             accrual * known_df(last, T, x)])
                return rate * fixed - (1.0 - x)

            gap = T - pillar_t[-1]
            lo = pillar_v[-1] * math.exp(-RATE_BOUND * gap)
            hi = pillar_v[-1] * math.exp(RATE_BOUND * gap)
            f_lo, f_hi = par_residual(lo), par_residual(hi)
            if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo * f_hi > 0.0:
                raise CalibrationError(
                    f"{currency}: OIS quote at T={T} admits no pillar root"
                )
            x = _brentq(par_residual, lo, hi, xtol=1e-16, rtol=8.9e-16)
        if not (x > 0.0 and math.isfinite(x)):
            raise CalibrationError(
                f"{currency}: OIS quote at T={T} implies non-positive discount {x}"
            )
        pillar_t.append(T)
        pillar_v.append(x)
        # The same bits as the curve's np.log over its whole pillar array.
        pillar_log.append(float(np.log(x)))

    return DiscountCurve(currency, np.array(pillar_t), np.array(pillar_v))


def bootstrap_spread_curve(spot_fx: float, fwd_quotes, domestic: DiscountCurve,
                           foreign: DiscountCurve) -> SpreadCurve:
    """Invert FX forwards collateralized in the domestic currency into Y.

    Quotes are (maturity, forward FX) in domestic units per foreign unit.
    Returns the spread curve for the pair (foreign, domestic):
    Y(0,T) = fwd/spot * D_dom(0,T) / D_for(0,T).
    """
    if not (spot_fx > 0.0 and math.isfinite(spot_fx)):
        raise CalibrationError(f"spot FX must be positive, got {spot_fx}")
    quotes = [(float(T), float(q)) for T, q in fwd_quotes]
    if not quotes:
        raise CalibrationError(
            f"({foreign.currency},{domestic.currency}): no FX forward quotes"
        )
    if any(t2 <= t1 for (t1, _), (t2, _) in zip(quotes, quotes[1:])):
        raise CalibrationError("FX forward maturities must be increasing")
    times = [0.0]
    values = [1.0]
    for T, quote in quotes:
        y = quote / spot_fx * domestic.discount(T) / foreign.discount(T)
        if not (y > 0.0 and math.isfinite(y)):
            raise CalibrationError(
                f"FX forward at T={T} implies non-positive spread factor {y}"
            )
        if not math.isfinite(1.0 / y):  # the reversed pair's pillar
            raise CalibrationError(
                f"FX forward at T={T} implies spread factor {y}, whose "
                f"reciprocal is not finite")
        times.append(T)
        values.append(y)
    return SpreadCurve(foreign.currency, domestic.currency,
                       np.array(times), np.array(values))


def pair_path(pairs, start: str, end: str, _seen=None):
    """Steps (pair, +1 or -1) from `start` to `end` along the keys of `pairs`.

    Step ((a, b), +1) goes from a to b and ((a, b), -1) from b to a.  The
    pair itself or its reverse comes first; otherwise a depth-first search
    over the keys in their order, visiting each currency once.  Returns []
    when start == end and None when no chain of pairs links them.
    """
    if start == end:
        return []
    if (start, end) in pairs:
        return [((start, end), 1)]
    if (end, start) in pairs:
        return [((end, start), -1)]
    seen = set() if _seen is None else _seen
    seen.add(start)
    for a, b in pairs:
        if a == start and b not in seen:
            rest = pair_path(pairs, b, end, seen)
            if rest is not None:
                return [((a, b), 1), *rest]
        elif b == start and a not in seen:
            rest = pair_path(pairs, a, end, seen)
            if rest is not None:
                return [((a, b), -1), *rest]
    return None


def check_pairs(pairs, section: str) -> None:
    """Refuse a key that is not a (ccy, ccy) tuple of two currencies, or whose
    reverse is also a key: a reverse is derived from its pair, never given."""
    for key in pairs:
        if not (isinstance(key, tuple) and len(key) == 2):
            raise ValueError(
                f"{section}: pair keys must be (ccy, ccy) tuples, got {key!r}")
        if key[0] == key[1]:
            raise ValueError(f"{section}: same-currency pair {key} is implicit")
        if key[::-1] in pairs:
            raise ValueError(
                f"{section}: pair {key[0]}/{key[1]} is also given as "
                f"{key[1]}/{key[0]}; give one orientation")


def check_tree(pairs, section: str) -> None:
    """Refuse a key whose two currencies the keys before it already link
    (pair_path): it closes a cycle, so its pair would have two values."""
    earlier = []
    for a, b in pairs:
        if pair_path(earlier, a, b) is not None:
            raise ValueError(
                f"{section}: pair {a}/{b} closes a cycle: the pairs before it "
                f"already link {a} and {b}; the pairs must form a tree")
        earlier.append((a, b))


@dataclass
class CurveSet:
    """Everything known at time 0: discounts, spreads, fixings, spots, equity.

    `spreads` and `spot_fx` hold one orientation per pair (check_pairs),
    and `spot_fx` is a tree (check_tree), so each spot has one value.
    Built whole and not edited afterwards: the reversed and same-currency
    spread curves that spread_curve returns are made at construction;
    fx_rate keeps each (currency, other) rate after its first walk.
    """

    discounts: dict = field(default_factory=dict)
    spreads: dict = field(default_factory=dict)
    fixings: dict = field(default_factory=dict)
    spot_fx: dict = field(default_factory=dict)
    equities: dict = field(default_factory=dict)

    def __post_init__(self):
        check_pairs(self.spreads, "spreads")
        check_pairs(self.spot_fx, "spot_fx")
        check_tree(self.spot_fx, "spot_fx")
        for pair, v in self.spot_fx.items():
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"spot FX {pair} must be positive, got {v}")
        self._pair_curves = {
            **{(c, c): SpreadCurve.identity(c) for c in self.discounts},
            **{(b, a): y.reciprocal() for (a, b), y in self.spreads.items()},
            **self.spreads}
        self._fx_rates = {}

    @property
    def currencies(self) -> list:
        return sorted(self.discounts)

    def discount_curve(self, currency: str) -> DiscountCurve:
        try:
            return self.discounts[currency]
        except KeyError:
            raise ConfigurationError(f"no discount curve for currency {currency!r}")

    def spread_curve(self, currency: str, collateral: str,
                     missing_ok: bool = False) -> SpreadCurve:
        curve = self._pair_curves.get((currency, collateral))
        if curve is not None:
            return curve
        if currency != collateral and not missing_ok:
            raise ConfigurationError(
                f"no funding-spread curve for pair ({currency},{collateral})")
        return SpreadCurve.identity(currency, collateral)

    def fixings_for(self, currency: str, n_periods: int) -> SpreadFixings:
        fx = self.fixings.get(currency)
        if fx is None:
            return SpreadFixings.zeros(currency, n_periods)
        return fx

    def fx_rate(self, currency: str, other: str) -> float:
        """Spot FX: price of one unit of `other` in units of `currency`.

        The quote, its reciprocal, or the product along the chain of quotes
        that pair_path finds, multiplied from the far end.
        """
        if (currency, other) in self._fx_rates:
            return self._fx_rates[currency, other]
        path = pair_path(self.spot_fx, currency, other)
        if path is None:
            raise ConfigurationError(
                f"no spot FX quote linking {currency} and {other}")
        rate = 1.0
        for pair, sign in reversed(path):
            v = self.spot_fx[pair]
            rate = v * rate if sign > 0 else rate / v
        return self._fx_rates.setdefault((currency, other), rate)

    def equity_curve(self, currency: str) -> EquityForwardCurve:
        try:
            return self.equities[currency]
        except KeyError:
            raise ConfigurationError(f"no equity curve for {currency!r}")
