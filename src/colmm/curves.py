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
"""

from __future__ import annotations

import math
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


def _as_pillars(times, values, what: str):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
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
    if t[0] != 0.0:
        t = np.concatenate([[0.0], t])
        v = np.concatenate([[1.0], v])
    elif v[0] != 1.0:
        raise ValueError(f"{what}: value at time 0 must be 1, got {v[0]}")
    return t, v


def _log_linear(times, values, log_values, T, what: str,
                log: bool = False) -> float:
    """Interpolate log-linearly between pillars; exact (bit-for-bit) at them.

    Returns the value, or its log when `log` is set.  No extrapolation: a
    T outside [times[0], times[-1]] asks for a value the curve does not hold.
    """
    idx = int(np.searchsorted(times, T, side="left"))
    if idx < times.size and times[idx] == T:
        return float(log_values[idx] if log else values[idx])
    if idx == 0 or idx == times.size:   # outside the pillars, or T is NaN
        raise ConfigurationError(
            f"{what}: time {T} outside pillar range [{times[0]}, {times[-1]}]"
            " (no extrapolation)"
        )
    w = (T - times[idx - 1]) / (times[idx] - times[idx - 1])
    x = (1.0 - w) * log_values[idx - 1] + w * log_values[idx]
    return float(x) if log else math.exp(x)


@dataclass
class DiscountCurve:
    """Collateralized zero-coupon bond prices D(0,T) for one currency."""

    currency: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._what = f"discount curve {self.currency}"
        self.times, self.values = _as_pillars(self.times, self.values,
                                              self._what)
        self._log_values = np.log(self.values)

    def discount(self, T: float) -> float:
        """D(0,T); exact at pillars, log-linear between them."""
        return _log_linear(self.times, self.values, self._log_values, T,
                           self._what)

    def log_discount(self, T: float) -> float:
        return _log_linear(self.times, self.values, self._log_values, T,
                           self._what, log=True)

    @property
    def last_pillar(self) -> float:
        return float(self.times[-1])


@dataclass
class SpreadCurve:
    """Funding-spread factor Y(0,T) for the ordered pair (currency, collateral)."""

    currency: str
    collateral: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        what = self._what = f"spread curve ({self.currency},{self.collateral})"
        if self.currency == self.collateral:
            # Same-currency spread is identically one regardless of input.
            self.times = np.array([0.0])
            self.values = np.array([1.0])
        else:
            self.times, self.values = _as_pillars(self.times, self.values, what)
        self._log_values = np.log(self.values)

    @classmethod
    def identity(cls, currency: str, collateral: str | None = None) -> "SpreadCurve":
        """The constant-1 curve (zero funding spread at time 0)."""
        return cls(currency, collateral if collateral is not None else currency,
                   np.array([0.0]), np.array([1.0]))

    @property
    def is_identity(self) -> bool:
        return self.times.size == 1 and self.values[0] == 1.0

    def reciprocal(self) -> "SpreadCurve":
        """The reversed pair's curve: Y of (j,i) is 1/Y of (i,j) pillar-wise.

        Forward spreads built from the reciprocal are the exact negatives of
        the original pair's, matching how reversed-pair vol loadings flip.
        """
        return SpreadCurve(self.collateral, self.currency, self.times.copy(),
                           1.0 / self.values)

    def value(self, T: float) -> float:
        """Y(0,T); the single-anchor identity curve is 1 for every T."""
        if self.is_identity:
            if T < 0.0:
                raise ValueError(f"time {T} is negative")
            return 1.0
        return _log_linear(self.times, self.values, self._log_values, T,
                           self._what)

    def log_value(self, T: float) -> float:
        if self.is_identity:
            return 0.0
        return _log_linear(self.times, self.values, self._log_values, T,
                           self._what, log=True)

    @property
    def last_pillar(self) -> float:
        return float(self.times[-1])


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
class EquityForwardCurve:
    """Equity forward pillars S(0,T); log-linear between pillars."""

    currency: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ValueError("equity forward pillars must be 1-d and equal length")
        if not np.all(np.diff(t) > 0.0) or np.any(t < 0.0):
            raise ValueError("equity pillar times must be non-negative, increasing")
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("equity forward pillars must be positive and finite")
        self.times, self.values = t, v
        self._log_values = np.log(v)
        self._what = f"equity curve {self.currency}"

    def value(self, T: float) -> float:
        return _log_linear(self.times, self.values, self._log_values, T,
                           self._what)

    def grid_values(self, ts: TenorStructure):
        """Forwards per bucket column m (maturity T_{m+1}) plus a validity mask."""
        n = ts.n_buckets
        vals = np.full(n, np.nan)
        mask = np.zeros(n, dtype=bool)
        for m in range(n):
            T = float(ts.nodes[m + 1])
            if self.times[0] <= T <= self.times[-1]:
                vals[m] = self.value(T)
                mask[m] = True
        return vals, mask


def forward_rates(log_value, ts: TenorStructure) -> np.ndarray:
    """One-period rates (log_value(T_m) - log_value(T_{m+1})) / delta_m.

    c_m(0) from DiscountCurve.log_discount, y_m(0) from SpreadCurve.log_value.
    """
    logs = np.array([log_value(float(t)) for t in ts.nodes])
    return (logs[:-1] - logs[1:]) / ts.deltas


def _fixed_leg_schedule(T: float):
    """Annual fixed-leg payment times up to T with a short final stub."""
    whole_years = int(math.floor(T + 1e-9))
    times = [float(j) for j in range(1, whole_years + 1)]
    if not times or times[-1] < T - 1e-12:
        times.append(T)
    prev = [0.0] + times[:-1]
    accruals = [t - p for t, p in zip(times, prev)]
    return times, accruals


def ois_par_rate(curve: DiscountCurve, T: float) -> float:
    """Par rate of a spot-starting OIS maturing at T, off the given curve."""
    times, accruals = _fixed_leg_schedule(T)
    annuity = sum(a * curve.discount(t) for t, a in zip(times, accruals))
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

    def known_df(t: float, candidate_T: float, candidate_x: float) -> float:
        """Discount at t off known pillars, or between the last one and the
        candidate pillar (candidate_T, candidate_x)."""
        if t <= pillar_t[-1]:
            arr_t = np.array(pillar_t)
            arr_v = np.array(pillar_v)
            return _log_linear(arr_t, arr_v, np.log(arr_v), t, "bootstrap")
        w = (t - pillar_t[-1]) / (candidate_T - pillar_t[-1])
        return math.exp(
            (1.0 - w) * math.log(pillar_v[-1]) + w * math.log(candidate_x)
        )

    for T, rate in quotes:
        if T <= pillar_t[-1]:
            raise CalibrationError(
                f"{currency}: quote maturity {T} not beyond last pillar"
            )
        times, accruals = _fixed_leg_schedule(T)
        inner = [t for t in times[:-1] if t > pillar_t[-1]]
        if not inner:
            # Every earlier payment date sits at or before a known pillar.
            known = sum(
                a * known_df(t, T, 1.0) for t, a in zip(times[:-1], accruals[:-1])
            )
            denom = 1.0 + rate * accruals[-1]
            if denom <= 0.0:
                raise CalibrationError(
                    f"{currency}: OIS quote at T={T} admits no positive pillar"
                )
            x = (1.0 - rate * known) / denom
        else:
            def par_residual(x: float) -> float:
                fixed = sum(
                    a * known_df(t, T, x) for t, a in zip(times, accruals)
                )
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
        times.append(T)
        values.append(y)
    return SpreadCurve(foreign.currency, domestic.currency,
                       np.array(times), np.array(values))


@dataclass
class CurveSet:
    """Everything known at time 0: discounts, spreads, fixings, spots, equity."""

    discounts: dict = field(default_factory=dict)
    spreads: dict = field(default_factory=dict)
    fixings: dict = field(default_factory=dict)
    spot_fx: dict = field(default_factory=dict)
    equities: dict = field(default_factory=dict)

    def __post_init__(self):
        for pair in self.spreads:
            if pair[0] == pair[1]:
                raise ValueError(f"same-currency spread pair {pair} is implicit")
        for pair, v in self.spot_fx.items():
            if pair[0] == pair[1]:
                raise ValueError(f"same-currency FX pair {pair} is implicit")
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"spot FX {pair} must be positive, got {v}")

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
        if currency == collateral:
            return SpreadCurve.identity(currency)
        if (currency, collateral) in self.spreads:
            return self.spreads[(currency, collateral)]
        if (collateral, currency) in self.spreads:
            return self.spreads[(collateral, currency)].reciprocal()
        if missing_ok:
            return SpreadCurve.identity(currency, collateral)
        raise ConfigurationError(
            f"no funding-spread curve for pair ({currency},{collateral})"
        )

    def fixings_for(self, currency: str, n_periods: int) -> SpreadFixings:
        fx = self.fixings.get(currency)
        if fx is None:
            return SpreadFixings.zeros(currency, n_periods)
        return fx

    def fx_rate(self, currency: str, other: str, _seen=None) -> float:
        """Spot FX: price of one unit of `other` in units of `currency`."""
        if currency == other:
            return 1.0
        if (currency, other) in self.spot_fx:
            return self.spot_fx[(currency, other)]
        if (other, currency) in self.spot_fx:
            return 1.0 / self.spot_fx[(other, currency)]
        # Triangulate through intermediate currencies, guarding against cycles.
        seen = set() if _seen is None else _seen
        seen.add(currency)
        for (a, b), v in self.spot_fx.items():
            if a == currency and b not in seen:
                try:
                    return v * self.fx_rate(b, other, seen)
                except ConfigurationError:
                    continue
            if b == currency and a not in seen:
                try:
                    return self.fx_rate(a, other, seen) / v
                except ConfigurationError:
                    continue
        raise ConfigurationError(f"no spot FX quote linking {currency} and {other}")

    def equity_curve(self, currency: str):
        return self.equities.get(currency)
