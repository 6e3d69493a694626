"""Prices of collateralized instruments, analytic where the model allows.

Collateral matters: the same cashflow margined in a different currency
discounts on D * Y of the payment currency against that collateral, so
every instrument spec names its collateral currency explicitly.

Notation below: D_i(T) is the currency-i collateralized discount factor,
Y_ik(T) the funding-spread factor of pay currency i against collateral k,
and Ytilde_ik = D_i * Y_ik the spread-adjusted discount.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, sqrt

import numpy as np
from scipy.special import ndtr

from .curves import CurveSet
from .dynamics import PathState, VolatilitySpec
from .engine import GridPayoff, Model, PriceEstimate, SimulationConfig, simulate
from .errors import ConfigurationError
from .tenor import TenorStructure


@dataclass(frozen=True)
class FxForwardSpec:
    """Forward exchange of receive-currency units against pay currency.

    The quoted forward is the break-even rate f such that exchanging one
    unit of `receive` for f units of `pay` at `maturity`, margined in
    `collateral`, has zero value today.
    """

    pay: str
    receive: str
    collateral: str
    maturity: float

    def __post_init__(self):
        if self.maturity < 0.0:
            raise ValueError(f"maturity must be >= 0, got {self.maturity}")


@dataclass(frozen=True)
class FxOptionSpec:
    """European option on the FX rate pay/receive, margined in `collateral`."""

    pay: str
    receive: str
    collateral: str
    maturity: float
    strike: float
    is_call: bool = True

    def __post_init__(self):
        if self.strike < 0.0:
            raise ValueError(f"strike must be >= 0, got {self.strike}")
        if self.maturity <= 0.0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")


def collateralized_zcb(curves: CurveSet, pay: str, collateral: str,
                       maturity: float) -> float:
    """Value of one unit of `pay` at `maturity`, margined in `collateral`."""
    disc = curves.discount_curve(pay).discount(maturity)
    return disc * curves.spread_curve(pay, collateral).value(maturity)


def fx_forward(curves: CurveSet, spec: FxForwardSpec) -> float:
    """Break-even forward FX: spot * Ytilde_receive / Ytilde_pay.

    Both legs discount against the same collateral currency, which is what
    makes forwards of a currency triangle multiply out exactly.
    """
    spot = curves.fx_rate(spec.pay, spec.receive)
    leg_receive = collateralized_zcb(curves, spec.receive, spec.collateral,
                                     spec.maturity)
    leg_pay = collateralized_zcb(curves, spec.pay, spec.collateral,
                                 spec.maturity)
    return spot * leg_receive / leg_pay


def _black(forward: float, strike: float, stdev: float, is_call: bool) -> float:
    """Undiscounted Black price with total standard deviation `stdev`."""
    if forward <= 0.0:
        raise ValueError(f"forward must be positive, got {forward}")
    intrinsic = max(forward - strike, 0.0) if is_call else max(strike - forward, 0.0)
    if stdev <= 0.0 or strike == 0.0:
        return intrinsic
    d1 = log(forward / strike) / stdev + 0.5 * stdev
    d2 = d1 - stdev
    if is_call:
        return forward * ndtr(d1) - strike * ndtr(d2)
    return strike * ndtr(-d2) - forward * ndtr(-d1)


def forward_fx_total_stdev(vols: VolatilitySpec, ts: TenorStructure,
                           pay: str, receive: str, collateral: str,
                           maturity: float) -> float:
    """Total lognormal stdev of the forward FX out to `maturity`.

    The forward's loading on interval a is sigma_X plus the discount-bond
    loadings Gamma of both legs: Gamma of leg m sums delta_b * (sigma_c +
    sigma_y) over the live buckets b in [a, n_T).  Piecewise-constant
    loadings make the variance integral an exact finite sum.
    """
    n = ts.node_index(maturity)
    sig_x = vols.fx_loadings(pay, receive)
    gap = ((vols.collateral_loadings(pay)
            + vols.funding_loadings(pay, collateral))
           - (vols.collateral_loadings(receive)
              + vols.funding_loadings(receive, collateral)))
    weighted = ts.deltas[:n, None] * gap[:n]
    # suffix[a] = sum over buckets a..n-1; one row past the end stays zero
    suffix = np.zeros((n + 1, vols.n_factors))
    suffix[:n] = np.cumsum(weighted[::-1], axis=0)[::-1]
    total = 0.0
    for a in range(1, n + 1):
        # rates fixed before interval a no longer load on its increment
        vec = sig_x + suffix[a]
        total += ts.deltas[a - 1] * float(vec @ vec)
    return sqrt(total)


def fx_option_black(curves: CurveSet, vols: VolatilitySpec, ts: TenorStructure,
                    spec: FxOptionSpec) -> float:
    """Closed-form option price: the forward FX is lognormal here.

    Deterministic loadings make the forward FX a lognormal martingale under
    the measure attached to the pay leg's spread-adjusted discount, so the
    price is Ytilde_pay * Black(F, K, stdev).
    """
    forward = fx_forward(curves, FxForwardSpec(spec.pay, spec.receive,
                                               spec.collateral, spec.maturity))
    stdev = forward_fx_total_stdev(vols, ts, spec.pay, spec.receive,
                                   spec.collateral, spec.maturity)
    annuity = collateralized_zcb(curves, spec.pay, spec.collateral,
                                 spec.maturity)
    return annuity * _black(forward, spec.strike, stdev, spec.is_call)


def fx_option_payoff(spec: FxOptionSpec) -> GridPayoff:
    """The option's exercise value at maturity, as an engine payoff."""
    pay, receive, strike = spec.pay, spec.receive, spec.strike
    sign = 1.0 if spec.is_call else -1.0

    def payoff(state: PathState) -> np.ndarray:
        fx = state.fx_rate(pay, receive)
        return np.maximum(sign * (fx - strike), 0.0)

    return GridPayoff(payoff, spec.maturity, pay, spec.collateral)


def fx_option_mc(model: Model, cfg: SimulationConfig,
                 spec: FxOptionSpec) -> PriceEstimate:
    """Monte Carlo value of the option, in the pay currency with its SE."""
    return simulate(model, cfg, fx_option_payoff(spec))


def equity_forward(curves: CurveSet, currency: str, maturity: float) -> float:
    """Time-0 equity forward price for delivery at `maturity`.

    The per-path simulated forward is `PathState.equity_forward`.
    """
    curve = curves.equity_curve(currency)
    if curve is None:
        raise ConfigurationError(f"no equity curve for {currency!r}")
    return curve.value(maturity)
