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
from math import exp, log, nan, sqrt

import numpy as np

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
    value = disc * curves.spread_curve(pay, collateral).value(maturity)
    if not value > 0.0:  # D * Y can underflow
        raise ConfigurationError(
            f"discount of {pay} margined in {collateral} at T={maturity:g} "
            f"is {value!r}, not positive")
    return value


def fx_forward(curves: CurveSet, spec: FxForwardSpec) -> float:
    """Break-even forward FX: spot * Ytilde_receive / Ytilde_pay.

    Both legs discount against the same collateral currency, which is what
    makes forwards of a currency triangle multiply out exactly.
    """
    return _forward_and_pay_leg(curves, spec)[0]


def _forward_and_pay_leg(curves: CurveSet, spec):
    """`fx_forward` of an `FxForwardSpec` or `FxOptionSpec`, and Ytilde_pay."""
    spot = curves.fx_rate(spec.pay, spec.receive)
    leg_receive = collateralized_zcb(curves, spec.receive, spec.collateral,
                                     spec.maturity)
    leg_pay = collateralized_zcb(curves, spec.pay, spec.collateral,
                                 spec.maturity)
    forward = spot * leg_receive / leg_pay
    if not forward > 0.0:
        raise ConfigurationError(
            f"forward {spec.pay}/{spec.receive} margined in {spec.collateral} "
            f"at T={spec.maturity:g} is {forward!r}, not positive")
    return forward, leg_pay


# Cephes erfc (P/Q below 8, R/S above) and erf (T/U) rational
# approximations, highest power first; the denominators' leading 1 is
# implicit.
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: float, coefs: tuple, monic: bool = False) -> float:
    """Horner's rule from the highest power; `monic` adds a leading 1."""
    ans = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes erf for |x| <= 1."""
    w = x * x
    return x * _polevl(w, _ERF_T) / _polevl(w, _ERF_U, monic=True)


def _ndtr(a: float) -> float:
    """Standard normal CDF, bit for bit scipy.special.ndtr.

    A port of cephes `ndtr` (Moshier, 1989) with the branches of its erf
    and erfc that it reaches, in cephes's order, and libm's exp.
    """
    if a != a:
        return nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    # 0.5 * erfc(z) for z >= 1/sqrt(2)
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
    elif z * z > _MAXLOG:
        y = 0.0
    else:
        p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        y = 0.5 * (exp(-z * z) * _polevl(z, p) / _polevl(z, q, monic=True))
    return 1.0 - y if x > 0.0 else y


def _black(forward: float, strike: float, stdev: float, is_call: bool) -> float:
    """Undiscounted Black price; `fx_forward` keeps the forward > 0."""
    intrinsic = max(forward - strike, 0.0) if is_call else max(strike - forward, 0.0)
    if stdev <= 0.0 or strike == 0.0:
        return intrinsic
    d1 = log(forward / strike) / stdev + 0.5 * stdev
    d2 = d1 - stdev
    if is_call:
        return forward * _ndtr(d1) - strike * _ndtr(d2)
    return strike * _ndtr(-d2) - forward * _ndtr(-d1)


def forward_fx_total_stdev(vols: VolatilitySpec, ts: TenorStructure,
                           pay: str, receive: str, collateral: str,
                           maturity: float) -> float:
    """Total lognormal stdev of the forward FX out to `maturity`.

    The forward's loading on interval a is sigma_X plus the discount-bond
    loadings Gamma of both legs: Gamma of leg m sums delta_b times
    `account_loadings(m, collateral)` over the live buckets b in [a, n_T).
    Piecewise-constant loadings make the variance integral an exact sum.
    """
    n = ts.node_index(maturity)
    sig_x = vols.fx_loadings(pay, receive)
    gap = (vols.account_loadings(pay, collateral)
           - vols.account_loadings(receive, collateral))
    weighted = ts.deltas[:n, None] * gap[:n]
    # suffix[a] = sum over buckets a..n-1; one row past the end stays zero
    suffix = np.zeros((n + 1, vols.n_factors))
    suffix[:n] = np.cumsum(weighted[::-1], axis=0)[::-1]
    # Row a - 1 loads interval a: rates fixed before it no longer load.
    # The stacked matmul takes one ddot per row and cumsum adds in order,
    # so this is the per-interval loop bit for bit; einsum would not be.
    vec = sig_x + suffix[1:]
    squares = (vec[:, None, :] @ vec[:, :, None])[:, 0, 0]
    variance = np.cumsum(ts.deltas[:n] * squares)
    return sqrt(variance[-1]) if n else 0.0


def fx_option_black(curves: CurveSet, vols: VolatilitySpec, ts: TenorStructure,
                    spec: FxOptionSpec) -> float:
    """Closed-form option price: the forward FX is lognormal here.

    Deterministic loadings make the forward FX a lognormal martingale under
    the measure attached to the pay leg's spread-adjusted discount, so the
    price is Ytilde_pay * Black(F, K, stdev).
    """
    forward, annuity = _forward_and_pay_leg(curves, spec)
    stdev = forward_fx_total_stdev(vols, ts, spec.pay, spec.receive,
                                   spec.collateral, spec.maturity)
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
    return curves.equity_curve(currency).value(maturity)
