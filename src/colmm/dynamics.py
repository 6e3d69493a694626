"""State variables on the tenor grid and their no-arbitrage drifts.

Model summary
-------------
Everything is driven by a d-dimensional Brownian motion under the measure
whose numeraire is the base currency's discrete collateral account.  Per
bucket m (period [T_m, T_{m+1}], accrual delta_m) the simulated quantities
are

- c_m: one-period collateral rate of a currency (normal increments),
- y_m: one-period funding spread of an ordered pair (normal),
- B_m: simple LIBOR-OIS spread for the period starting at T_m (lognormal),
- S_m: equity forward maturing at T_{m+1} (lognormal),

plus one lognormal spot FX per pair against the base currency and the
discrete accounts, which compound only at node crossings:
C(T_{n+1}) = C(T_n) * exp(delta_n * c_n(T_n)).

Freezing: c_m, y_m and B_m stop diffusing at T_m (the value then is the
fixing); the equity forward S_m lives through its final interval and stops
at its own maturity T_{m+1}.  Inside the interval (T_{k-1}, T_k] the live
buckets are exactly m >= k for c/y/B and m >= k-1 for S.

Volatility loadings are deterministic vectors, constant per bucket, so all
drifts below are deterministic within an interval and the update over a
whole interval reproduces the exact node distribution of the Gaussian
components; lognormal quantities use the exact exponential scheme.

State: summing those updates, bucket m at node T_k is
x_m(0) + A_m(r) + sigma_m . W(T_r) with r = min(k, fixing node of m) and
A_m(k) = sum_{j<=k} delta_{j-1} alpha_m(j) (Andersen & Piterbarg,
Interest Rate Modeling, 2010, on Gaussian HJM); log B and log S follow the
same formula with the -1/2 |sigma|^2 term inside A.  So PathState carries
only W (at every node passed) and one (paths, K) array of log accounts,
K = currencies + simulated pairs, and reads buckets from tables A built
once by PathState.initial; each drift function returns an (N + 1, N)
array whose row j is alpha(j), so each A is one cumsum.  An account
accrues over (T_k, T_{k+1}] the rate fixed at T_k, x0 + A(k) +
sigma . W(T_k) of bucket k (c for a currency, c + y for a pair), so
evolve_step is one (paths, d) @ (d, K) product plus elementwise updates.

Spot FX carries, inside an interval, the bucket rates fixed at its start:
c_base + y_(base,ccy) - c_ccy, which is what the pair account (base, ccy)
accrues minus what the account of ccy accrues.  So spot FX is a read of
the accounts and W, with no state of its own:
X(base,ccy)(T_n) = X(0) exp(L(base,ccy) - L(ccy) + sigma_X . W(T_n)
- 1/2 |sigma_X|^2 T_n), with L the log accounts.

Foreign-measure (quanto) rule: a non-base currency's drift is the domestic
formula with the leading bracketed sum shifted by -sigma_X(base, currency);
for funding spreads of a foreign pair the shift applies to the first
bracket only.

`half_variance_sign` scales the +1/2 delta |sigma|^2 convexity term of the
collateral-rate drift.  It exists so diagnostics can prove that a corrupted
drift is detected (flip it to -1); production code never passes anything
else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import CurveSet, forward_rates
from .errors import ConfigurationError
from .tenor import TenorStructure

@dataclass
class VolatilitySpec:
    """Deterministic factor loadings per currency, pair, and bucket.

    Bucket-indexed entries accept shape (n_buckets, d) or a single (d,)
    vector applied to every bucket; with d = 1 a scalar is also accepted.
    Spot FX loadings are one (d,) vector per ordered pair.

    Missing entries mean zero loadings.  Reversed pairs default to the
    negated loading of the stored orientation: the spread of (j,i) is the
    negative of the spread of (i,j), and log FX of (j,i) is minus log FX of
    (i,j), so a single stored orientation keeps both directions coherent.
    Same-currency keys are rejected; those loadings are identically zero.
    """

    n_factors: int
    n_buckets: int
    collateral: dict = field(default_factory=dict)
    libor_ois: dict = field(default_factory=dict)
    equity: dict = field(default_factory=dict)
    funding: dict = field(default_factory=dict)
    fx: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n_factors < 1:
            raise ValueError("need at least one factor")
        if self.n_buckets < 1:
            raise ValueError("need at least one bucket")
        for name in ("collateral", "libor_ois", "equity"):
            d = getattr(self, name)
            setattr(self, name, {k: self._bucket_matrix(v, f"{name}[{k}]")
                                 for k, v in d.items()})
        for pair in list(self.funding) + list(self.fx):
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"pair keys must be (ccy, ccy) tuples, got {pair!r}")
            if pair[0] == pair[1]:
                raise ValueError(f"same-currency pair {pair} must be omitted (zero)")
        self.funding = {k: self._bucket_matrix(v, f"funding[{k}]")
                        for k, v in self.funding.items()}
        self.fx = {k: self._vector(v, f"fx[{k}]") for k, v in self.fx.items()}

    def _bucket_matrix(self, value, what: str) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            if self.n_factors != 1:
                raise ValueError(f"{what}: scalar loading needs n_factors=1")
            arr = arr.reshape(1)
        if arr.ndim == 1:
            if arr.size != self.n_factors:
                raise ValueError(
                    f"{what}: expected {self.n_factors} factor loadings, "
                    f"got {arr.size}"
                )
            arr = np.tile(arr, (self.n_buckets, 1))
        if arr.shape != (self.n_buckets, self.n_factors):
            raise ValueError(
                f"{what}: expected shape ({self.n_buckets},{self.n_factors}), "
                f"got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what}: loadings must be finite")
        return arr.copy()

    def _vector(self, value, what: str) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            if self.n_factors != 1:
                raise ValueError(f"{what}: scalar loading needs n_factors=1")
            arr = arr.reshape(1)
        if arr.shape != (self.n_factors,):
            raise ValueError(
                f"{what}: expected one vector of length {self.n_factors}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what}: loadings must be finite")
        return arr.copy()

    def _zero_matrix(self) -> np.ndarray:
        return np.zeros((self.n_buckets, self.n_factors))

    def collateral_loadings(self, currency: str) -> np.ndarray:
        return self.collateral.get(currency, self._zero_matrix())

    def libor_ois_loadings(self, currency: str) -> np.ndarray:
        return self.libor_ois.get(currency, self._zero_matrix())

    def equity_loadings(self, currency: str) -> np.ndarray:
        return self.equity.get(currency, self._zero_matrix())

    def funding_loadings(self, currency: str, collateral: str) -> np.ndarray:
        if currency == collateral:
            return self._zero_matrix()
        if (currency, collateral) in self.funding:
            return self.funding[(currency, collateral)]
        if (collateral, currency) in self.funding:
            return -self.funding[(collateral, currency)]
        return self._zero_matrix()

    def fx_loadings(self, currency: str, other: str) -> np.ndarray:
        if currency == other:
            return np.zeros(self.n_factors)
        if (currency, other) in self.fx:
            return self.fx[(currency, other)]
        if (other, currency) in self.fx:
            return -self.fx[(other, currency)]
        return np.zeros(self.n_factors)


def quanto_adjustment(vols: VolatilitySpec, base: str, currency: str) -> np.ndarray:
    """Vector subtracted from a foreign currency's bracketed drift sums.

    Equals the spot-FX loading of (base, currency); zero for the base
    currency itself, which makes the domestic formulas a special case.
    """
    if base is None or base == currency:
        return np.zeros(vols.n_factors)
    return vols.fx_loadings(base, currency)


def _brackets(deltas: np.ndarray, sig: np.ndarray, shift: np.ndarray,
              inclusive: bool = False) -> np.ndarray:
    """[k, n] = sum_{m=k}^{n-1 (or n if inclusive)} delta_m sig_m - shift."""
    prefix = np.zeros((deltas.size + 1, sig.shape[1]))
    np.cumsum(deltas[:, None] * sig, axis=0, out=prefix[1:])
    end = prefix[1:] if inclusive else prefix[:-1]
    return end[None] - prefix[:, None] - shift


def _collateral_formula(sig: np.ndarray, deltas: np.ndarray, shift: np.ndarray,
                        half_variance_sign: float) -> np.ndarray:
    return (np.einsum("nd,knd->kn", sig, _brackets(deltas, sig, shift))
            + 0.5 * half_variance_sign * deltas * np.einsum("nd,nd->n", sig, sig))


def collateral_drift_vector(vols: VolatilitySpec, ts: TenorStructure,
                            currency: str, measure_currency: str | None = None,
                            half_variance_sign: float = 1.0) -> np.ndarray:
    """Drifts of all collateral-rate buckets, one row per start bucket k.

    Returns shape (N + 1, N); entry [k, n] (valid for n >= k) is
    sigma_n . (sum_{m=k}^{n-1} delta_m sigma_m - shift)
    + half_variance_sign * 1/2 delta_n |sigma_n|^2.
    """
    return _collateral_formula(
        vols.collateral_loadings(currency), ts.deltas,
        quanto_adjustment(vols, measure_currency, currency), half_variance_sign)


def funding_drift_vector(vols: VolatilitySpec, ts: TenorStructure,
                         currency: str, collateral: str,
                         measure_currency: str | None = None) -> np.ndarray:
    """Drifts of all funding-spread buckets of (currency, collateral).

    Returns shape (N + 1, N); entry [k, n] (valid for n >= k) is
    sigma_y,n . (sum_{m=k}^{n-1} delta_m (sigma_y,m + sigma_m) - shift)
    + sigma_n . (sum_{m=k}^{n-1} delta_m sigma_y,m)
    + 1/2 delta_n |sigma_y,n|^2 + delta_n sigma_y,n . sigma_n,
    with the quanto shift in the first bracket only: the collateral formula
    on sigma + sigma_y minus the one on sigma (their shifts on sigma cancel).
    """
    sy = vols.funding_loadings(currency, collateral)
    sc = vols.collateral_loadings(currency)
    shift = quanto_adjustment(vols, measure_currency, currency)
    return (_collateral_formula(sc + sy, ts.deltas, shift, 1.0)
            - _collateral_formula(sc, ts.deltas, shift, 1.0))


def _terminal_drift_vector(own: np.ndarray, vols: VolatilitySpec,
                           ts: TenorStructure, currency: str,
                           measure_currency: str | None) -> np.ndarray:
    """Lognormal drifts sigma . (sum_{m=k}^{idx} delta_m sigma_m - shift).

    Shared by LIBOR-OIS spreads and equity forwards: entry [k, idx] covers
    the collateral-rate buckets k..idx inclusive, i.e. the discount-bond
    exposure out to node idx+1.  Valid from idx = k-1 (empty sum) upward.
    """
    shift = quanto_adjustment(vols, measure_currency, currency)
    return np.einsum("nd,knd->kn", own,
                     _brackets(ts.deltas, vols.collateral_loadings(currency),
                               shift, inclusive=True))


def libor_ois_drift_vector(vols: VolatilitySpec, ts: TenorStructure,
                           currency: str,
                           measure_currency: str | None = None) -> np.ndarray:
    """Lognormal drifts of the LIBOR-OIS spreads, indexed by start bucket."""
    return _terminal_drift_vector(
        vols.libor_ois_loadings(currency), vols, ts, currency, measure_currency
    )


def equity_drift_vector(vols: VolatilitySpec, ts: TenorStructure,
                        currency: str,
                        measure_currency: str | None = None) -> np.ndarray:
    """Lognormal drifts of the equity forwards, indexed by maturity bucket."""
    return _terminal_drift_vector(
        vols.equity_loadings(currency), vols, ts, currency, measure_currency
    )


@dataclass(frozen=True)
class _BucketTables:
    """Deterministic tables of one simulated bucket curve.

    Bucket m fixes at node m + lag and, at node k, reads the row
    r = min(k, m + lag): x0[m] + drift[r, m] + sig[m] . W(T_r), or
    x0[m] * exp(drift[r, m] + sig[m] . W(T_r)) for a lognormal curve.
    drift[k, m] is the cumulative drift sum_{j<=k} delta_{j-1} alpha_m(j),
    with the -1/2 |sig_m|^2 term included for lognormal curves.
    """

    x0: np.ndarray      # (N,)
    drift: np.ndarray   # (N + 1, N)
    sig: np.ndarray     # (N, d)
    lag: int
    lognormal: bool


def _bucket_tables(x0, sig: np.ndarray, ts: TenorStructure, drift: np.ndarray,
                   lag: int = 0, lognormal: bool = False) -> _BucketTables:
    """Tables of one curve; row j of `drift` applies on (T_{j-1}, T_j]."""
    per_interval = drift[1:]
    if lognormal:
        per_interval = per_interval - 0.5 * np.einsum("nd,nd->n", sig, sig)
    table = np.zeros_like(drift)
    np.cumsum(ts.deltas[:, None] * per_interval, axis=0, out=table[1:])
    return _BucketTables(np.asarray(x0, dtype=float), table, sig, lag, lognormal)


_NOT_SIMULATED = {
    "c": "currency {!r} is not simulated",
    "y": "funding pair ({0[0]},{0[1]}) is not simulated",
    "b": "no LIBOR-OIS spreads simulated for {!r}",
    "s": "no equity forwards simulated for {!r}",
}


class PathState:
    """Batched market state at a grid node: every path array leads with paths.

    One instance represents a block of scenarios; the scalar case is a
    block of size one.  What moves through time is the Brownian factor W
    (kept at every node passed, so fixed buckets can be rebuilt) and the
    log accounts, one column per currency and per simulated pair;
    evolve_step mutates them in place.  Bucket values and spot FX are read
    from them through deterministic tables.
    """

    def __init__(self, ts, base, n_paths, tables, s_mask, columns, rate0,
                 rate_sig, fx_legs):
        self.ts = ts
        self.base = base
        self.n_paths = n_paths
        self.node = 0
        self.tables = tables            # (family, key) -> _BucketTables
        self.s_mask = s_mask            # ccy -> (N,) bool
        self.columns = columns          # ccy or (ccy, collateral) -> column
        self.rate0 = rate0              # (N, K): rate on (T_k, T_k+1] at W = 0
        self.rate_sig = rate_sig        # (N, d, K): ... and its loadings
        self.fx_legs = fx_legs          # ccy -> (X(base, ccy)(0), sigma_X)
        self.log_acc = np.zeros((n_paths, len(columns)))
        # (N + 1, P, d): W(T_k), rows <= node
        self.w = np.zeros((ts.n_buckets + 1, n_paths, rate_sig.shape[1]))

    @classmethod
    def initial(cls, ts: TenorStructure, curves: CurveSet, vols: VolatilitySpec,
                base: str, n_paths: int,
                half_variance_sign: float = 1.0) -> "PathState":
        if n_paths < 1:
            raise ValueError("need at least one path")
        if vols.n_buckets != ts.n_buckets:
            raise ConfigurationError(
                f"volatility spec has {vols.n_buckets} buckets, grid has "
                f"{ts.n_buckets}"
            )
        if base not in curves.discounts:
            raise ConfigurationError(f"base currency {base!r} has no discount curve")
        horizon = ts.horizon
        n = ts.n_buckets
        tables = {}

        for ccy, curve in curves.discounts.items():
            if curve.last_pillar < horizon:
                raise ConfigurationError(
                    f"discount curve {ccy} ends at {curve.last_pillar}, "
                    f"grid needs {horizon}"
                )
            tables["c", ccy] = _bucket_tables(
                forward_rates(curve.log_discount, ts),
                vols.collateral_loadings(ccy), ts,
                collateral_drift_vector(vols, ts, ccy, base,
                                        half_variance_sign))

        # Simulated pairs: anything with an initial spread curve or funding
        # loadings, plus (base, ccy) for every non-base currency, whose
        # account spot FX is read from.
        pairs = set(curves.spreads) | set(vols.funding)
        pairs = sorted(pairs | {(base, ccy) for ccy in curves.discounts
                                if ccy != base})
        for pair in pairs:
            pay, col = pair
            if pay not in curves.discounts:
                raise ConfigurationError(
                    f"pair {pair}: pay currency {pay!r} has no discount curve"
                )
            spread = curves.spread_curve(pay, col, missing_ok=True)
            if not spread.is_identity and spread.last_pillar < horizon:
                raise ConfigurationError(
                    f"spread curve {pair} ends at {spread.last_pillar}, "
                    f"grid needs {horizon}"
                )
            tables["y", pair] = _bucket_tables(
                forward_rates(spread.log_value, ts),
                vols.funding_loadings(pay, col), ts,
                funding_drift_vector(vols, ts, pay, col, base))

        for ccy in curves.discounts:
            fix = curves.fixings.get(ccy)
            has_vol = ccy in vols.libor_ois
            if fix is None and not has_vol:
                continue
            values = fix.values if fix is not None else np.zeros(n)
            if values.size != n:
                raise ConfigurationError(
                    f"LIBOR-OIS fixings for {ccy} have {values.size} periods, "
                    f"grid has {n}"
                )
            tables["b", ccy] = _bucket_tables(
                values, vols.libor_ois_loadings(ccy), ts,
                libor_ois_drift_vector(vols, ts, ccy, base),
                lognormal=True)

        s_mask = {}
        for ccy, eq in curves.equities.items():
            if ccy not in curves.discounts:
                raise ConfigurationError(
                    f"equity curve {ccy!r} has no matching discount curve"
                )
            vals, mask = eq.grid_values(ts)
            # Buckets without pillar coverage stay at 1 and never move.
            tables["s", ccy] = _bucket_tables(
                np.where(mask, vals, 1.0),
                vols.equity_loadings(ccy) * mask[:, None], ts,
                equity_drift_vector(vols, ts, ccy, base) * mask,
                lag=1, lognormal=True)
            s_mask[ccy] = mask

        # Accounts: bucket k at node k of c (currency) or c + y (pair).
        columns = {key: col for col, key in
                   enumerate([*curves.discounts, *pairs])}
        rate0 = np.zeros((n, len(columns)))
        rate_sig = np.zeros((n, vols.n_factors, len(columns)))
        for key, col in columns.items():
            parts = ([("c", key[0]), ("y", key)] if isinstance(key, tuple)
                     else [("c", key)])
            for part in parts:
                tab = tables[part]
                rate0[:, col] += tab.x0 + np.diagonal(tab.drift)
                rate_sig[:, :, col] += tab.sig

        fx_legs = {ccy: (curves.fx_rate(base, ccy), vols.fx_loadings(base, ccy))
                   for ccy in curves.discounts if ccy != base}
        return cls(ts, base, n_paths, tables, s_mask, columns, rate0,
                   rate_sig, fx_legs)

    # -- accessors used by payoffs and diagnostics --------------------------

    @property
    def time(self) -> float:
        return float(self.ts.nodes[self.node])

    def buckets(self, family: str, key, lo: int = 0,
                hi: int | None = None) -> np.ndarray:
        """Buckets lo..hi-1 of one simulated curve at the current node.

        family "c" (collateral rates), "b" (LIBOR-OIS spreads by period
        start) and "s" (equity forwards by maturity T_{m+1}) take a currency
        key, "y" (funding spreads) a (currency, collateral) pair.  A bucket
        that has fixed keeps its value from its fixing node.  Returns shape
        (paths, hi - lo).
        """
        try:
            tab = self.tables[family, key]
        except KeyError:
            raise ConfigurationError(_NOT_SIMULATED[family].format(key))
        cols = np.arange(lo, self.ts.n_buckets if hi is None else hi)
        rows = np.minimum(self.node, cols + tab.lag)
        x = tab.drift[rows, cols] + np.einsum("mpd,md->pm", self.w[rows],
                                              tab.sig[cols])
        return tab.x0[cols] * np.exp(x) if tab.lognormal else tab.x0[cols] + x

    def zcb(self, currency: str, maturity: float) -> np.ndarray:
        """D(t, T) reconstructed from live bucket rates at the current node."""
        return self.spread_zcb(currency, currency, maturity)

    def spread_zcb(self, currency: str, collateral: str,
                   maturity: float) -> np.ndarray:
        """D(t,T) * Y(t,T) of (currency, collateral) from live bucket rates."""
        k = self.node
        n = self.ts.node_index(maturity)
        if n < k:
            raise ValueError(f"maturity {maturity} before current time {self.time}")
        rates = self.buckets("c", currency, k, n)
        if currency != collateral:
            rates = rates + self.buckets("y", (currency, collateral), k, n)
        return np.exp(-(rates @ self.ts.deltas[k:n]))

    def account(self, currency: str) -> np.ndarray:
        """Discrete collateral account C(t) at the current node."""
        try:
            return np.exp(self.log_acc[:, self.columns[currency]])
        except KeyError:
            raise ConfigurationError(f"currency {currency!r} is not simulated")

    def pair_account(self, currency: str, collateral: str) -> np.ndarray:
        """Discrete account accruing c + y of the pair; C itself if same ccy."""
        if currency == collateral:
            return self.account(currency)
        try:
            return np.exp(self.log_acc[:, self.columns[currency, collateral]])
        except KeyError:
            raise ConfigurationError(
                f"pair account ({currency},{collateral}) is not simulated"
            )

    def _fx_leg(self, currency: str):
        """X(base, currency) at the current node, read from the accounts."""
        if currency == self.base:
            return 1.0
        x0, sig = self.fx_legs[currency]
        log_acc, col = self.log_acc, self.columns
        carry = log_acc[:, col[self.base, currency]] - log_acc[:, col[currency]]
        return x0 * np.exp(carry + self.w[self.node] @ sig
                           - 0.5 * float(sig @ sig) * self.time)

    def fx_rate(self, currency: str, other: str) -> np.ndarray:
        """Spot FX path values: price of one unit of `other` in `currency`."""
        if currency == other:
            return np.ones(self.n_paths)
        try:
            return self._fx_leg(other) / self._fx_leg(currency)
        except KeyError:
            raise ConfigurationError(
                f"no simulated FX linking {currency} and {other}"
            )

    def libor_ois(self, currency: str, end_node: int) -> np.ndarray:
        """LIBOR-OIS spread for the period ending at node end_node."""
        if not 1 <= end_node <= self.ts.n_buckets:
            raise ValueError(f"period end node {end_node} outside the grid")
        return self.buckets("b", currency, end_node - 1, end_node)[:, 0]

    def equity_forward(self, currency: str, maturity: float) -> np.ndarray:
        """Equity forward S(t, maturity)."""
        n = self.ts.node_index(maturity)
        if n < 1:
            raise ValueError("equity forwards start at the first node")
        mask = self.s_mask.get(currency)
        if mask is not None and not mask[n - 1]:
            raise ConfigurationError(
                f"equity curve {currency} has no pillar coverage at T={maturity}"
            )
        return self.buckets("s", currency, n - 1, n)[:, 0]


def evolve_step(state: PathState, dW: np.ndarray) -> PathState:
    """Advance the state by one whole interval, to the next grid node.

    dW is the Brownian increment over the interval, shape (n_paths, d).  W
    moves by dW and every log account adds delta_k times the rate fixed at
    the interval start T_k, rate0[k] + W(T_k) @ rate_sig[k]: one
    (paths, d) @ (d, K) product.  No bucket is touched, since the tables
    give every bucket at any node, and spot FX follows from the accounts.
    """
    k = state.node
    if k >= state.ts.n_buckets:
        raise ValueError(f"state is at the last node T_{k}; no interval left")
    dW = np.asarray(dW, dtype=float)
    if dW.shape != state.w.shape[1:]:
        raise ValueError(
            f"dW must have shape {state.w.shape[1:]}, got {dW.shape}"
        )
    state.log_acc += state.ts.deltas[k] * (state.rate0[k]
                                           + state.w[k] @ state.rate_sig[k])
    np.add(state.w[k], dW, out=state.w[k + 1])
    state.node = k + 1
    return state


def rollover_fx_forward(state: PathState, pair: tuple, collateral: str) -> np.ndarray:
    """Forward FX for delivery at the next node, struck at the current one.

    At node T_n this is spot * Ytilde_foreign / Ytilde_pay over the single
    bucket n, with Ytilde(T_n, T_{n+1}) = exp(-delta_n (c_n + y_n)) built
    from the rates fixed at T_n.  This is the per-period reset value of a
    rolling FX forward collateralized in `collateral`.
    """
    pay, foreign = pair
    n = state.node
    if n >= state.ts.n_buckets:
        raise ValueError("no next period at the final node")
    d_n = state.ts.deltas[n]
    spot = state.fx_rate(pay, foreign)

    def accrual(ccy):
        rate = state.buckets("c", ccy, n, n + 1)[:, 0]
        if ccy == collateral:
            return rate
        return rate + state.buckets("y", (ccy, collateral), n, n + 1)[:, 0]

    return spot * np.exp(-d_n * (accrual(foreign) - accrual(pay)))
