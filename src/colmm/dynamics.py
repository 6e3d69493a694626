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
only W (at every node passed) and the log accounts the deflators read,
one (K, paths) array: (ccy, ccy) for every currency with a curve and
(base, c), whose y alone is simulated, for every other currency c.  It
reads buckets from tables A built once by PathState.initial; each drift
function returns an (N + 1, N) array whose row j is alpha(j), so each A
is one cumsum.  The account of a pair accrues over (T_k, T_{k+1}] the
rate fixed at T_k, x0 + A(k) + sigma . W(T_k) of bucket k of c + y, whose
loading is VolatilitySpec.account_loadings; a currency's own account
(ccy, ccy) has y = 0.  So evolve_step is one (K, d) @ (d, paths) product
plus elementwise updates.

Spot FX carries, inside an interval, the bucket rates fixed at its start:
c_base + y_(base,ccy) - c_ccy, which is what the pair account (base, ccy)
accrues minus what the account (ccy, ccy) accrues.  So spot FX is a read of
the accounts and W, with no state of its own:
X(base,ccy)(T_n) = X(0) exp(L(base,ccy) - L(ccy,ccy) + sigma_X . W(T_n)
- 1/2 |sigma_X|^2 T_n), with L the log accounts.  So is the deflator of
a cash flow in ccy margined in k, one over the base pair account of k
converted to ccy: X(base,ccy)(T_n) / (X(0) exp(L(base,k))), one exp in
which X(0) cancels.  A node's keys are read together, as one (keys,
paths) table (`PathState.deflators`).

Foreign-measure (quanto) rule: a non-base currency's drift is the domestic
formula with the leading bracketed sum shifted by -sigma_X(base, currency),
the spot-FX loading `fx_loadings(base, currency)` (zero for the base
itself); for funding spreads of a foreign pair the shift applies to the
first bracket only.

`half_variance_sign`, a field of the Model, scales the +1/2 delta |sigma|^2
convexity term of the collateral-rate drift; -1, set by `diagnose
--corrupt-drift-c`, is a negative control that the martingale table fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curves import check_pairs, check_tree, forward_rates, pair_path
from .errors import ConfigurationError
from .tenor import TenorStructure

@dataclass
class VolatilitySpec:
    """Deterministic factor loadings per currency, pair, and bucket.

    Each of SECTIONS maps a currency, or in PAIR_SECTIONS an ordered pair,
    to loadings of shape (n_buckets, d) or, for spot FX, (d,); a single (d,)
    vector applies to every bucket and with d = 1 a scalar is also accepted.

    Missing entries mean zero loadings.  Reversed pairs default to the
    negated loading of the stored orientation: the spread of (j,i) is the
    negative of the spread of (i,j), and log FX of (j,i) is minus log FX of
    (i,j), so a single stored orientation keeps both directions coherent.
    Log FX also adds up along a chain, so an FX pair resolves through the
    stored pairs as spot FX does (`curves.pair_path`): log X(i,k) =
    log X(i,j) + log X(j,k).  Same-currency keys, and a pair given in both
    orientations, are rejected (`curves.check_pairs`), and so are fx pairs
    that close a cycle (`curves.check_tree`), since a chain's sum must not
    depend on the path; same-currency loadings are identically zero.
    """

    SECTIONS = ("collateral", "libor_ois", "equity", "funding", "fx")
    PAIR_SECTIONS = ("funding", "fx")

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
        for name in self.SECTIONS:
            table = getattr(self, name)
            if name in self.PAIR_SECTIONS:
                check_pairs(table, name)
            if name == "fx":
                check_tree(table, name)
            setattr(self, name, {
                k: self._loadings(v, f"{name}[{k}]", per_bucket=name != "fx")
                for k, v in table.items()})
        # One read-only zero matrix answers every missed lookup.
        self._zero = np.zeros((self.n_buckets, self.n_factors))
        self._zero.flags.writeable = False

    def _loadings(self, value, what: str, per_bucket: bool) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            if self.n_factors != 1:
                raise ValueError(f"{what}: scalar loading needs n_factors=1")
            arr = arr.reshape(1)
        if per_bucket:
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
        elif arr.shape != (self.n_factors,):
            raise ValueError(
                f"{what}: expected one vector of length {self.n_factors}, "
                f"got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{what}: loadings must be finite")
        return arr.copy()

    def collateral_loadings(self, currency: str) -> np.ndarray:
        return self.collateral.get(currency, self._zero)

    def libor_ois_loadings(self, currency: str) -> np.ndarray:
        return self.libor_ois.get(currency, self._zero)

    def equity_loadings(self, currency: str) -> np.ndarray:
        return self.equity.get(currency, self._zero)

    def funding_loadings(self, currency: str, collateral: str) -> np.ndarray:
        if (currency, collateral) in self.funding:
            return self.funding[currency, collateral]
        if (collateral, currency) in self.funding:
            return -self.funding[collateral, currency]
        return self._zero

    def account_loadings(self, currency: str, collateral: str) -> np.ndarray:
        """sigma_c + sigma_y of the account accruing c + y; sigma_c if same."""
        return (self.collateral_loadings(currency)
                + self.funding_loadings(currency, collateral))

    def fx_loadings(self, currency: str, other: str) -> np.ndarray:
        """Loading of log X(currency, other): the sum along pair_path.

        Zero when no chain links them, as for a `currency` of None: the
        drift functions read it as the quanto shift, None meaning domestic.
        """
        steps = [self.fx[pair] if sign > 0 else -self.fx[pair]
                 for pair, sign in pair_path(self.fx, currency, other) or ()]
        return sum(steps[1:], steps[0]) if steps else np.zeros(self.n_factors)


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
        vols.fx_loadings(measure_currency, currency), half_variance_sign)


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
    shift = vols.fx_loadings(measure_currency, currency)
    return (_collateral_formula(vols.account_loadings(currency, collateral),
                                ts.deltas, shift, 1.0)
            - _collateral_formula(vols.collateral_loadings(currency),
                                  ts.deltas, shift, 1.0))


def _terminal_drift_vector(own: np.ndarray, vols: VolatilitySpec,
                           ts: TenorStructure, currency: str,
                           measure_currency: str | None) -> np.ndarray:
    """Lognormal drifts sigma . (sum_{m=k}^{idx} delta_m sigma_m - shift).

    Shared by LIBOR-OIS spreads and equity forwards: entry [k, idx] covers
    the collateral-rate buckets k..idx inclusive, i.e. the discount-bond
    exposure out to node idx+1.  Valid from idx = k-1 (empty sum) upward.
    """
    return np.einsum("nd,knd->kn", own,
                     _brackets(ts.deltas, vols.collateral_loadings(currency),
                               vols.fx_loadings(measure_currency, currency),
                               inclusive=True))


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
    """Batched market state at a grid node.

    One instance represents a block of scenarios; the scalar case is a
    block of size one.  What moves through time is the Brownian factor W
    (kept at every node passed, so fixed buckets can be rebuilt) and the
    log accounts that `deflators` and `fx_legs` read, (ccy, ccy) and
    (base, c); evolve_step mutates them in place.  Bucket values and spot
    FX are read from them through deterministic tables.  Both are stored
    paths-last, W as (N + 1, d, paths) and the accounts as (K, paths), so
    one node's factor and one account are contiguous rows; `w` and
    `log_acc` are views that lead with paths, as every array a PathState
    returns does.  Each FX leg X(base, ccy) is resolved once per model, in
    `initial`, as `fx_legs`; each state makes its account-row views once.
    Payoffs and diagnostics read a state through `deflator`/`deflators`,
    `fx_rate`, `buckets`, `libor_ois`, `equity_forward` and the `w` and
    `log_acc` views; an account is exp(log_acc[:, columns[ccy, coll]]).
    """

    def __init__(self, ts, base, n_paths, tables, s_mask, columns, rate0,
                 rate_sig, fx_legs):
        self.ts = ts
        self.base = base
        self.n_paths = n_paths
        self.node = 0
        self.tables = tables            # (family, key) -> _BucketTables
        self.s_mask = s_mask            # ccy -> (N,) bool
        self.columns = columns          # (ccy, collateral) -> column
        self.rate0 = rate0              # (N, K): rate on (T_k, T_k+1] at W = 0
        self.rate_sig = rate_sig        # (N, d, K): ... and its loadings
        self.fx_legs = fx_legs          # ccy -> one leg's constants
        self._log_acc = np.zeros((len(columns), n_paths))
        self._rows = list(self._log_acc)  # row views, updated in place
        # (N + 1, d, P): W(T_k), rows <= node
        self._w = np.zeros((ts.n_buckets + 1, rate_sig.shape[1], n_paths))

    @classmethod
    def initial(cls, model, n_paths: int) -> "PathState":
        """A state at T_0 of n_paths paths, tabled from a Model, which has
        made every input check; the collateral-rate drifts take its
        `half_variance_sign`."""
        if n_paths < 1:
            raise ValueError("need at least one path")
        ts, curves, vols, base = model.ts, model.curves, model.vols, model.base
        tables = {}

        for ccy, curve in curves.discounts.items():
            tables["c", ccy] = _bucket_tables(
                forward_rates(curve.log_discount, ts),
                vols.collateral_loadings(ccy), ts,
                collateral_drift_vector(vols, ts, ccy, base,
                                        model.half_variance_sign))

        # The accounts the deflators read: (ccy, ccy) for every currency
        # with a curve and (base, c) for every other currency c, which has
        # a curve or shares a spread or funding pair with the base.
        linked = {c for pair in (*curves.spreads, *vols.funding)
                  if base in pair for c in pair}
        pairs = [(base, c) for c in sorted({*curves.discounts, *linked})
                 if c != base]
        for pair in pairs:
            spread = curves.spread_curve(*pair, missing_ok=True)
            tables["y", pair] = _bucket_tables(
                forward_rates(spread.log_value, ts),
                vols.funding_loadings(*pair), ts,
                funding_drift_vector(vols, ts, *pair, base))

        for ccy in curves.discounts:
            if ccy not in curves.fixings and ccy not in vols.libor_ois:
                continue
            tables["b", ccy] = _bucket_tables(
                curves.fixings_for(ccy, ts.n_buckets).values,
                vols.libor_ois_loadings(ccy), ts,
                libor_ois_drift_vector(vols, ts, ccy, base),
                lognormal=True)

        s_mask = {}
        for ccy, eq in curves.equities.items():
            vals, mask = eq.grid_values(ts)
            # Buckets without pillar coverage stay at 1 and never move.
            tables["s", ccy] = _bucket_tables(
                np.where(mask, vals, 1.0),
                vols.equity_loadings(ccy) * mask[:, None], ts,
                equity_drift_vector(vols, ts, ccy, base) * mask,
                lag=1, lognormal=True)
            s_mask[ccy] = mask

        # Each account accrues bucket k at node k of c + y; a currency's own
        # account (ccy, ccy) has no y table.
        columns = {key: col for col, key in enumerate(
            [*((ccy, ccy) for ccy in curves.discounts), *pairs])}
        rate0 = np.zeros((ts.n_buckets, len(columns)))
        rate_sig = np.zeros((ts.n_buckets, vols.n_factors, len(columns)))
        for key, col in columns.items():
            for part in (("c", key[0]), ("y", key)):
                if part in tables:
                    tab = tables[part]
                    rate0[:, col] += tab.x0 + np.diagonal(tab.drift)
            rate_sig[:, :, col] = vols.account_loadings(*key)

        # One leg per non-base currency: (X(base, ccy)(0), sigma_X,
        # 1/2 |sigma_X|^2, column of L(base, ccy), column of L(ccy, ccy)).
        fx_legs = {}
        for ccy in curves.discounts:
            if ccy != base:
                sig = vols.fx_loadings(base, ccy)
                fx_legs[ccy] = (curves.fx_rate(base, ccy), sig,
                                0.5 * float(sig @ sig), columns[base, ccy],
                                columns[ccy, ccy])
        return cls(ts, base, n_paths, tables, s_mask, columns, rate0,
                   rate_sig, fx_legs)

    def fresh(self, n_paths: int) -> "PathState":
        """A state at T_0 over n_paths paths, sharing this one's tables."""
        return PathState(self.ts, self.base, n_paths, self.tables, self.s_mask,
                         self.columns, self.rate0, self.rate_sig, self.fx_legs)

    # -- readers for payoffs and diagnostics --------------------------------

    @property
    def w(self) -> np.ndarray:
        """W(T_k) of every path, (N + 1, paths, d); rows past the node are 0."""
        return self._w.transpose(0, 2, 1)

    @property
    def log_acc(self) -> np.ndarray:
        """Log accounts, (paths, K), column `columns[ccy, collateral]`."""
        return self._log_acc.T

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
        (paths, hi - lo); row m - lo is `_bucket`'s read of bucket m, so a
        wide read is the single-bucket reads bit for bit.
        """
        tab = self._tables(family, key)
        hi = self.ts.n_buckets if hi is None else hi
        if not 0 <= lo <= hi <= self.ts.n_buckets:
            raise ValueError(f"bucket range [{lo}, {hi}) is not within "
                             f"[0, {self.ts.n_buckets}]")
        out = np.empty((hi - lo, self.n_paths))
        for x, m in zip(out, range(lo, hi)):
            self._bucket(tab, m, x)
        return out.T

    def _tables(self, family: str, key) -> _BucketTables:
        try:
            return self.tables[family, key]
        except KeyError:
            raise ConfigurationError(_NOT_SIMULATED[family].format(key))

    def _bucket(self, tab: _BucketTables, m: int, out=None) -> np.ndarray:
        """Bucket m of `tab` at the current node, into out (paths,), or new:
        one row of the tables and one (d,) @ (d, paths) product."""
        r = min(self.node, m + tab.lag)
        x = np.matmul(tab.sig[m], self._w[r], out=out)
        x += tab.drift[r, m]
        if tab.lognormal:
            np.exp(x, out=x)
            x *= tab.x0[m]
        else:
            x += tab.x0[m]
        return x

    def _log_account(self, currency: str, collateral: str) -> np.ndarray:
        """Log of the account accruing c + y of the pair, a row view that
        evolve_step updates in place; y = 0 if same ccy."""
        try:
            return self._rows[self.columns[currency, collateral]]
        except KeyError:
            raise ConfigurationError(
                f"pair account ({currency},{collateral}) is not simulated")

    def _log_fx_move(self, currency: str, time: float, out=None,
                     scratch=None) -> np.ndarray:
        """log X(base, currency) - log X(0) at the current node, into out.

        (L(base, ccy) - L(ccy, ccy) + sigma_X . W) - 1/2 |sigma_X|^2 time,
        in that order, from the leg's constants in fx_legs; out and scratch
        are (paths,) arrays, or new.
        """
        try:
            _, sig, half_variance, own, other = self.fx_legs[currency]
        except KeyError:
            raise ConfigurationError(
                f"no simulated FX linking {self.base} and {currency}")
        out = np.subtract(self._rows[own], self._rows[other], out=out)
        out += np.matmul(sig, self._w[self.node], out=scratch)
        out -= half_variance * time
        return out

    def _fx_leg(self, currency: str):
        """X(base, currency) at the current node, read from the accounts."""
        if currency == self.base:
            return 1.0
        move = self._log_fx_move(currency, self.time)
        return np.exp(move) * self.fx_legs[currency][0]

    def deflator(self, currency: str, collateral: str) -> np.ndarray:
        """1 / numeraire of a cash flow in `currency` margined in `collateral`.

        The numeraire is the base pair account of `collateral`, converted
        to `currency` at simulated spot and times today's spot X(0), so
        X(0) cancels: the deflator is one exp of L(base, currency) -
        L(currency, currency) + sigma_X . W(T_n) - 1/2 |sigma_X|^2 T_n
        - L(base pair), and exp(-L(base pair)) for the base currency.
        """
        return self.deflators([(currency, collateral)],
                              np.empty((1, self.n_paths)))[0]

    def deflators(self, keys, out: np.ndarray,
                  scratch: np.ndarray | None = None) -> np.ndarray:
        """The deflators of (currency, collateral) keys as rows of out.

        Row i is deflator(*keys[i]) bit for bit: each row's log takes the
        same steps in the same order, from the model's FX legs and the
        state's account rows, and one exp covers the table.  out has at
        least len(keys) rows of paths; scratch is a (paths,) array for the
        sigma_X . W products, or new.  Returns the table's first len(keys)
        rows.
        """
        time = self.time
        for (currency, collateral), row in zip(keys, out):
            acc = self._log_account(self.base, collateral)
            if currency == self.base:
                np.negative(acc, out=row)
            else:
                self._log_fx_move(currency, time, row, scratch)
                row -= acc
        table = out[:len(keys)]
        return np.exp(table, out=table)

    def fx_rate(self, currency: str, other: str) -> np.ndarray:
        """Spot FX path values: price of one unit of `other` in `currency`."""
        if currency == other:
            return np.ones(self.n_paths)
        return self._fx_leg(other) / self._fx_leg(currency)

    def libor_ois(self, currency: str, end_node: int) -> np.ndarray:
        """LIBOR-OIS spread for the period ending at node end_node."""
        if not 1 <= end_node <= self.ts.n_buckets:
            raise ValueError(f"period end node {end_node} outside the grid")
        return self._bucket(self._tables("b", currency), end_node - 1)

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
        return self._bucket(self._tables("s", currency), n - 1)


def evolve_step(state: PathState, dW: np.ndarray) -> PathState:
    """Advance the state by one whole interval, to the next grid node.

    dW is the Brownian increment over the interval, shape (n_paths, d); a
    transposed view of a (d, n_paths) array is read without a copy.  W
    moves by dW and every log account adds delta_k times the rate fixed at
    the interval start T_k, rate0[k] + rate_sig[k].T @ W(T_k): one
    (K, d) @ (d, paths) product.  No bucket is touched, since the tables
    give every bucket at any node, and spot FX follows from the accounts.
    """
    k = state.node
    if k >= state.ts.n_buckets:
        raise ValueError(f"state is at the last node T_{k}; no interval left")
    dW = np.asarray(dW, dtype=float)
    w = state._w
    if dW.shape != (state.n_paths, w.shape[1]):
        raise ValueError(
            f"dW must have shape {(state.n_paths, w.shape[1])}, got {dW.shape}"
        )
    rate = state.rate_sig[k].T @ w[k]
    rate += state.rate0[k][:, None]
    rate *= state.ts.deltas[k]
    state._log_acc += rate
    np.add(w[k], dW.T, out=w[k + 1])
    state.node = k + 1
    return state

