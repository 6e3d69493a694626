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

State: summing those updates, bucket m at node T_k is x_m(0) + A_m(r) +
sigma_m . W(T_r) with r = min(k, fixing node of m) and A_m(k) = sum_{j<=k}
delta_{j-1} alpha_m(j) (Andersen & Piterbarg, Interest Rate Modeling, 2010,
on Gaussian HJM); log B and log S follow the same formula with the -1/2
|sigma|^2 term inside A.  So PathState carries only W (at the nodes its
reads reach back to) and the log accounts the deflators read, one (K, paths)
array: (ccy, ccy) for every currency with a curve and (base, c), whose y
alone is simulated, for every other currency c.  It reads buckets from
tables A, which ModelTables.of builds once per model: O(N d) numbers per
curve, A_n(r) = T_r u[n] - own_n . Q[r] (`_Drifts`, `_BucketTables`).  The
account of a pair accrues over (T_k, T_{k+1}] the rate fixed at
T_k, x0 + A(k) + sigma . W(T_k) of bucket k of c + y, whose loading is
VolatilitySpec.account_loadings; a currency's own account (ccy, ccy) has
y = 0.  So evolve_step is one (K, d) @ (d, paths) product plus elementwise
updates, and a step over several intervals one stacked product over them
and an add per interval.

Spot FX carries, inside an interval, the bucket rates fixed at its start:
c_base + y_(base,ccy) - c_ccy, which is what the pair account (base, ccy)
accrues minus what the account (ccy, ccy) accrues.  So spot FX is a read of
the accounts and W, with no state of its own:
X(base,ccy)(T_n) = X(0) exp(L(base,ccy) - L(ccy,ccy) + sigma_X . W(T_n)
- 1/2 |sigma_X|^2 T_n), with L the log accounts.  So is the deflator of
a cash flow in ccy margined in k, one over the base pair account of k
converted to ccy: X(base,ccy)(T_n) / (X(0) exp(L(base,k))), one exp in
which X(0) cancels.  A node's keys are read together, as one (keys,
paths) table (`PathState.deflator_rows`), and so are its bucket reads
(`PathState.read`): a few numpy calls a node, each over many rows, and
over every node of a step that moved several.

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
from itertools import groupby
from typing import NamedTuple

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
    Built whole and not edited afterwards: fx_loadings and account_loadings
    resolve each key once and keep its array, read-only.
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
        self._kept = {}

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
        return self._keep(("account", currency, collateral), lambda: (
            self.collateral_loadings(currency)
            + self.funding_loadings(currency, collateral)))

    def fx_loadings(self, currency: str, other: str) -> np.ndarray:
        """Loading of log X(currency, other): the sum along pair_path.

        Zero when no chain links them, as for a `currency` of None: the
        drift functions read it as the quanto shift, None meaning domestic.
        """
        def total():
            steps = [self.fx[p] if sign > 0 else -self.fx[p]
                     for p, sign in pair_path(self.fx, currency, other) or ()]
            return (sum(steps[1:], steps[0]) if steps
                    else np.zeros(self.n_factors))
        return self._keep(("fx", currency, other), total)

    def _keep(self, key, make) -> np.ndarray:
        """A copy of make() kept read-only under `key` from the first call."""
        if key not in self._kept:
            self._kept[key] = arr = make().copy()
            arr.flags.writeable = False
        return self._kept[key]


def _integer(name: str, value) -> int:
    """value as an int; floats, bools and other non-integers are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class _Drifts(NamedTuple):
    """The drifts alpha[k, n] = own_n . (sum_{m=k}^{n-1 (or n if
    inclusive)} delta_m bracket_m - shift) + convexity_n of one curve, as
    O(N d) numbers: alpha[k, n] = u[n] - own_n . P[k], P[k] = sum_{m<k}
    delta_m bracket_m.  d' = d, or 2d for two brackets side by side."""

    own: np.ndarray     # (N, d')
    prefix: np.ndarray  # (N + 1, d'): P
    u: np.ndarray       # (N,)

    @classmethod
    def of(cls, ts: TenorStructure, own: np.ndarray, bracket: np.ndarray,
           shift: np.ndarray, convexity, inclusive: bool = False):
        prefix = np.zeros((ts.n_buckets + 1, own.shape[1]))
        np.cumsum(ts.deltas[:, None] * bracket, axis=0, out=prefix[1:])
        end = prefix[1:] if inclusive else prefix[:-1]
        return cls(own, prefix,
                   np.einsum("nd,nd->n", own, end - shift) + convexity)

    def entries(self) -> np.ndarray:
        """alpha[k, n], (N + 1, N), row k for the start bucket k."""
        return self.u - self.prefix @ self.own.T


def _collateral_drifts(vols: VolatilitySpec, ts: TenorStructure,
                       currency: str, measure_currency: str | None,
                       half_variance_sign: float) -> _Drifts:
    sig = vols.collateral_loadings(currency)
    return _Drifts.of(ts, sig, sig,
                      vols.fx_loadings(measure_currency, currency),
                      0.5 * half_variance_sign * ts.deltas
                      * np.einsum("nd,nd->n", sig, sig))


def _funding_drifts(vols: VolatilitySpec, ts: TenorStructure, currency: str,
                    collateral: str, measure_currency: str | None) -> _Drifts:
    # Own loadings (sigma_y, sigma) on brackets of (sigma + sigma_y,
    # sigma_y): a zero sigma_y gives exact zeros.
    sig_y = vols.funding_loadings(currency, collateral)
    sig = vols.collateral_loadings(currency)
    shift = vols.fx_loadings(measure_currency, currency)
    return _Drifts.of(ts, np.hstack([sig_y, sig]),
                      np.hstack([vols.account_loadings(currency, collateral),
                                 sig_y]),
                      np.concatenate([shift, np.zeros_like(shift)]),
                      ts.deltas * np.einsum("nd,nd->n", sig_y,
                                            0.5 * sig_y + sig))


def _terminal_drifts(own: np.ndarray, vols: VolatilitySpec,
                     ts: TenorStructure, currency: str,
                     measure_currency: str | None) -> _Drifts:
    """Lognormal drifts sigma . (sum_{m=k}^{idx} delta_m sigma_m - shift).

    Shared by LIBOR-OIS spreads and equity forwards: entry [k, idx] covers
    the collateral-rate buckets k..idx inclusive, i.e. the discount-bond
    exposure out to node idx+1.  Valid from idx = k-1 (empty sum) upward.
    """
    return _Drifts.of(ts, own, vols.collateral_loadings(currency),
                      vols.fx_loadings(measure_currency, currency), 0.0,
                      inclusive=True)


def collateral_drift_vector(vols: VolatilitySpec, ts: TenorStructure,
                            currency: str, measure_currency: str | None = None,
                            half_variance_sign: float = 1.0) -> np.ndarray:
    """Drifts of all collateral-rate buckets, one row per start bucket k.

    Returns shape (N + 1, N); entry [k, n] (valid for n >= k) is
    sigma_n . (sum_{m=k}^{n-1} delta_m sigma_m - shift)
    + half_variance_sign * 1/2 delta_n |sigma_n|^2.
    """
    return _collateral_drifts(vols, ts, currency, measure_currency,
                              half_variance_sign).entries()


def funding_drift_vector(vols: VolatilitySpec, ts: TenorStructure,
                         currency: str, collateral: str,
                         measure_currency: str | None = None) -> np.ndarray:
    """Drifts of all funding-spread buckets of (currency, collateral).

    Returns shape (N + 1, N); entry [k, n] (valid for n >= k) is
    sigma_y,n . (sum_{m=k}^{n-1} delta_m (sigma_y,m + sigma_m) - shift)
    + sigma_n . (sum_{m=k}^{n-1} delta_m sigma_y,m)
    + 1/2 delta_n |sigma_y,n|^2 + delta_n sigma_y,n . sigma_n,
    with the quanto shift in the first bracket only.
    """
    return _funding_drifts(vols, ts, currency, collateral,
                           measure_currency).entries()


def libor_ois_drift_vector(vols: VolatilitySpec, ts: TenorStructure,
                           currency: str,
                           measure_currency: str | None = None) -> np.ndarray:
    """Lognormal drifts of the LIBOR-OIS spreads, indexed by start bucket."""
    return _terminal_drifts(vols.libor_ois_loadings(currency), vols, ts,
                            currency, measure_currency).entries()


def equity_drift_vector(vols: VolatilitySpec, ts: TenorStructure,
                        currency: str,
                        measure_currency: str | None = None) -> np.ndarray:
    """Lognormal drifts of the equity forwards, indexed by maturity bucket."""
    return _terminal_drifts(vols.equity_loadings(currency), vols, ts,
                            currency, measure_currency).entries()


@dataclass(frozen=True, eq=False)
class _BucketTables:
    """Deterministic tables of one simulated bucket curve, read-only.

    Bucket m fixes at node m + lag and, at node k, reads the row
    r = min(k, m + lag): x0[m] + A[r, m] + sig[m] . W(T_r), or
    x0[m] * exp(A[r, m] + sig[m] . W(T_r)) for a lognormal curve.
    A[r, m] = sum_{j<=r} delta_{j-1} alpha_m(j), with the -1/2 |sig_m|^2
    term included for lognormal curves, is T_r u[m] - own_m . Q[r] with
    Q[r] = sum_{j=1}^{r} delta_{j-1} P[j] (`_Drifts`), read by `drift`.
    Hashed by identity, so that `bucket_reads` can group reads by table.
    """

    x0: np.ndarray      # (N,)
    sig: np.ndarray     # (N, d)
    lag: int
    lognormal: bool
    ts: TenorStructure  # T_r = ts.nodes[r]
    u: np.ndarray       # (N,), less 1/2 |sig|^2 if lognormal
    own: np.ndarray     # (N, d')
    q: np.ndarray       # (N + 1, d'): Q

    def drift(self, r, m) -> np.ndarray:
        """A[r, m] at index arrays r and m of one shape, (rows,)."""
        return (self.ts.nodes[r] * self.u[m]
                - np.einsum("id,id->i", self.own[m], self.q[r]))


def _bucket_tables(x0, sig: np.ndarray, ts: TenorStructure, drifts: _Drifts,
                   lag: int = 0, lognormal: bool = False) -> _BucketTables:
    """Tables of one curve; alpha[j] of `drifts` applies on (T_{j-1}, T_j]."""
    q = np.zeros_like(drifts.prefix)
    np.cumsum(ts.deltas[:, None] * drifts.prefix[1:], axis=0, out=q[1:])
    u = drifts.u
    if lognormal:
        u = u - 0.5 * np.einsum("nd,nd->n", sig, sig)
    return _BucketTables(np.array(x0, dtype=float), np.array(sig, dtype=float),
                         lag, lognormal, ts, u, np.array(drifts.own), q)


def index_runs(*seqs) -> list:
    """Maximal runs of parallel index sequences that all step evenly.

    Returns (lo, hi, slices): entries lo..hi-1 of every sequence, and per
    sequence the slice that picks them, each with a step of at least 1.
    An entry that starts no such run is a run of its own.  So one slice
    operation over a run stands in for its entries' gathers, without
    copying.
    """
    runs, lo, n = [], 0, len(seqs[0])
    while lo < n:
        hi, steps = lo + 1, [1] * len(seqs)
        if hi < n:
            diff = [s[hi] - s[lo] for s in seqs]
            if min(diff) >= 1:
                steps, hi = diff, hi + 1
                while hi < n and [s[hi] - s[hi - 1] for s in seqs] == steps:
                    hi += 1
        runs.append((lo, hi, tuple([slice(s[lo], s[hi - 1] + d, d)
                                    for s, d in zip(seqs, steps)])))
        lo = hi
    return runs


class BucketReads(NamedTuple):
    """Bucket reads on curves of one kind at a run of nodes, a row each
    per node (`PathState.read`).

    At node n, row i is x0[n, i] * exp(drift[n, i] + sig_i . W(T_r)) on
    lognormal curves and (drift[n, i] + sig_i . W(T_r)) + x0[n, i] on
    normal ones, the steps of one bucket read in their order.  The
    products are (shift, sig, rows): a run of consecutive rows that read
    W(T_r), r = n + shift, and their loadings at each node.
    """

    products: tuple     # (shift, (nodes, rows, 1, d) loadings, rows a..b)
    drift: np.ndarray   # (nodes, rows, 1): A[r, m] of each row's table
    x0: np.ndarray      # (nodes, rows, 1)
    lognormal: bool


class DeflatorPlan(NamedTuple):
    """A deflator table's rows, resolved once (`ModelTables.deflator_plan`).

    Runs of rows whose indices step evenly (`index_runs`): `base` holds,
    per run of base-currency keys, the table rows and the columns of
    L(base, collateral); `fx` holds, per run of the other keys, the table
    rows, the columns of L(base, ccy), L(ccy, ccy) and L(base,
    collateral), and each row's sigma_X, (rows, 1, d), and 1/2
    |sigma_X|^2, (rows, 1).
    """

    n_keys: int
    base: tuple
    fx: tuple


_NOT_SIMULATED = {
    "c": "currency {!r} is not simulated",
    "y": "funding pair ({0[0]},{0[1]}) is not simulated",
    "b": "no LIBOR-OIS spreads simulated for {!r}",
    "s": "no equity forwards simulated for {!r}",
}


class FxLeg(NamedTuple):
    """The constants of one FX leg X(base, ccy), in `ModelTables.fx_legs`."""

    x0: float               # X(base, ccy)(0)
    sig: np.ndarray         # sigma_X, (d,)
    half_variance: float    # 1/2 |sigma_X|^2
    own: int                # column of L(base, ccy)
    other: int              # column of L(ccy, ccy)


@dataclass(frozen=True, eq=False)
class ModelTables:
    """The deterministic tables of one Model, shared by all its states.

    A path state holds only W and its log accounts and reads the rest
    here; `of` builds the tables once per simulation, and the plans that
    read only them, `deflator_plan` and `bucket_reads` of the reads
    `look_up` resolves, need no paths.  Nothing here changes once built.
    Every array kept is read-only, a copy where it would alias the
    Model's curves or vols, so a payoff that writes into one fails
    instead of moving other tiles' numbers.
    """

    ts: TenorStructure
    base: str
    curves: dict            # (family, key) -> _BucketTables
    s_mask: dict            # ccy -> (N,) bool
    columns: dict           # (ccy, collateral) -> column
    rate0: np.ndarray       # (N, K): rate on (T_k, T_k+1] at W = 0
    rate_sig: np.ndarray    # (N, d, K): ... and its loadings
    fx_legs: dict           # ccy -> FxLeg

    @classmethod
    def of(cls, model) -> "ModelTables":
        """The tables of a Model, which has made every input check; the
        collateral-rate drifts take its `half_variance_sign`."""
        ts, curves, vols, base = model.ts, model.curves, model.vols, model.base
        tables = {}

        for ccy, curve in curves.discounts.items():
            tables["c", ccy] = _bucket_tables(
                forward_rates(curve.log_discount, ts),
                vols.collateral_loadings(ccy), ts,
                _collateral_drifts(vols, ts, ccy, base,
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
                _funding_drifts(vols, ts, *pair, base))

        for ccy in curves.discounts:
            if ccy not in curves.fixings and ccy not in vols.libor_ois:
                continue
            sig = vols.libor_ois_loadings(ccy)
            tables["b", ccy] = _bucket_tables(
                curves.fixings_for(ccy, ts.n_buckets).values, sig, ts,
                _terminal_drifts(sig, vols, ts, ccy, base), lognormal=True)

        s_mask = {}
        for ccy, eq in curves.equities.items():
            vals, mask = eq.grid_values(ts)
            # Buckets without pillar coverage stay at 1 and never move.
            sig = vols.equity_loadings(ccy) * mask[:, None]
            tables["s", ccy] = _bucket_tables(
                np.where(mask, vals, 1.0), sig, ts,
                _terminal_drifts(sig, vols, ts, ccy, base),
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
                    rate0[:, col] += tab.x0 + tab.drift(
                        *np.diag_indices(ts.n_buckets))
            rate_sig[:, :, col] = vols.account_loadings(*key)

        fx_legs = {}
        for ccy in curves.discounts:
            if ccy != base:
                sig = vols.fx_loadings(base, ccy)   # kept read-only by vols
                fx_legs[ccy] = FxLeg(curves.fx_rate(base, ccy), sig,
                                     0.5 * float(sig @ sig),
                                     columns[base, ccy], columns[ccy, ccy])
        for arr in (rate0, rate_sig, *s_mask.values(),
                    *(a for tab in tables.values()
                      for a in (tab.x0, tab.sig, tab.u, tab.own, tab.q))):
            arr.flags.writeable = False
        return cls(ts, base, tables, s_mask, columns, rate0, rate_sig,
                   fx_legs)

    def _tables(self, family: str, key) -> _BucketTables:
        if family not in _NOT_SIMULATED:
            raise ConfigurationError(f"unknown bucket family {family!r}: "
                                     "expected one of 'c', 'y', 'b', 's'")
        if family == "y" and not (isinstance(key, tuple) and len(key) == 2):
            raise ConfigurationError(f"a 'y' key must be a (currency, "
                                     f"collateral) pair, got {key!r}")
        try:
            return self.curves[family, key]
        except KeyError:
            raise ConfigurationError(_NOT_SIMULATED[family].format(key))

    def _column(self, currency: str, collateral: str) -> int:
        """Column of the pair's account, accruing c + y; y = 0 if same."""
        try:
            return self.columns[currency, collateral]
        except KeyError:
            raise ConfigurationError(
                f"pair account ({currency},{collateral}) is not simulated")

    def _fx_leg_tables(self, currency: str) -> FxLeg:
        try:
            return self.fx_legs[currency]
        except KeyError:
            raise ConfigurationError(
                f"no simulated FX linking {self.base} and {currency}")

    def look_up(self, reads, node: int) -> list:
        """(tables, bucket, W row) of each read (family, key, bucket) at
        `node`; bucket m of a table with lag L reads W(T_r), r = min(node,
        m + L)."""
        n, looked_up = self.ts.n_buckets, []
        for family, key, m in reads:
            tab, m = self._tables(family, key), _integer("bucket", m)
            if not 0 <= m < n:
                raise ValueError(f"bucket {m} is not within [0, {n})")
            looked_up.append((tab, m, min(node, m + tab.lag)))
        return looked_up

    @staticmethod
    def bucket_reads(looked_up, nodes) -> list:
        """Reads looked up by `look_up`, looked_up[i] at nodes[i], batched
        for `PathState.read`.

        Read by read, every node's reads are of one kind (normal or
        lognormal) and W row relative to the node, which the first node's
        give.  Returns (BucketReads, rows) per run of consecutive reads of
        one kind, rows being the run's slice of each node's reads; within
        a run, each run of consecutive reads of one W row is one product,
        so reads sorted by W row make one product per W row.  Each table
        has a leading axis of the nodes.
        """
        first, node = looked_up[0], nodes[0]
        batches, lo = [], 0
        for lognormal, kind in groupby(first,
                                       lambda read: read[0].lognormal):
            hi = lo + len(list(kind))
            tabs, m, r = zip(*(read for each in looked_up
                               for read in each[lo:hi]))
            m, r = np.array(m), np.array(r)
            sig = np.empty((len(tabs), first[lo][0].sig.shape[1]))
            drift, x0 = np.empty((2, len(tabs)))
            # One gather and one drift evaluation per table, over all its
            # reads: no numpy call per read.
            for tab in dict.fromkeys(tabs):
                at = np.array([each is tab for each in tabs])
                sig[at], x0[at] = tab.sig[m[at]], tab.x0[m[at]]
                drift[at] = tab.drift(r[at], m[at])
            shape = (len(looked_up), hi - lo, 1)
            sig, drift, x0 = (sig.reshape(*shape, -1), drift.reshape(shape),
                              x0.reshape(shape))
            products, a = [], 0
            for shift, same in groupby(r - node for _, _, r in first[lo:hi]):
                b = a + len(list(same))
                products.append((shift, sig[:, a:b], slice(a, b)))
                a = b
            batches.append((BucketReads(tuple(products), drift, x0,
                                        lognormal), slice(lo, hi)))
            lo = hi
        return batches

    def deflator_plan(self, keys) -> DeflatorPlan:
        """The columns and FX legs each key's row reads, resolved once.

        Each key resolves its base pair account, then its FX leg, so an
        unsimulated key raises what `PathState.deflator` raises.
        """
        base, fx = [], []
        for row, (currency, collateral) in enumerate(keys):
            col = self._column(self.base, collateral)
            if currency == self.base:
                base.append((row, col))
            else:
                fx.append((row, col, self._fx_leg_tables(currency)))
        legs = [leg for _, _, leg in fx]
        return DeflatorPlan(
            len(keys),
            tuple(where for _, _, where in index_runs(*zip(*base))) if base
            else (),
            tuple((*where,
                   np.array([leg.sig for leg in legs[lo:hi]])[:, None],
                   np.array([[leg.half_variance] for leg in legs[lo:hi]]))
                  for lo, hi, where in index_runs(
                      [row for row, _, _ in fx], [leg.own for leg in legs],
                      [leg.other for leg in legs], [col for _, col, _ in fx]))
            if fx else ())


class PathState:
    """Batched market state at a grid node, over one model's tables.

    A block of scenarios (the scalar case is a block of one) owns only
    what moves, W and the log accounts, which evolve_step writes in
    place, up to `group` nodes a step, and the node; it reads every
    bucket and spot FX through `tables`, which any number of states
    share.  W is kept at the last `depth` nodes, every node by default,
    in a window of consecutive nodes that moves on, keeping the last
    depth - 1, when a step would run past its end; a read further back,
    or `w` when not every node is kept, raises ValueError.  The accounts
    are kept at group + 1 nodes, so that a step's nodes never overlap
    the node it starts from.  W, (window, d, paths), and the accounts,
    (group + 1, K, paths), are stored paths-last in the first
    `space_size` elements of the float64 array `space`, or a new one; the
    `w` and `log_acc` views lead with paths, as every array a PathState
    returns does.  Payoffs read a state at its node through `deflator`,
    `fx_rate`, `buckets`, `libor_ois`, `equity_forward`, `w` and
    `log_acc`; an account is exp(log_acc[:, tables.columns[ccy, coll]]).
    The grouped readers under them, `deflator_rows` and `read`, run the
    tables' plans, which the engine makes once per simulation, at the
    node or, given a leading node axis, at the last step's `nodes`.
    """

    def __init__(self, tables: ModelTables, n_paths: int,
                 depth: int | None = None, space: np.ndarray | None = None,
                 group: int = 1):
        if n_paths < 1:
            raise ValueError(f"need at least one path, got {n_paths}")
        n = tables.ts.n_buckets
        depth = n + 1 if depth is None else depth
        if not 2 <= depth <= n + 1:
            raise ValueError(f"W ring depth must be in [2, {n + 1}], "
                             f"got {depth}")
        if group < 1:
            raise ValueError(f"need at least one node a step, got {group}")
        self.tables = tables
        self.n_paths = n_paths
        self.depth = depth
        self.group = group
        self.node = 0
        d, n_acc = tables.rate_sig.shape[1:]
        n_w = self._window(n, depth, group) * d * n_paths
        size = self.space_size(tables, n_paths, depth, group)
        space = np.empty(size) if space is None else space[:size]
        # (window, d, P): W(T_r) in row r - _w_lo
        self._w = space[:n_w].reshape(-1, d, n_paths)
        self._w_lo = 0
        # (group + 1, K, P): the accounts of the last step's nodes, from
        # node _first in row _acc_at on
        self._acc = space[n_w:].reshape(group + 1, n_acc, n_paths)
        self._first = self._acc_at = 0
        # W and the accounts start at 0; every other row is written before
        # it is read, but `w` shows W past the node as 0.
        (self._w if depth > n else self._w[0]).fill(0.0)
        self._acc[0].fill(0.0)

    @staticmethod
    def _window(n: int, depth: int, group: int) -> int:
        """Nodes of W kept at once: the depth - 1 before a step and the
        step's, or twice depth - 1 and one, so that the window moves at
        most once in depth nodes; all n + 1 at most."""
        return min(n + 1, max(2 * depth - 1, depth - 1 + group))

    @classmethod
    def space_size(cls, tables: ModelTables, n_paths: int,
                   depth: int | None = None, group: int = 1) -> int:
        """float64 elements of the space of a state of these arguments."""
        n = tables.ts.n_buckets
        depth = n + 1 if depth is None else depth
        d, n_acc = tables.rate_sig.shape[1:]
        return ((cls._window(n, depth, group) * d + (group + 1) * n_acc)
                * n_paths)

    # -- readers for payoffs and diagnostics --------------------------------

    @property
    def w(self) -> np.ndarray:
        """W(T_k) of every path, (N + 1, paths, d); rows past the node are 0.

        A state that keeps fewer than N + 1 nodes raises ValueError.
        """
        n = self.tables.ts.n_buckets
        if self.depth <= n:
            raise ValueError(f"this state keeps W at its last {self.depth} "
                             f"nodes, not at all {n + 1}")
        return self._w.transpose(0, 2, 1)

    def _w_at(self, lo: int, hi: int) -> np.ndarray:
        """W(T_lo), ..., W(T_hi-1), (hi - lo, d, paths)."""
        return self._w[lo - self._w_lo:hi - self._w_lo]

    def _acc_at_nodes(self, lo: int, hi: int) -> np.ndarray:
        """The log accounts at nodes lo..hi-1 of the last step."""
        at = self._acc_at - self._first
        return self._acc[at + lo:at + hi]

    @property
    def nodes(self) -> range:
        """The nodes of the last `evolve_step`, T_0 before any."""
        return range(self._first, self.node + 1)

    def _nodes(self, grouped: bool) -> tuple[int, int]:
        """The nodes a reader reads: the last step's, or the node alone."""
        return (self._first if grouped else self.node), self.node + 1

    @property
    def _log_acc(self) -> np.ndarray:
        """The log accounts at the node, (K, paths)."""
        return self._acc_at_nodes(self.node, self.node + 1)[0]

    @property
    def log_acc(self) -> np.ndarray:
        """Log accounts, (paths, K), column `tables.columns[ccy, coll]`."""
        return self._log_acc.T

    @property
    def time(self) -> float:
        return float(self.tables.ts.nodes[self.node])

    def increments(self, n_steps: int) -> np.ndarray:
        """The rows of W(T_node+1), ..., W(T_node+n_steps), (n_steps, d,
        paths), which take the increments of the next `evolve_step`; the
        window moves on first if they run past it."""
        k, n = self.node, self.tables.ts.n_buckets
        if not 1 <= n_steps <= min(self.group, n - k):
            raise ValueError(f"a step from T_{k} moves 1 to "
                             f"{min(self.group, n - k)} nodes, not {n_steps}")
        if k + n_steps - self._w_lo >= len(self._w):
            first = k + 2 - self.depth
            self._w[:k + 1 - first] = self._w_at(first, k + 1)
            self._w_lo = first
        return self._w_at(k + 1, k + 1 + n_steps)

    def buckets(self, family: str, key, lo: int = 0,
                hi: int | None = None) -> np.ndarray:
        """Buckets lo..hi-1 of one simulated curve at the current node.

        family "c" (collateral rates), "b" (LIBOR-OIS spreads by period
        start) and "s" (equity forwards by maturity T_{m+1}) take a currency
        key, "y" (funding spreads) a (currency, collateral) pair.  A bucket
        that has fixed keeps its value from its fixing node.  Returns shape
        (paths, hi - lo): one `read` of the range's `bucket_reads`, which
        makes one product per fixed bucket and one for the live ones.
        Each row is one (d,) @ (d, paths) product whatever its batch, so a
        wide read is the single-bucket reads bit for bit.
        """
        n = self.tables.ts.n_buckets
        self.tables._tables(family, key)
        hi = n if hi is None else hi
        lo, hi = _integer("bucket", lo), _integer("bucket", hi)
        if not 0 <= lo <= hi <= n:
            raise ValueError(f"bucket range [{lo}, {hi}) is not within "
                             f"[0, {n}]")
        out = np.empty((hi - lo, self.n_paths))
        looked_up = self.tables.look_up(
            [(family, key, m) for m in range(lo, hi)], self.node)
        for reads, rows in self.tables.bucket_reads([looked_up], [self.node]):
            self.read(reads, out[rows])
        return out.T

    def read(self, reads: BucketReads, out: np.ndarray,
             at: int = 0) -> np.ndarray:
        """The reads at this state into out, a row each.

        out is (rows, paths) at the node, with the reads' node `at`, or
        (nodes, rows, paths) at the last step's nodes, with the reads'
        nodes at.., one each.  Each product is one np.matmul of its (nodes,
        rows, 1, d) loadings with W(T_r) at each node, which makes one (d,)
        @ (d, paths) product per node and row, bit for bit, as a 2-D (rows,
        d) @ (d, paths) product would not.  Then the drifts, exp on
        lognormal curves and x0, each over every node and row.
        """
        lo, hi = self._nodes(out.ndim == 3)
        values = out if out.ndim == 3 else out[None]
        nodes = slice(at, at + hi - lo)
        for shift, sig, rows in reads.products:
            if -shift >= self.depth:
                raise ValueError(f"W(T_{self.node + shift}) is more than "
                                 f"{self.depth} nodes back from "
                                 f"T_{self.node}")
            np.matmul(sig[nodes], self._w_at(lo + shift, hi + shift)[:, None],
                      out=values[:, rows, None])
        values += reads.drift[nodes]
        if reads.lognormal:
            np.exp(values, out=values)
            values *= reads.x0[nodes]
        else:
            values += reads.x0[nodes]
        return out

    def _fx_leg(self, currency: str, lo: int, hi: int):
        """X(base, currency) at nodes lo..hi-1 of the last step, (hi - lo,
        paths), read from the accounts: X(0) exp((L(base, ccy) - L(ccy,
        ccy) + sigma_X . W) - 1/2 |sigma_X|^2 T_n), in that order."""
        if currency == self.tables.base:
            return 1.0
        leg = self.tables._fx_leg_tables(currency)
        acc = self._acc_at_nodes(lo, hi)
        move = acc[:, leg.own] - acc[:, leg.other]
        move += leg.sig @ self._w_at(lo, hi)
        move -= leg.half_variance * self.tables.ts.nodes[lo:hi, None]
        return np.exp(move) * leg.x0

    def deflator(self, currency: str, collateral: str) -> np.ndarray:
        """1 / numeraire of a cash flow in `currency` margined in `collateral`.

        The numeraire is the base pair account of `collateral`, converted
        to `currency` at simulated spot and times today's spot X(0), so
        X(0) cancels: the deflator is one exp of L(base, currency) -
        L(currency, currency) + sigma_X . W(T_n) - 1/2 |sigma_X|^2 T_n
        - L(base pair), and exp(-L(base pair)) for the base currency.
        """
        return self.deflator_rows(
            self.tables.deflator_plan([(currency, collateral)]),
            np.empty((1, self.n_paths)))[0]

    def deflator_rows(self, plan: DeflatorPlan, out: np.ndarray,
                      work: np.ndarray | None = None) -> np.ndarray:
        """The deflator table of `plan` at this state, as rows of out.

        out is (rows, paths) at the node or (nodes, rows, paths) at the
        last step's nodes.  Row i is deflator(*keys[i]) of the plan's
        keys at each node, bit for bit: its log takes `deflator`'s steps
        in their order: -L(base, collateral), one negate per run of base
        keys, and for the other keys, per run, ((L(base, ccy) - L(ccy,
        ccy)) + sigma_X . W(T_n)) - 1/2 |sigma_X|^2 T_n - L(base,
        collateral), whose products are batched as in `read`, as many
        rows at a time as work has per node.  Then one exp over the
        table.  out has at least plan.n_keys rows of paths a node; work
        is a (paths,) array or rows of them, per node, or new.  Returns
        the table, of out's number of axes.
        """
        lo, hi = self._nodes(out.ndim == 3)
        table = (out if out.ndim == 3 else out[None])[:, :plan.n_keys]
        acc = self._acc_at_nodes(lo, hi)
        for rows, cols in plan.base:
            np.negative(acc[:, cols], out=table[:, rows])
        if plan.fx:
            w = self._w_at(lo, hi)[:, None]
            times = self.tables.ts.nodes[lo:hi, None, None]
            work = (np.empty((hi - lo, max(len(sig) for *_, sig, _ in plan.fx),
                              self.n_paths)) if work is None
                    else work.reshape(hi - lo, -1, self.n_paths))
            width = work.shape[1]
            for rows, own, other, cols, sig, half_variance in plan.fx:
                x = np.subtract(acc[:, own], acc[:, other], out=table[:, rows])
                for at in range(0, len(sig), width):
                    part = slice(at, at + width)
                    products = work[:, :len(sig[part])]
                    np.matmul(sig[part], w, out=products[:, :, None])
                    x[:, part] += products
                x -= half_variance * times
                x -= acc[:, cols]
        np.exp(table, out=table)
        return table if out.ndim == 3 else table[0]

    def fx_rate(self, currency: str, other: str,
                grouped: bool = False) -> np.ndarray:
        """Spot FX path values: price of one unit of `other` in `currency`,
        at the node or, grouped, at the last step's nodes, (nodes, paths)."""
        lo, hi = self._nodes(grouped)
        if currency == other:
            rate = np.ones((hi - lo, self.n_paths))
        else:
            rate = self._fx_leg(other, lo, hi) / self._fx_leg(currency, lo, hi)
        return rate if grouped else rate[0]

    def libor_ois(self, currency: str, end_node: int) -> np.ndarray:
        """LIBOR-OIS spread for the period ending at node end_node."""
        if not 1 <= end_node <= self.tables.ts.n_buckets:
            raise ValueError(f"period end node {end_node} outside the grid")
        return self.buckets("b", currency, end_node - 1, end_node)[:, 0]

    def equity_forward(self, currency: str, maturity: float) -> np.ndarray:
        """Equity forward S(t, maturity)."""
        n = self.tables.ts.node_index(maturity)
        if n < 1:
            raise ValueError("equity forwards start at the first node")
        mask = self.tables.s_mask.get(currency)
        if mask is not None and not mask[n - 1]:
            raise ConfigurationError(
                f"equity curve {currency} has no pillar coverage at T={maturity}"
            )
        return self.buckets("s", currency, n - 1, n)[:, 0]


def evolve_step(state: PathState, dW: np.ndarray) -> PathState:
    """Advance the state by one whole interval, to the next grid node, or
    by several.

    dW is the Brownian increment over the interval, shape (n_paths, d),
    or over each of `steps` intervals, (steps, n_paths, d), steps at most
    the state's group; a transposed view of a (d, n_paths) or (steps, d,
    n_paths) array is read without a copy, and the state's own
    `increments` rows are not copied at all.  W moves by dW, into the W
    rows of the nodes it reaches, one add a node.  Every log account adds
    delta_j times the rate fixed at the interval start T_j, rate0[j] +
    rate_sig[j].T @ W(T_j) of the state's tables: one stacked (steps, K,
    d) @ (steps, d, paths) product, each interval's (K, d) @ (d, paths)
    product bit for bit, and one add a node.  (np.cumsum over the nodes
    adds the same, but ran 40 times slower on (2, 3, 5000) arrays.)  No
    bucket is touched, since the tables give every bucket at any node,
    and spot FX follows from the accounts.
    """
    tables, k = state.tables, state.node
    if k >= tables.ts.n_buckets:
        raise ValueError(f"state is at the last node T_{k}; no interval left")
    dW = np.asarray(dW, dtype=float)
    steps, d = (len(dW) if dW.ndim == 3 else 1), tables.rate_sig.shape[1]
    shape = (state.n_paths, d) if dW.ndim != 3 else (steps, state.n_paths, d)
    if dW.shape != shape:
        raise ValueError(f"dW must have shape {shape}, got {dW.shape}")
    state.increments(steps)[...] = (dW.T if dW.ndim == 2
                                    else dW.transpose(0, 2, 1))
    w = state._w_at(k, k + 1 + steps)
    for j in range(steps):
        w[j + 1] += w[j]
    # The steps' rows follow the base row, or come before it; when
    # neither fits, the base moves to the last row.
    base = state._acc_at + k - state._first
    at = 0 if base >= steps else base + 1
    if at + steps > len(state._acc):
        state._acc[-1] = state._acc[base]
        base, at = len(state._acc) - 1, 0
    acc = state._acc[at:at + steps]
    np.matmul(tables.rate_sig[k:k + steps].transpose(0, 2, 1), w[:-1],
              out=acc)
    acc += tables.rate0[k:k + steps, :, None]
    acc *= tables.ts.deltas[k:k + steps, None, None]
    acc[0] += state._acc[base]
    for j in range(1, steps):
        acc[j] += acc[j - 1]
    state.node, state._first, state._acc_at = k + steps, k + 1, at
    return state
