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
only W (at the nodes its reads reach back to) and the log accounts the
deflators read,
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
paths) table (`PathState.deflator_rows`), and so are its bucket reads
(`PathState.read`): a few numpy calls a node, each over many rows.

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
    """Bucket reads on curves of one kind, a row each (`PathState.read`).

    Row i is x0[i] * exp(drift[i] + sig_i . W(T_r)) on lognormal curves
    and (drift[i] + sig_i . W(T_r)) + x0[i] on normal ones, the steps of
    one bucket read in their order.  The products are (r, sig, rows): the
    rows that read W(T_r), evenly spaced, and their stacked loadings.
    """

    products: tuple     # (r, (rows, 1, d) loadings, slice of rows)
    drift: np.ndarray   # (rows, 1): drift[r, m] of each row's table
    x0: np.ndarray      # (rows, 1)
    lognormal: bool


class DeflatorPlan(NamedTuple):
    """A deflator table's rows, resolved once (`PathState.deflator_plan`).

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


def _read_layout(pattern: tuple) -> list:
    """The batches of reads whose (lognormal, r - node) are `pattern`.

    Per run of consecutive reads of one kind: its bounds, its kind, the
    order in which its rows' loadings are stacked, and per product the W
    row's shift from the node, its stacked rows a..b and its evenly
    spaced rows of the run (`PathState.bucket_reads`).
    """
    layout, lo = [], 0
    while lo < len(pattern):
        lognormal, hi = pattern[lo][0], lo + 1
        while hi < len(pattern) and pattern[hi][0] == lognormal:
            hi += 1
        by_row: dict[int, list] = {}
        for i, (_, shift) in enumerate(pattern[lo:hi]):
            by_row.setdefault(shift, []).append(i)
        products, start = [], 0
        for shift, rows in by_row.items():
            products += [(shift, start + a, start + b, where)
                         for a, b, (where,) in index_runs(rows)]
            start += len(rows)
        layout.append((lo, hi, lognormal,
                       [i for rows in by_row.values() for i in rows],
                       products))
        lo = hi
    return layout


class PathState:
    """Batched market state at a grid node.

    One instance represents a block of scenarios; the scalar case is a
    block of size one.  What moves through time is the Brownian factor W
    and the log accounts that `deflators` and `fx_legs` read, (ccy, ccy)
    and (base, c); evolve_step mutates them in place.  W is kept at the
    last `depth` nodes, W(T_r) in row r % depth of a ring, so that fixed
    buckets can be rebuilt: at every node by default (`initial`, and
    `fresh` without a depth), and in the engine's tiles only as far back
    as their reads look; a read further back, or `w` on a ring, raises
    ValueError.  Bucket values and spot FX are read from them through
    deterministic tables.  Both are stored paths-last, W as (depth, d,
    paths) and the accounts as (K, paths), in one flat buffer, so one
    node's factor and one account are contiguous rows; `w` and `log_acc`
    are views that lead with paths, as every array a PathState returns
    does.  Each FX leg X(base, ccy) is resolved once per model, in
    `initial`, as `fx_legs`; each state makes its account-row views once.
    Payoffs and diagnostics read a state through `deflator`/`deflators`,
    `fx_rate`, `buckets`, `libor_ois`, `equity_forward` and the `w` and
    `log_acc` views; an account is exp(log_acc[:, columns[ccy, coll]]).
    The grouped readers under them, `deflator_rows` and `read`, take plans
    (`deflator_plan`, `bucket_reads`) that read only the tables, so the
    engine makes them once per simulation and every tile's state runs
    them.
    """

    def __init__(self, ts, base, n_paths, tables, s_mask, columns, rate0,
                 rate_sig, fx_legs, depth=None, space=None):
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
        self._read_layouts = {}         # see bucket_reads
        depth = ts.n_buckets + 1 if depth is None else depth
        if not 2 <= depth <= ts.n_buckets + 1:
            raise ValueError(f"W ring depth must be in [2, "
                             f"{ts.n_buckets + 1}], got {depth}")
        d = rate_sig.shape[1]
        n_w = depth * d * n_paths
        size = n_w + len(columns) * n_paths
        space = np.empty(size) if space is None else space[:size]
        space.fill(0.0)
        # (depth, d, P): W(T_r) in row r % depth, for the last depth nodes
        self._w = space[:n_w].reshape(depth, d, n_paths)
        self._log_acc = space[n_w:].reshape(len(columns), n_paths)
        self._rows = list(self._log_acc)  # row views, updated in place

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

    def fresh(self, n_paths: int, depth: int | None = None,
              space: np.ndarray | None = None) -> "PathState":
        """A state at T_0 over n_paths paths, sharing this one's tables.

        It keeps W at its last `depth` nodes, every node by default, and
        builds W and the log accounts in the first (depth d + K) n_paths
        elements of the flat float64 array `space`, or in a new one.
        """
        return PathState(self.ts, self.base, n_paths, self.tables, self.s_mask,
                         self.columns, self.rate0, self.rate_sig, self.fx_legs,
                         depth, space)

    # -- readers for payoffs and diagnostics --------------------------------

    @property
    def w(self) -> np.ndarray:
        """W(T_k) of every path, (N + 1, paths, d); rows past the node are 0.

        A state that keeps fewer than N + 1 nodes raises ValueError.
        """
        depth = len(self._w)
        if depth <= self.ts.n_buckets:
            raise ValueError(f"this state keeps W at its last {depth} nodes, "
                             f"not at all {self.ts.n_buckets + 1}")
        return self._w.transpose(0, 2, 1)

    def _w_at(self, r: int) -> np.ndarray:
        """W(T_r), (d, paths): row r % depth of the ring."""
        return self._w[r % len(self._w)]

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
        (paths, hi - lo): one `read` of the range's `bucket_reads`, which
        makes one product per fixed bucket and one for the live ones.
        Each row is one (d,) @ (d, paths) product whatever its batch, so a
        wide read is the single-bucket reads bit for bit.
        """
        self._tables(family, key)
        hi = self.ts.n_buckets if hi is None else hi
        if not 0 <= lo <= hi <= self.ts.n_buckets:
            raise ValueError(f"bucket range [{lo}, {hi}) is not within "
                             f"[0, {self.ts.n_buckets}]")
        out = np.empty((hi - lo, self.n_paths))
        for reads, rows in self.bucket_reads(
                [(family, key, m) for m in range(lo, hi)], self.node):
            self.read(reads, out[rows])
        return out.T

    def _tables(self, family: str, key) -> _BucketTables:
        try:
            return self.tables[family, key]
        except KeyError:
            raise ConfigurationError(_NOT_SIMULATED[family].format(key))

    def bucket_reads(self, reads, node: int) -> list:
        """Reads (family, key, bucket) at `node`, batched for `read`.

        Bucket m of a table with lag L reads W(T_r), r = min(node, m + L).
        Returns (BucketReads, rows) per run of consecutive reads of one
        kind (normal or lognormal), rows being the run's slice of `reads`;
        within a run, the reads of each W row make one product per evenly
        spaced run of them.  Reads only the tables, so any state of the
        model plans another's reads; the layout of each pattern of kinds
        and W rows relative to the node is kept, and only the tables'
        numbers are gathered per call.
        """
        n = self.ts.n_buckets
        looked_up = []
        for family, key, m in reads:
            tab = self._tables(family, key)
            if not 0 <= m < n:
                raise ValueError(f"bucket {m} is not within [0, {n})")
            looked_up.append((tab, m, min(node, m + tab.lag)))
        pattern = tuple([(tab.lognormal, r - node) for tab, _, r in looked_up])
        if pattern not in self._read_layouts:
            self._read_layouts[pattern] = _read_layout(pattern)
        batches = []
        for lo, hi, lognormal, order, products in self._read_layouts[pattern]:
            run = looked_up[lo:hi]
            # The loadings stacked product by product, each a view of them.
            sig = np.array([run[i][0].sig[run[i][1]] for i in order])[:, None]
            drift, x0 = np.array([[tab.drift[r, m] for tab, m, r in run],
                                  [tab.x0[m] for tab, m, _ in run]])[:, :, None]
            batches.append((BucketReads(
                tuple([(node + shift, sig[a:b], where)
                       for shift, a, b, where in products]),
                drift, x0, lognormal), slice(lo, hi)))
        return batches

    def read(self, reads: BucketReads, out: np.ndarray) -> np.ndarray:
        """The reads at this state into out, (rows, paths), a row each.

        Each product is one np.matmul of its (rows, 1, d) loadings with
        W(T_r), which makes one (d,) @ (d, paths) product per row, bit for
        bit, as a 2-D (rows, d) @ (d, paths) product would not.  Then the
        drifts, exp on lognormal curves and x0, each over every row.
        """
        for r, sig, rows in reads.products:
            if self.node - r >= len(self._w):
                raise ValueError(f"W(T_{r}) is more than {len(self._w)} "
                                 f"nodes back from T_{self.node}")
            np.matmul(sig, self._w_at(r), out=out[rows, None])
        out += reads.drift
        if reads.lognormal:
            np.exp(out, out=out)
            out *= reads.x0
        else:
            out += reads.x0
        return out

    def _column(self, currency: str, collateral: str) -> int:
        """Column of the account accruing c + y of the pair; y = 0 if
        same ccy."""
        try:
            return self.columns[currency, collateral]
        except KeyError:
            raise ConfigurationError(
                f"pair account ({currency},{collateral}) is not simulated")

    def _log_fx_move(self, currency: str) -> np.ndarray:
        """log X(base, currency) - log X(0) at the current node:
        (L(base, ccy) - L(ccy, ccy) + sigma_X . W) - 1/2 |sigma_X|^2 T_n,
        in that order, from the leg's constants in fx_legs."""
        _, sig, half_variance, own, other = self._fx_leg_tables(currency)
        out = self._rows[own] - self._rows[other]
        out += sig @ self._w_at(self.node)
        out -= half_variance * self.time
        return out

    def _fx_leg_tables(self, currency: str) -> tuple:
        try:
            return self.fx_legs[currency]
        except KeyError:
            raise ConfigurationError(
                f"no simulated FX linking {self.base} and {currency}")

    def _fx_leg(self, currency: str):
        """X(base, currency) at the current node, read from the accounts."""
        if currency == self.base:
            return 1.0
        move = self._log_fx_move(currency)
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

        `deflator_rows` of `deflator_plan(keys)`: row i is deflator(*keys[i])
        bit for bit.  out has at least len(keys) rows of paths; scratch is
        a (paths,) array or rows of them for the sigma_X . W products, or
        new.  Returns the table's first len(keys) rows.
        """
        return self.deflator_rows(self.deflator_plan(keys), out, scratch)

    def deflator_plan(self, keys) -> DeflatorPlan:
        """The columns and FX legs each key's row reads, resolved once.

        Each key resolves its base pair account, then its FX leg, so an
        unsimulated key raises what `deflator` raises.  Reads only the
        model's tables.
        """
        base, fx = [], []
        for row, (currency, collateral) in enumerate(keys):
            col = self._column(self.base, collateral)
            if currency == self.base:
                base.append((row, col))
            else:
                fx.append((row, col, self._fx_leg_tables(currency)))
        d = self.rate_sig.shape[1]
        legs = [leg for _, _, leg in fx]
        return DeflatorPlan(
            len(keys),
            tuple(where for _, _, where in index_runs(*zip(*base))) if base
            else (),
            tuple((*where,
                   np.array([leg[1] for leg in legs[lo:hi]]).reshape(-1, 1, d),
                   np.array([[leg[2]] for leg in legs[lo:hi]]))
                  for lo, hi, where in index_runs(
                      [row for row, _, _ in fx], [leg[3] for leg in legs],
                      [leg[4] for leg in legs], [col for _, col, _ in fx]))
            if fx else ())

    def deflator_rows(self, plan: DeflatorPlan, out: np.ndarray,
                      work: np.ndarray | None = None) -> np.ndarray:
        """The deflator table of `plan` at this state, as rows of out.

        Each row's log takes `deflator`'s steps in its order: -L(base,
        collateral), one negate per run of base keys, and for the other
        keys, per run, ((L(base, ccy) - L(ccy, ccy)) + sigma_X . W(T_n))
        - 1/2 |sigma_X|^2 T_n - L(base, collateral), whose products are
        batched as in `read`, len(work) rows at a time.  Then one exp over
        the table.  out has at least plan.n_keys rows of paths; work is a
        (paths,) array or rows of them, or new.  Returns the table.
        """
        table, acc = out[:plan.n_keys], self._log_acc
        for rows, cols in plan.base:
            np.negative(acc[cols], out=table[rows])
        if plan.fx:
            w, time = self._w_at(self.node), self.time
            work = (np.empty((max(len(sig) for *_, sig, _ in plan.fx),
                              self.n_paths))
                    if work is None else work.reshape(-1, self.n_paths))
            for rows, own, other, cols, sig, half_variance in plan.fx:
                x = np.subtract(acc[own], acc[other], out=table[rows])
                for lo in range(0, len(sig), len(work)):
                    part = slice(lo, lo + len(work))
                    products = work[:len(sig[part])]
                    np.matmul(sig[part], w, out=products[:, None])
                    x[part] += products
                x -= half_variance * time
                x -= acc[cols]
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

    dW is the Brownian increment over the interval, shape (n_paths, d); a
    transposed view of a (d, n_paths) array is read without a copy.  W
    moves by dW, into the ring row of T_{k+1}, and every log account adds
    delta_k times the rate fixed at
    the interval start T_k, rate0[k] + rate_sig[k].T @ W(T_k): one
    (K, d) @ (d, paths) product.  No bucket is touched, since the tables
    give every bucket at any node, and spot FX follows from the accounts.
    """
    k = state.node
    if k >= state.ts.n_buckets:
        raise ValueError(f"state is at the last node T_{k}; no interval left")
    dW = np.asarray(dW, dtype=float)
    w = state._w_at(k)
    if dW.shape != (state.n_paths, len(w)):
        raise ValueError(
            f"dW must have shape {(state.n_paths, len(w))}, got {dW.shape}"
        )
    rate = state.rate_sig[k].T @ w
    rate += state.rate0[k][:, None]
    rate *= state.ts.deltas[k]
    state._log_acc += rate
    np.add(w, dW.T, out=state._w_at(k + 1))
    state.node = k + 1
    return state

