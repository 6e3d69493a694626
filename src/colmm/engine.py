"""Monte Carlo driver: keyed normal increments, scheduling, estimators.

Reproducibility contract
------------------------
Each grid interval takes one normal per factor: the Brownian increment of
path p over interval k (from T_k to T_{k+1}) is
sqrt(delta_k) * gaussian_increments(seed, p, k, d), a pure function of
(seed, p, k).  Path p owns the counter-based stream keyed by (seed, p) and
interval k consumes words [k*d, (k+1)*d) of it.  The stream is
that of numpy's Philox4x64-10 under key (seed, p); the engine computes it
with uint64 ufuncs over (path, counter) arrays, which release the GIL, so
worker threads generate in parallel.  Each word w becomes the uniform
((w >> 11) + 0.5) * 2^-53 and then a normal through `_ndtri`, a numpy port
of cephes ndtri: bit for bit scipy.special.ndtri on the central 73 % of
draws and within a few ulp of it in the tails, where numpy's log stands in
for libm's.  The engine needs numpy alone.

Workers never share generator state.  Sampling is always antithetic: with
pairs = n_paths / 2 (so the path count must be even), path p < pairs has a
mirror path p + pairs driven by the negated increments of p's stream.  The
estimator averages pair means and its standard error is the sample stdev
of the pair means over sqrt(pairs); the reported path count stays at the
physical 2 * pairs.

Pairs fall in fixed chunks of _CHUNK_PAIRS, [c C, (c + 1) C), the last one
partial, and workers take contiguous blocks of whole chunks, each on a
thread of its own.  A block runs its pairs in tiles of _TILE_PAIRS, whole
chunks from the block's start, the last one partial; each tile draws its
own normals, a slab of steps at a time, and evolves its own W and
accounts over the whole grid, keeping W only as far back as its payoffs
read it.  A slab's Philox blocks are made in chunks of _CHUNK_BLOCKS on a
lone block and of twice that on blocks that run beside others, whose
numpy calls each pass through the GIL: the normals are the same for any
chunk size.  At
each node a tile writes one table of deflators, a row per (currency,
collateral) key, from the log accounts and W (`PathState.deflator_rows`);
a payoff's values are its amounts times its key's row (a unit payoff is
the row itself).  A payoff is a unit, a description (a bucket read or an
FX option) or an opaque fn.  `simulate_many` looks each bucket read up
once and puts a node's reads first among its other rows, stably sorted
by kind and W row, so that each (kind, W row) is one run of rows.  It
plans each run of consecutive nodes that settle alike once: the
deflator table's columns and FX legs, and the other rows in batches,
each kind of read one batched read with one product per W row,
gathered at every node of the run.  A tile
of n pairs then steps G = max(1, _TILE_PAIRS // n) nodes at a time,
fewer where a slab or a run ends or at a node with an opaque fn, which
sees the state at its own node, and settles them together in a fixed
handful of grouped numpy calls with a leading node axis, each row
taking the steps of its own read in their order, so that grouping
moves no bit and a small tile's calls are as large as a full tile's.
The tile holds the pair sums of its rows across nodes, a bounded number
at a time, and reduces them into per-chunk statistics (count, mean, M2 =
the sum of squared deviations) and each row's min and max over the whole
buffer, which are exact in any order, so few, large numpy calls do the
reduction and no pair sum outlives the buffer.  The chunks are merged with the k-group form of
Chan, Golub & LeVeque's (1983) update, each sum running over the chunks
in their order.  C depends on nothing else, and each row's statistics on
its own values alone, so every statistic, and the estimate, is
bit-identical for any worker count, tile size and buffer size.

Memory grows with the path count and the grid only through the
statistics and the tables: a simulation holds, per worker, one tile's
workspace, and, shared, the model's tables, the settlement plans and the
chunk statistics, 40 B per payoff row per 100 pairs.  A workspace holds
the tile's accounts at G + 1 nodes, W at the last few nodes and the G
of a step (every node when a payoff is an opaque fn), a slab of normals
and their Philox buffers, and its settlement scratch, sized for G nodes
of the tile's pairs, so for a full tile's pairs: nothing in it grows
with the grid but that W.

With every volatility at zero all paths coincide; the estimator returns the
common value with a standard error of exactly 0.0 rather than trusting
floating-point averaging of identical numbers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Callable, NamedTuple

import numpy as np

from .curves import CurveSet, pair_path
from .dynamics import (DeflatorPlan, ModelTables, PathState, VolatilitySpec,
                       _integer, evolve_step, index_runs)
from .errors import ConfigurationError
from .tenor import TenorStructure

WORKERS_ENV_VAR = "COLMM_WORKERS"
# Each worker is one OS thread, started per simulation; the count is
# bounded before any is started.
MAX_WORKERS = 64

# Residuals below this relative size count as roundoff when a deterministic
# estimate (SE exactly zero) is scored against its target.
_EXACT_RTOL = 1e-12

_MAX_SEED = 2 ** 64
# The largest array numpy can size or index, in bytes.
_MAX_BYTES = int(np.iinfo(np.intp).max)

# Philox4x64-10 (Salmon et al., SC'11): round multipliers and the Weyl
# increments that bump the key between rounds.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)

# Paths are generated in chunks of about this many 4-word blocks: the round
# buffers then stay in cache and memory does not grow with the path count.
# This size is the fastest on one thread: doubling a lone block's chunk
# made fxopt-mc 5 % and 1-worker diagnose-wide 7 % slower.  Blocks that
# run beside others draw chunks twice as large: every numpy call of a
# worker thread pays a round trip through the GIL, and halving their
# number cut diagnose-wide's 2-worker job time by 4-9 %.
_CHUNK_BLOCKS = 1 << 14

# Pairs per estimator chunk; see _ChunkStatistics.  A fixed size, so the
# chunks are the same for any worker count.  Workers split whole chunks,
# so a small C balances them; a path count that is a multiple of 200
# gives whole chunks.
_CHUNK_PAIRS = 100

# Pairs per tile, 50 whole chunks: a block runs its pairs a tile at a
# time, so its workspace never outgrows one tile.  A tile of n pairs
# settles _TILE_PAIRS // n nodes a step, so its numpy calls are a full
# tile's size: smaller calls on two threads each pay a GIL round trip.
# 2,500-pair tiles that settled one node a step ran diagnose-wide's
# 10,000 paths at 1.00-1.08x the speed of 1 worker in process; two
# nodes a step run them at 1.18-1.20x.
_TILE_PAIRS = 50 * _CHUNK_PAIRS

# A tile's settlement scratch per node it settles at once, in rows of one
# value per pair, whatever the number of payoffs: a tile that settles G
# nodes a step takes G times these rows, so a full tile's pairs' worth.
# Its deflator table takes two per key (a path and its mirror), and its
# work rows two each: a node's other rows are settled `width` at a time
# in them, and its FX keys' sigma_X . W products made `width` at a time,
# width being the most a node needs, cut to fit this budget but at least
# one.  The table and work rows share the space of the normals' Philox
# buffers, since neither lives while the other does.  The rest, at least
# one, hold pair sums across nodes until they are reduced, so that every
# block makes few, large numpy calls.  The table is not capped, so a node
# with k > 19 keys takes 2k + 1 rows, or 2k + 3 with work rows.
_SETTLE_ROWS = 40

# Cephes ndtri (Moshier, 1989): sqrt(2 pi), e^-2 and the rational
# approximations, highest power first.
_NDTRI_S2PI = 2.50662827463100050242E0
_NDTRI_EXP_M2 = 0.13533528323661269189
_NDTRI_MIN_DIST = 2.0 ** -54
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_NDTRI_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9)
_NDTRI_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9)


@dataclass(frozen=True)
class Model:
    """Immutable simulation inputs: grid, initial curves, vols, base currency.

    Checked once, when built, and frozen, so ModelTables.of only builds
    tables.  Every loading's currency has a curve; every fx currency reaches
    the base through the fx pairs and every funding pair holds it, since
    the simulation reads only the legs X(base, ccy) and the accounts
    (ccy, ccy) and (base, c); spreads and equities are paid in a currency
    with a curve, and fixings span the grid.  The base currency fixes the
    measure: deflated prices use its pair accounts as numeraires.
    `half_variance_sign` scales the collateral-rate drift's convexity term;
    -1.0 is a negative control.
    """

    ts: TenorStructure
    curves: CurveSet
    vols: VolatilitySpec
    base: str
    half_variance_sign: float = 1.0

    def __post_init__(self):
        if self.base not in self.curves.discounts:
            raise ConfigurationError(
                f"base currency {self.base!r} has no discount curve"
            )
        if self.vols.n_buckets != self.ts.n_buckets:
            raise ConfigurationError(
                f"volatility spec has {self.vols.n_buckets} buckets, "
                f"grid has {self.ts.n_buckets}"
            )
        # A loading keyed to no curve would be ignored, not priced.  A
        # funding pair's collateral currency may lack a curve.
        vols, curves = self.vols, self.curves
        keyed = [*(("collateral", c) for c in vols.collateral),
                 *(("libor_ois", c) for c in vols.libor_ois),
                 *(("fx", c) for pair in vols.fx for c in pair),
                 *(("funding", pay) for pay, _ in vols.funding)]
        for section, ccy in keyed:
            if ccy not in curves.discounts:
                raise ConfigurationError(
                    f"vol config {section}: currency {ccy!r} has no "
                    f"discount curve")
        for ccy in vols.equity:
            if ccy not in curves.equities:
                raise ConfigurationError(
                    f"vol config equity: currency {ccy!r} has no equity curve")
        # A simulated FX leg is X(base, ccy), the loadings' sum along the
        # chain from the base: an fx pair off every such chain is not priced.
        for ccy in (c for pair in vols.fx for c in pair):
            if pair_path(vols.fx, self.base, ccy) is None:
                raise ConfigurationError(
                    f"vol config fx: no chain of fx pairs links currency "
                    f"{ccy!r} to the base {self.base!r}")
        for pay, col in vols.funding:
            if self.base not in (pay, col):
                raise ConfigurationError(
                    f"vol config funding: pair {pay}/{col} does not hold the "
                    f"base {self.base!r}")
        for pay, col in curves.spreads:
            if pay not in curves.discounts:
                raise ConfigurationError(f"pair {(pay, col)}: pay currency "
                                         f"{pay!r} has no discount curve")
        for ccy, fix in curves.fixings.items():
            if ccy in curves.discounts and fix.values.size != self.ts.n_buckets:
                raise ConfigurationError(
                    f"LIBOR-OIS fixings for {ccy} have {fix.values.size} "
                    f"periods, grid has {self.ts.n_buckets}")
        for ccy in curves.equities:
            if ccy not in curves.discounts:
                raise ConfigurationError(
                    f"equity curve {ccy!r} has no matching discount curve")


def _uint64(name: str, value) -> int:
    """value as an int in [0, 2**64), the range of a Philox key word."""
    value = _integer(name, value)
    if not 0 <= value < _MAX_SEED:
        raise ValueError(f"{name} must fit in a uint64, got {value}")
    return value


@dataclass(frozen=True)
class SimulationConfig:
    """Path count and seed, checked once, when built, and frozen."""

    n_paths: int = 100_000
    seed: int = 42

    def __post_init__(self):
        n_paths = _integer("n_paths", self.n_paths)
        if n_paths < 4:         # one pair would read as deterministic
            raise ValueError(f"need at least 4 paths, got {n_paths}")
        if n_paths % 2:
            raise ValueError(
                f"antithetic sampling needs an even path count, got {n_paths}"
            )
        # Kept as int: numpy integers overflow in the seed's key arithmetic.
        object.__setattr__(self, "n_paths", n_paths)
        object.__setattr__(self, "seed", _uint64("seed", self.seed))

    def resolved_workers(self) -> int:
        raw = os.environ.get(WORKERS_ENV_VAR)
        if raw is None:
            return 1
        try:
            n = int(raw)
        except ValueError:
            raise ConfigurationError(f"{WORKERS_ENV_VAR}={raw!r} is not an integer")
        if not 1 <= n <= MAX_WORKERS:
            raise ConfigurationError(
                f"{WORKERS_ENV_VAR} must be in [1, {MAX_WORKERS}], got {n}")
        return n


@dataclass(frozen=True)
class PriceEstimate:
    """MC estimate with its sampling error; SE == 0 marks a deterministic run."""

    mean: float
    std_error: float
    n_paths: int
    currency: str

    def __post_init__(self):
        if self.std_error < 0.0:
            raise ValueError("standard error cannot be negative")

    def z_score(self, target: float) -> float:
        """Studentized residual against a known target value.

        For a deterministic estimate (SE exactly zero) the score is 0 when
        the residual is pure roundoff relative to the target, else signed
        infinity.
        """
        resid = self.mean - target
        if self.std_error > 0.0:
            return resid / self.std_error
        if abs(resid) <= _EXACT_RTOL * max(1.0, abs(target)):
            return 0.0
        return float(np.copysign(np.inf, resid))


class BucketRead(NamedTuple):
    """Bucket `bucket` of the simulated curve (family, key) at the payoff's
    node: `PathState.buckets(family, key, bucket, bucket + 1)`, with the
    families and keys of `buckets`."""

    family: str
    key: str | tuple
    bucket: int


class FxOption(NamedTuple):
    """max(sign (X(pay, receive) - strike), 0) at the payoff's node, with
    sign 1.0 for a call and -1.0 for a put and X `PathState.fx_rate`."""

    pay: str
    receive: str
    strike: float
    is_call: bool = True


@dataclass(frozen=True)
class GridPayoff:
    """Payoff amount fixed at a grid node, in `currency`, margined in `collateral`.

    The amount is one unit of `currency` (fn and description None), a
    description (a `BucketRead` or an `FxOption`), which the engine
    settles from the model's tables a node's rows at a time, or an opaque
    fn, which maps the PathState at the maturity node to per-path amounts
    read through the state's `fx_rate`, `buckets`, `libor_ois`,
    `equity_forward`, `w` and `log_acc`; a payoff takes fn or a
    description, not both.  The engine multiplies the amounts by
    `PathState.deflator(currency, collateral)`, one over the numeraire in
    `currency`: the base pair account accruing c + y of (base,
    collateral), converted at simulated spot FX and times today's spot, so
    the estimate is in `currency`.  A node's deflators are one table, a
    row per (currency, collateral) key, so payoffs sharing a key share a
    row; a unit payoff's values are the row itself, and unit payoffs of
    one key share one estimate.
    """

    fn: Callable[[PathState], np.ndarray] | None
    maturity: float
    currency: str
    collateral: str
    description: BucketRead | FxOption | None = None

    def __post_init__(self):
        if self.fn is not None and self.description is not None:
            raise ValueError("a payoff takes fn or a description, not both")
        if not isinstance(self.description, (BucketRead, FxOption,
                                             type(None))):
            raise TypeError(f"a description is a BucketRead or an FxOption, "
                            f"got {self.description!r}")


class _Batch(NamedTuple):
    """Up to `width` non-unit rows of each node of a run, settled in the
    tile's work rows in row order: its bucket reads, one `PathState.read`
    per run of one kind, then FX options and opaque payoffs a row each,
    then each run of rows whose keys' deflator rows step evenly times
    those rows."""

    n_rows: int
    reads: tuple        # (BucketReads, slice of rows)
    options: tuple      # (row, FxOption)
    opaque: tuple       # (row, name, fn)
    deflate: tuple      # (slice of rows, slice of deflator table rows)


class _NodePlan(NamedTuple):
    """How a tile settles each node of a run of consecutive nodes that
    settle alike, from `first` to `end` - 1: its deflator table, whose
    first n_units rows are unit rows, then its other rows in batches, so
    n_rows rows in all.  A node with an opaque fn is a run of its own;
    nodes without payoffs make runs without deflators."""

    first: int
    end: int
    deflators: DeflatorPlan
    n_units: int
    batches: tuple
    n_rows: int


def _batches(nodes: list, others: list, reads: list, width: int) -> tuple:
    """Batches of the non-unit rows of a run of nodes, width rows at a
    time: others[i] is node nodes[i]'s (table row, name, payoff) in row
    order, its bucket reads first, and reads[i] their `ModelTables.look_up`;
    every node's rows settle alike.  One `bucket_reads` per batch gathers
    its reads' tables at every node."""
    batches, first = [], others[0]
    for lo in range(0, len(first), max(1, width)):   # width 0: no rows
        rows = first[lo:lo + width]
        n_reads = len(reads[0][lo:lo + width])
        batches.append(_Batch(
            len(rows),
            tuple(ModelTables.bucket_reads(
                [each[lo:lo + n_reads] for each in reads], nodes)),
            tuple([(j, p.description) for j, (_, _, p) in enumerate(rows)
                   if j >= n_reads and p.fn is None]),
            tuple([(j, name, p.fn) for j, (_, name, p) in enumerate(rows)
                   if p.fn is not None]),
            tuple(where for _, _, where in index_runs(
                range(len(rows)), [k for k, _, _ in rows]))))
    return tuple(batches)


def _settles_as(node: int, keys: list, n_units: int, others: list,
                reads: list):
    """What a node's plan has in common with the plans of the nodes it
    is settled with: its keys, its unit count, each other row's key, each
    read's kind and W row relative to the node, and the FxOptions.  A
    node with an opaque fn settles alone."""
    if any(p.fn is not None for _, _, p in others):
        return node
    return (tuple(keys), n_units, tuple([k for k, _, _ in others]),
            tuple([(tab.lognormal, r - node) for tab, _, r in reads]),
            tuple([p.description for _, _, p in others[len(reads):]]))


def gaussian_increments(seed: int, path: int, step: int, n_factors: int) -> np.ndarray:
    """Standard normal increments of one (path, step), as the engine draws them.

    Pure function of its arguments; workers calling it in any order or
    partition reproduce the same numbers.
    """
    seed, path, step = (_uint64(name, value) for name, value in (
        ("seed", seed), ("path", path), ("step", step)))
    n_factors = _integer("n_factors", n_factors)
    if n_factors < 1:
        raise ValueError(f"need at least one factor, got {n_factors}")
    # The 4-step group that holds the step starts on a Philox block.
    first = step - step % 4
    return _block_normals(seed, path, path + 1, step - first + 1, n_factors,
                          first)[-1, :, 0]


def _ratio(w: np.ndarray, num: tuple, den: tuple, p: np.ndarray,
           q: np.ndarray) -> np.ndarray:
    """w * polevl(w, num) / p1evl(w, den) into p, in cephes's order.

    Horner from the highest power down; den's leading 1 is implicit.  q is
    scratch of w's shape.
    """
    np.multiply(w, num[0], out=p)
    for coef in num[1:-1]:
        p += coef
        p *= w
    p += num[-1]
    np.add(w, den[0], out=q)
    for coef in den[1:]:
        q *= w
        q += coef
    p *= w
    p /= q
    return p


def _ndtri_tail(t: np.ndarray, x: np.ndarray, x0: np.ndarray,
                z: np.ndarray) -> np.ndarray:
    """Cephes's tail branch of ndtri on t (<= e^-2 or > 1 - e^-2), into x0.

    With y the distance of t to its end, x = sqrt(-2 log y) and z = 1 / x,
    the result is x - log(x) / x - z P(z) / Q(z), signed as t - 0.5.  P1/Q1
    cover 2 <= x < 8, P2/Q2 (t within e^-32 of an end) x >= 8.  x, x0 and
    z are scratch of t's size, and t is clobbered.  Both terms take the
    sign before the difference, which rounds the same.  The distance to 1
    is floored at 2^-54: the engine's uniform map rounds its top 2^11 words
    to t = 1.0, which then takes the normal at distance 2^-54 from 1, the
    mirror of the smallest uniform 2^-54.  Every t below 1 is at least
    2^-53 from 1, so the floor changes no other result.
    """
    np.subtract(1.0, t, out=x)
    np.maximum(x, _NDTRI_MIN_DIST, out=x)
    np.minimum(t, x, out=x)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    far = np.flatnonzero(x >= 8.0) if x.max() >= 8.0 else None
    np.log(x, out=x0)
    x0 /= x
    np.subtract(x, x0, out=x0)
    np.divide(1.0, x, out=z)
    t -= 0.5
    np.copysign(x0, t, out=x0)
    if far is not None:
        z_far = z[far]
        x1_far = _ratio(z_far, _NDTRI_P2, _NDTRI_Q2, np.empty_like(z_far),
                        np.empty_like(z_far))
    x1 = _ratio(z, _NDTRI_P1, _NDTRI_Q1, x, t)
    if far is not None:
        x1[far] = x1_far
    np.copysign(x1, x0, out=x1)
    x0 -= x1
    return x0


def _ndtri(u: np.ndarray, scratch=None) -> np.ndarray:
    """Inverse standard normal CDF of a 1-D u strictly inside (0, 1), in place.

    A port of cephes `ndtri` (Moshier, 1989), the function behind
    scipy.special.ndtri, with cephes's operations in cephes's order.  The
    central branch (e^-2 < u <= 1 - e^-2, about 73 % of uniforms) is
    evaluated over all of u and is bit for bit cephes; the tails are
    gathered, evaluated with numpy's log, which may differ from libm's by
    an ulp, and scattered back.  scratch is three float64 arrays of at
    least u.size elements, allocated when not given.
    """
    m = u.size
    y2, p, q = (a[:m] for a in (np.empty((3, m)) if scratch is None else scratch))
    tail, above = y2.view(np.bool_)[:2 * m].reshape(2, m)
    np.less_equal(u, _NDTRI_EXP_M2, out=tail)
    np.greater(u, 1.0 - _NDTRI_EXP_M2, out=above)
    tail |= above
    idx = np.flatnonzero(tail)
    t = u[idx]
    u -= 0.5
    np.multiply(u, u, out=y2)
    _ratio(y2, _NDTRI_P0, _NDTRI_Q0, p, q)
    p *= u
    u += p
    u *= _NDTRI_S2PI
    if t.size:
        u[idx] = _ndtri_tail(t, *(a[:t.size] for a in (y2, p, q)))
    return u


def _mulhi(m_lo, m_hi, x: np.ndarray, out: np.ndarray, t: np.ndarray,
           s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products m * x into `out`; x is kept.

    Hacker's Delight `mulhu` over the 32-bit halves of m (uint64 arrays
    that broadcast against x) and of x; t, s and h are scratch of x's shape.
    """
    np.right_shift(x, _SHIFT32, out=h)
    np.bitwise_and(x, _LO32, out=out)
    np.multiply(out, m_hi, out=t)
    np.multiply(out, m_lo, out=out)
    np.right_shift(out, _SHIFT32, out=out)
    np.add(t, out, out=t)                   # m_hi*x_lo + (m_lo*x_lo >> 32)
    np.bitwise_and(t, _LO32, out=s)
    np.right_shift(t, _SHIFT32, out=t)
    np.multiply(h, m_lo, out=out)
    np.add(s, out, out=s)                   # middle word with its carry
    np.right_shift(s, _SHIFT32, out=s)
    np.multiply(h, m_hi, out=out)
    np.add(out, t, out=out)
    return np.add(out, s, out=out)


def _normals_layout(n_paths: int, n_steps: int, n_factors: int,
                    chunk: int = _CHUNK_BLOCKS) -> tuple[int, int, int]:
    """Philox blocks per path, paths per chunk of about `chunk` blocks and
    float64 elements of the workspace of `_block_normals` over n_steps
    steps: the normals, three round buffers of 4 words a block, the key
    words, and a chunk's normals when there is more than one chunk."""
    words = n_steps * n_factors
    blocks = -(-words // 4)
    rows = max(1, min(n_paths, chunk // max(blocks, 1)))
    staged = 0 if rows == n_paths else words * rows
    return blocks, rows, words * n_paths + (3 * 4 + 1) * blocks * rows + staged


def _block_normals(seed: int, path_lo: int, path_hi: int, n_steps: int,
                   n_factors: int, step_lo: int = 0,
                   space: np.ndarray | None = None,
                   chunk: int = _CHUNK_BLOCKS) -> np.ndarray:
    """Normals for a contiguous path block, shape (steps, factors, paths).

    Steps step_lo to step_lo + n_steps - 1; each step's normals are
    contiguous rows, one per factor.  Path p takes words step_lo d,
    ..., (step_lo + n_steps) d - 1 of numpy.random.Philox(key=[seed, p]),
    bit for bit, to the uniforms ((w >> 11) + 0.5) * 2^-53 and those
    through `_ndtri`.  numpy bumps the counter before its first block, so
    block b of the path's stream is Philox4x64-10 of counter (b + 1, 0, 0,
    0) under key (seed, p); a draw whose last counter would reach 2^64,
    where numpy carries into word 1, is refused.  step_lo is a multiple of
    4, so for any d the steps start on block step_lo d / 4 and any slab of
    them is the matching rows of a draw from step 0.  The rounds run as
    in-place uint64 ufuncs over (blocks, paths) arrays, a chunk of about
    `chunk` blocks at a time; the normals are the same for any chunk.
    Both multiplications of a round are
    one ufunc call over the stacked words [x0, x2], with the products' low
    words stacked as [x3, x1], which halves the calls.  A chunk's normals
    are made in one contiguous (words, paths) buffer and, unless it is
    all the paths, copied into place.  Everything lives in `space`, a flat
    float64 array of at least `_normals_layout(..., chunk)[2]` elements,
    in that function's order, or in a new one.
    """
    if step_lo % 4:
        raise ValueError(f"step_lo must be a multiple of 4, got {step_lo}")
    n_paths = path_hi - path_lo
    words = n_steps * n_factors
    blocks, rows, size = _normals_layout(n_paths, n_steps, n_factors, chunk)
    first = step_lo * n_factors // 4
    if blocks and first + blocks >= _MAX_SEED:
        raise ValueError(f"step {step_lo + n_steps - 1} of {n_factors} "
                         f"factors runs the Philox block counter past "
                         f"2**64 - 1")
    space = np.empty(size) if space is None else space[:size]
    out = space[:words * n_paths].reshape(words, n_paths)
    normals = out.reshape(n_steps, n_factors, n_paths)
    if words == 0:
        return normals
    mult = np.array([_PHILOX_M0, _PHILOX_M1], dtype=np.uint64)[:, None, None]
    mult_lo, mult_hi = mult & _LO32, mult >> _SHIFT32
    key0 = [np.uint64((seed + r * _PHILOX_W0) % _MAX_SEED)
            for r in range(_PHILOX_ROUNDS)]
    w1 = np.uint64(_PHILOX_W1)
    # Counter words 1-3 are zero and key word 0 is the seed, so rounds 1
    # and 2 reduce to per-block constants xored with the path's key word.
    counters = range(first + 1, first + blocks + 1)
    hi_ctr = np.array([_PHILOX_M0 * c >> 64 for c in counters],
                      dtype=np.uint64)[:, None]
    mix = np.array([(_PHILOX_M0 * seed >> 64) ^ (_PHILOX_M0 * c % _MAX_SEED)
                    for c in counters], dtype=np.uint64)[:, None]
    lo_seed = np.uint64(_PHILOX_M0 * seed % _MAX_SEED)
    # The key word runs on from chunk to chunk; rounds 2-10 each add W1.
    next_chunk = np.uint64((rows - (_PHILOX_ROUNDS - 1) * _PHILOX_W1)
                           % _MAX_SEED)

    # Six stacked round buffers in three arrays, which are float scratch
    # for _ndtri once the chunk's uniforms are out, and the key word as a
    # full (blocks, paths) array.  A (paths,) vector broadcast over the
    # blocks gives the same words, but it raised diagnose-wide's peak RSS
    # by 1.6-7.0 MB in 5 of 5 paired runs, through where the allocator then
    # placed the arrays that follow.
    at, n_buf = words * n_paths, 4 * blocks * rows
    scratch = [space[at + i * n_buf:][:n_buf] for i in range(3)]
    bufs = [buf.view(np.uint64) for buf in scratch]
    at += 3 * n_buf
    key1_buf = space[at:at + blocks * rows].view(np.uint64).reshape(blocks,
                                                                     rows)
    key1_buf[...] = np.arange(path_lo, path_lo + rows, dtype=np.uint64)
    chunk_buf = (out.reshape(-1) if rows == n_paths
                 else space[at + blocks * rows:])
    full = words // 4
    for lo in range(path_lo, path_hi, rows):
        hi = min(lo + rows, path_hi)
        n = hi - lo
        x, y, low, t, s, h = (buf[:4 * blocks * n].reshape(4, blocks, n)[i:i + 2]
                              for buf in bufs for i in (0, 2))
        key1 = key1_buf[:, :n]                         # the path's key word
        c = y[0]
        np.bitwise_xor(key1, hi_ctr, out=c)           # round 1: word 2
        _mulhi(mult_lo[1], mult_hi[1], c, x[1], t[0], s[0], h[0])  # round 2
        x[1] ^= key0[1]
        np.multiply(c, mult[1], out=low[1])
        key1 += w1
        np.bitwise_xor(key1, mix, out=x[0])
        low[0].fill(lo_seed)
        # x = [word 2, word 0] and low = [word 3, word 1] from here on.
        for r in range(2, _PHILOX_ROUNDS):
            key1 += w1
            _mulhi(mult_lo, mult_hi, x[::-1], y, t, s, h)
            y ^= low
            np.multiply(x[::-1], mult, out=low)
            y[0] ^= key1
            y[1] ^= key0[r]
            x, y = y, x
        key1_buf += next_chunk
        # Uniforms: word k of block b is row 4 b + k.
        dest = chunk_buf[:words * n].reshape(words, n)
        by_block = dest[:4 * full].reshape(full, 4, n)
        for k, word in enumerate((x[1], low[1], x[0], low[0])):
            word >>= _SHIFT11
            by_block[:, k] = word[:full]
            if 4 * full + k < words:
                dest[4 * full + k] = word[full]
        dest += 0.5
        dest *= 2.0 ** -53
        _ndtri(dest.reshape(-1), scratch)
        if n < n_paths:
            out[:, lo - path_lo:hi - path_lo] = dest
    return normals


def _partition(n_units: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous near-equal blocks [lo, hi); drops empty trailing blocks."""
    n_workers = min(n_workers, n_units)
    bounds = np.linspace(0, n_units, n_workers + 1).round().astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _pair_blocks(n_pairs: int, n_workers: int) -> list[tuple[int, int]]:
    """Pair blocks [lo, hi) of whole chunks; only the last holds a partial one."""
    n_chunks = -(-n_pairs // _CHUNK_PAIRS)
    return [(lo * _CHUNK_PAIRS, min(hi * _CHUNK_PAIRS, n_pairs))
            for lo, hi in _partition(n_chunks, n_workers)]


class _ChunkStatistics:
    """Per-chunk statistics of rows of values, one per pair, and their merge.

    Chunk c holds pairs [c C, (c + 1) C), C = _CHUNK_PAIRS, the last one
    partial.  `add` reduces a chunk-aligned slice of rows to, per row and
    chunk, the mean (sum / count, np.mean's steps), its residual (the mean
    of the deviations from it, the roundoff np.mean left) and M2 (the sum
    of the squared deviations, np.std's steps): each a function of its
    row and chunk alone.  Each chunk of a slice takes its row's min and
    max over the whole slice, one pass each, exact in any partition.
    `estimates` merges the chunks with the k-group form of Chan, Golub &
    LeVeque's update, M2 = sum of M2_c + sum of n_c (mean_c - mean)^2, on
    deviations from chunk 0's mean with the residuals added back, so no
    difference of two means loses the digits of the level.  Each sum runs
    over a row's chunks in order, so a row's result depends on its chunks
    alone.  A single chunk gives np.mean and np.std(ddof=1) / sqrt(n) bit
    for bit.  A row whose min equals its max is deterministic: that value
    with SE 0.0.
    """

    def __init__(self, n_rows: int, n_pairs: int):
        n_chunks = -(-n_pairs // _CHUNK_PAIRS)
        # Five float64 per row and chunk.  Statistics numpy cannot size are
        # out of memory before anything is allocated; ones it can size but
        # the machine cannot hold fail in their one np.empty.
        if 5 * n_rows * n_chunks * 8 > _MAX_BYTES:
            raise MemoryError(f"{2 * n_pairs} paths need more than "
                              f"{_MAX_BYTES} bytes")
        self.n_pairs = n_pairs
        self.lo, self.hi, self.mean, self.resid, self.m2 = np.empty(
            (5, n_rows, n_chunks))

    def add(self, rows: slice, pair_lo: int, values: np.ndarray) -> None:
        """Reduce values (rows, pairs from pair_lo on), clobbering them."""
        n = values.shape[1]
        c0, full = pair_lo // _CHUNK_PAIRS, n - n % _CHUNK_PAIRS
        chunks = slice(c0, c0 + -(-n // _CHUNK_PAIRS))
        self.lo[rows, chunks] = values.min(axis=1)[:, None]
        self.hi[rows, chunks] = values.max(axis=1)[:, None]
        for lo, hi in ((0, full), (full, n)):
            if hi == lo:
                continue
            size = min(hi - lo, _CHUNK_PAIRS)
            part = values[:, lo:hi].reshape(len(values), -1, size)
            cols = slice(c0 + lo // _CHUNK_PAIRS, c0 + -(-hi // _CHUNK_PAIRS))
            mean, resid, m2 = (a[rows, cols]
                               for a in (self.mean, self.resid, self.m2))
            part.sum(axis=2, out=mean)
            mean /= size
            part -= mean[:, :, None]
            part.sum(axis=2, out=resid)
            resid /= size
            part *= part
            part.sum(axis=2, out=m2)

    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's mean and standard error, from every chunk's statistics."""
        counts = np.full(self.mean.shape[1], float(_CHUNK_PAIRS))
        counts[-1] = self.n_pairs - _CHUNK_PAIRS * (len(counts) - 1)
        n = counts.sum()
        mean0, resid0 = self.mean[:, :1], self.resid[:, :1]
        # Chunk means less chunk 0's, with the roundoff of both added back.
        delta = (self.mean - mean0) + (self.resid - resid0)
        offset = (delta * counts).sum(axis=1) / n   # merged mean - mean0
        delta -= offset[:, None]
        delta *= delta
        m2 = self.m2.sum(axis=1) + (delta * counts).sum(axis=1)
        lo, hi = self.lo.min(axis=1), self.hi.max(axis=1)
        live = lo != hi
        means, ses = lo.copy(), np.zeros(len(lo))
        means[live] = mean0[live, 0] + offset[live]
        ses[live] = np.sqrt(m2[live] / (n - 1)) / np.sqrt(n)
        return means, ses


def _run_threads(target: Callable, calls: list[tuple]) -> None:
    """Run target(*args) for each args on a thread of its own; join them all.

    The first exception, in the order of `calls`, is raised once every
    thread has ended.
    """
    errors: list[BaseException | None] = [None] * len(calls)

    def run(i: int, args: tuple) -> None:
        try:
            target(*args)
        except BaseException as exc:
            errors[i] = exc

    threads = []
    try:
        for i, args in enumerate(calls):
            thread = threading.Thread(target=run, args=(i, args))
            thread.start()
            threads.append(thread)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _simulate_block(tables: ModelTables, cfg: SimulationConfig, plans: list,
                    n_held: int, width: int, n_last: int, depth: int,
                    unit_lo: int, unit_hi: int, stats: _ChunkStatistics,
                    chunk: int) -> None:
    """Evolve one block of pairs a tile at a time; see `_simulate_tile`.

    Tiles are _TILE_PAIRS pairs, whole chunks from the block's start, the
    last one partial, so a block's memory is one tile's whatever its size.
    """
    for lo in range(unit_lo, unit_hi, _TILE_PAIRS):
        _simulate_tile(tables, cfg, plans, n_held, width, n_last, depth, lo,
                       min(lo + _TILE_PAIRS, unit_hi), stats, chunk)


def _option_values(state: PathState, option: FxOption,
                   out: np.ndarray) -> np.ndarray:
    """max(sign (fx - strike), 0.0) at the last step's nodes into out,
    (nodes, paths), in the steps an opaque fn would take: sign times the
    difference is that difference times sign."""
    np.subtract(state.fx_rate(option.pay, option.receive, grouped=True),
                option.strike, out=out)
    out *= 1.0 if option.is_call else -1.0
    return np.maximum(out, 0.0, out=out)


def _simulate_tile(tables: ModelTables, cfg: SimulationConfig, plans: list,
                   n_held: int, width: int, n_last: int, depth: int,
                   unit_lo: int, unit_hi: int, stats: _ChunkStatistics,
                   chunk: int) -> None:
    """Evolve one tile of paths; reduce its pairs' values into `stats`.

    A unit is a (path, mirror) pair, and unit u of a row is the sum of the
    pair's deflated values, twice its mean: scaling by 2 is exact, so the
    caller halves the estimates instead of every value.  A tile's units
    are whole chunks, so its statistics are the same for any partition.
    A tile of n pairs steps G = max(1, _TILE_PAIRS // n) nodes at a time
    (`evolve_step`), fewer where a slab, a run of nodes that settle alike
    (`simulate_many`) or the held rows end, so a small tile's numpy calls
    are as large as a full tile's.  The step's nodes are settled together
    by their plan in a fixed handful of grouped numpy calls, whatever
    their rows: one deflator table, a row per (currency, collateral) key
    (`PathState.deflator_rows`), whose first rows are the unit rows, held
    with one add; then the other rows, `width` at a time, in the tile's
    work rows and in row order: one `PathState.read` per kind of bucket
    read, an FX option or an opaque fn a row each, one multiply per run
    of rows whose keys' deflator rows step evenly, and one add to hold
    them.  Every row takes the steps of its own read in their
    order, so grouping moves no bit.  Pair sums are held across nodes, in
    row order, a step's rows whole, reduced G n_held rows at a time and
    at the tile's end; a lone node may fill the held rows many times.
    n_held and width depend on the payoffs, never on the worker count.
    The tile's state reads the `tables` every tile shares and owns its
    accounts and W at the last `depth` nodes.  The normals are drawn a
    slab of steps at a time: the most whole 4-step groups (d Philox
    blocks per path each) whose blocks for the tile fit one chunk of
    `chunk` blocks, at least one.  One workspace, allocated once, holds
    the state, a slab's normals and their Philox buffers, and the table,
    work and held rows of G nodes, so no array in a tile grows with the
    grid but the W of a state that keeps every node.
    """
    ts, d = tables.ts, tables.rate_sig.shape[1]
    n_units = unit_hi - unit_lo
    n_phys = 2 * n_units
    group = max(1, _TILE_PAIRS // n_units)
    slab = 4 * max(1, chunk // (d * n_units))
    n_keys = max(plan.deflators.n_keys for plan in plans
                 if plan.deflators is not None)
    # A slab's normals come first in the draw space.  Their Philox
    # buffers, dead once the slab is drawn, share the rest with the
    # table and work rows, which live only while a step settles.
    drawn = min(slab, n_last) * d * n_units
    settling = list(accumulate((group * n_keys * n_phys,
                                group * width * n_phys), initial=drawn))
    sizes = (PathState.space_size(tables, n_phys, depth, group),
             max([settling[-1], *(_normals_layout(
                 n_units, min(slab, n_last - lo), d, chunk)[2]
                 for lo in range(0, n_last, slab))]),
             group * n_held * n_units)
    at = list(accumulate(sizes, initial=0))
    space = np.empty(at[-1])
    state_space, normals_space, held = (
        space[lo:hi] for lo, hi in zip(at, at[1:]))
    state = PathState(tables, n_phys, depth, state_space, group)
    table, work = (normals_space[lo:hi] for lo, hi in zip(settling,
                                                          settling[1:]))
    table = table.reshape(group, n_keys, n_phys)
    work = work.reshape(group, width, n_phys)
    held = held.reshape(group * n_held, n_units)
    root_deltas = np.sqrt(ts.deltas)
    row = filled = 0                    # held[:filled] is rows row, row + 1, ...

    def reduce_held() -> None:
        nonlocal row, filled
        stats.add(slice(row, row + filled), unit_lo, held[:filled])
        row, filled = row + filled, 0

    def hold(values: np.ndarray, dest: np.ndarray | None, at: int) -> None:
        """Hold the pair sums of (nodes, rows, paths) values: rows at.. of
        each node's in dest, or one node's rows in turn, reducing full
        buffers."""
        nonlocal filled
        if dest is not None:
            np.add(values[..., :n_units], values[..., n_units:],
                   out=dest[:, at:at + values.shape[1]])
            return
        values, done = values[0], 0
        while done < len(values):
            n = min(len(values) - done, len(held) - filled)
            part = values[done:done + n]
            np.add(part[:, :n_units], part[:, n_units:],
                   out=held[filled:filled + n])
            done, filled = done + n, filled + n
            if filled == len(held):
                reduce_held()

    def settle(node: int, g: int) -> None:
        """Settle the g nodes of the last step, from `node` on."""
        nonlocal filled
        plan = plans[node]
        if plan.deflators is None:
            return
        dest = None
        if g > 1:
            if filled + g * plan.n_rows > len(held):
                reduce_held()
            dest = held[filled:filled + g * plan.n_rows].reshape(
                g, plan.n_rows, n_units)
        at = node - plan.first
        deflators = state.deflator_rows(plan.deflators, table[:g], work[:g])
        hold(deflators[:, :plan.n_units], dest, 0)
        rows_at = plan.n_units
        for batch in plan.batches:
            values = work[:g, :batch.n_rows]
            for reads, rows in batch.reads:
                state.read(reads, values[:, rows], at)
            for v, option in batch.options:
                _option_values(state, option, values[:, v])
            for v, name, fn in batch.opaque:
                amounts = np.asarray(fn(state), dtype=float)
                if amounts.shape != (n_phys,):
                    raise ConfigurationError(
                        f"payoff {name!r} returned shape {amounts.shape}, "
                        f"expected ({n_phys},)"
                    )
                values[0, v] = amounts
            for rows, keys in batch.deflate:
                values[:, rows] *= deflators[:, keys]
            hold(values, dest, rows_at)
            rows_at += batch.n_rows
        if dest is not None:
            filled += g * plan.n_rows
            if filled == len(held):
                reduce_held()

    settle(0, 1)
    for lo in range(0, n_last, slab):
        hi = min(lo + slab, n_last)
        normals = _block_normals(cfg.seed, unit_lo, unit_hi, hi - lo, d, lo,
                                 normals_space, chunk)
        step = lo
        while step < hi:
            # As many nodes as the held rows take, in the slab and the run.
            plan = plans[step + 1]
            g = min(max(1, min(group, len(held) // max(1, plan.n_rows))),
                    hi - step, plan.end - step - 1)
            dw = state.increments(g)
            np.multiply(root_deltas[step:step + g, None, None],
                        normals[step - lo:step - lo + g],
                        out=dw[..., :n_units])
            np.negative(dw[..., :n_units], out=dw[..., n_units:])
            evolve_step(state, dw.transpose(0, 2, 1))
            settle(step + 1, g)
            step += g
    if filled:
        reduce_held()


def simulate_many(model: Model, cfg: SimulationConfig,
                  payoffs: dict[str, GridPayoff]) -> dict[str, PriceEstimate]:
    """Estimate several payoffs from one shared set of paths.

    All payoffs ride the same scenarios, settling at their own maturity
    nodes while the block evolves to the farthest one.  Payoffs are
    grouped by (node, currency, collateral) once.  Rows are numbered in
    node order; within a node, one row per key that has unit payoffs
    (shared by them, since their values are the deflator itself) comes
    first, in the order of the node's deflator table, then one row per
    other payoff: the bucket reads, each looked up once
    (`ModelTables.look_up`) and stably sorted by kind and W row, then the
    rest.  Each row's statistics depend on its values alone, so the
    order moves no number.  Errors come in a fixed order: an off-grid
    maturity, then `COLMM_WORKERS`, then a key the model does not
    simulate, then a bad read.  The nodes fall in runs of consecutive
    nodes that settle alike (`_settles_as`), and each run's settlement
    plan is built once, here: its deflator table's columns and FX legs,
    and its other rows in batches, each kind of read one product per W
    row, gathered at every node of the run at once.  Blocks reduce
    their pair sums into those rows of one set of chunk statistics,
    merged at the end.  Each tile keeps W at 1 + the deepest lookback
    (node - r) of any planned bucket read, at least 2 nodes, or at all
    N + 1 when a payoff has an opaque fn, which may read any node through
    `PathState.w`.  Every model choice, the drift's
    `half_variance_sign` included, comes from the frozen `model`.
    """
    if not payoffs:
        raise ValueError("no payoffs given")
    grouped: dict[int, dict[tuple[str, str], list]] = {}
    for name, p in payoffs.items():
        node = model.ts.node_index(p.maturity)
        grouped.setdefault(node, {}).setdefault(
            (p.currency, p.collateral), []).append(
                (name, p, p.fn is None and p.description is None))
    n_last = max(grouped)
    n_workers = cfg.resolved_workers()
    # The model's tables are built once and shared read-only; each tile
    # builds its own state in its workspace, since building every block's
    # state here raised the peak RSS.
    tables = ModelTables.of(model)
    # Keys with unit payoffs come first: unit row k is table row k.  Nodes
    # with the same keys share one deflator plan.
    keys_of, by_keys = {}, {}
    for node in sorted(grouped):
        units = [key for key, group in grouped[node].items()
                 if any(unit for _, _, unit in group)]
        keys = units + [key for key in grouped[node] if key not in units]
        keys_of[node] = keys, len(units)
        if tuple(keys) not in by_keys:
            by_keys[tuple(keys)] = tables.deflator_plan(keys)
    # node -> (deflator keys, unit key count, [(key index, name, payoff)],
    # the reads' lookups), and the row of each payoff.  A node's bucket
    # reads, each looked up once, are its first other rows, stably
    # sorted by kind and W row, so that each is one run of rows.  They
    # are looked up after every deflator plan, so that a key the model
    # does not simulate is reported before a bad read.
    by_node, row_of, n_rows = {}, {}, 0
    for node, (keys, n_units) in keys_of.items():
        others = [(k, name, p) for k, key in enumerate(keys)
                  for name, p, unit in grouped[node][key] if not unit]
        reads = [row for row in others
                 if isinstance(row[2].description, BucketRead)]
        looked_up = sorted(zip(tables.look_up(
            [p.description for _, _, p in reads], node), reads),
            key=lambda pair: (pair[0][0].lognormal, pair[0][2]))
        others = [row for _, row in looked_up] + [
            row for row in others
            if not isinstance(row[2].description, BucketRead)]
        by_node[node] = (keys, n_units, others,
                         [read for read, _ in looked_up])
        row_of.update((name, n_rows + k)
                      for k, key in enumerate(keys[:n_units])
                      for name, _, unit in grouped[node][key] if unit)
        row_of.update((name, n_rows + n_units + j)
                      for j, (_, name, _) in enumerate(others))
        n_rows += n_units + len(others)
    # The scratch rows each tile takes per node it settles at once, set by
    # the payoffs alone (see _SETTLE_ROWS): the work rows, as many as a
    # node's other rows or its longest run of FX keys, and the held rows.
    n_keys = max(len(keys) for keys, _ in keys_of.values())
    width = max(max([len(others), *(len(sig) for *_, sig, _ in
                                    by_keys[tuple(keys)].fx)])
                for keys, _, others, _ in by_node.values())
    if width:
        width = max(1, min(width, (_SETTLE_ROWS - 2 * n_keys - 1) // 2))
    n_held = max(1, min(n_rows, _SETTLE_ROWS - 2 * n_keys - 2 * width))
    # Runs of consecutive nodes that settle alike, nodes without payoffs
    # included, each with one plan.
    plans = []
    for _, run in groupby(range(n_last + 1), lambda node: _settles_as(
            node, *by_node[node]) if node in by_node else None):
        run = list(run)
        first, end = run[0], run[-1] + 1
        if first not in by_node:
            plans += [_NodePlan(first, end, None, 0, (), 0)] * len(run)
            continue
        keys, n_units, others, _ = by_node[first]
        plans += [_NodePlan(first, end, by_keys[tuple(keys)], n_units,
                            _batches(run, [by_node[node][2] for node in run],
                                     [by_node[node][3] for node in run],
                                     width),
                            n_units + len(others))] * len(run)
    # A tile keeps W as far back as its reads look, and at every node for
    # an opaque fn, which may read any of them through `PathState.w`.
    if any(p.fn is not None for p in payoffs.values()):
        depth = model.ts.n_buckets + 1
    else:
        depth = max(2, 1 - min((r - node for node, (*_, reads)
                                in by_node.items() for _, _, r in reads),
                               default=0))
    # Path arrays are one tile's, whatever the count; only the statistics
    # grow with it, and they are sized before the first tile.
    stats = _ChunkStatistics(n_rows, cfg.n_paths // 2)
    blocks = _pair_blocks(cfg.n_paths // 2, n_workers)
    args = (tables, cfg, plans, n_held, width, n_last, depth)
    # A lone block runs on the calling thread: on a thread of its own it
    # raised fxopt-mc's peak RSS by 0.7-1.9 MB, and running block 0 here
    # beside the other blocks' threads raised diagnose-wide's by 8 MB.
    # Blocks that run beside others draw normals in chunks twice as large,
    # to halve their numpy calls (see _CHUNK_BLOCKS).
    if len(blocks) == 1:
        _simulate_block(*args, *blocks[0], stats, _CHUNK_BLOCKS)
    else:
        _run_threads(_simulate_block, [(*args, *block, stats,
                                        2 * _CHUNK_BLOCKS)
                                       for block in blocks])

    # The rows hold pair sums; halving their mean and SE is exact.
    means, ses = stats.estimates()
    return {name: PriceEstimate(0.5 * float(means[row_of[name]]),
                                0.5 * float(ses[row_of[name]]), cfg.n_paths,
                                payoffs[name].currency)
            for name in payoffs}
