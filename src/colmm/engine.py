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
worker threads generate in parallel.  Workers never share generator state,
and paths are partitioned in contiguous blocks whose results are merged in
block order, so the estimate is bit-identical for any worker count.

Sampling is always antithetic: with pairs = n_paths / 2 (so the path
count must be even), path p < pairs has a mirror path p + pairs driven by
the negated increments of p's stream.  The estimator averages pair means and
its standard error is the sample stdev of the pair means over sqrt(pairs);
the reported path count stays at the physical 2 * pairs.

With every volatility at zero all paths coincide; the estimator returns the
common value with a standard error of exactly 0.0 rather than trusting
floating-point averaging of identical numbers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .curves import CurveSet
from .dynamics import PathState, VolatilitySpec, evolve_step
from .errors import ConfigurationError
from .tenor import TenorStructure

WORKERS_ENV_VAR = "COLMM_WORKERS"

# Residuals below this relative size count as roundoff when a deterministic
# estimate (SE exactly zero) is scored against its target.
_EXACT_RTOL = 1e-12

_MAX_SEED = 2 ** 64

# Philox4x64-10 (Salmon et al., SC'11): round multipliers and the Weyl
# increments that bump the key between rounds.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# Paths are generated in chunks of about this many 4-word blocks: the round
# buffers then stay in cache and memory does not grow with the path count.
_CHUNK_BLOCKS = 1 << 14


@dataclass
class Model:
    """Immutable simulation inputs: grid, initial curves, vols, base currency.

    The base currency fixes the measure: deflated prices are computed with
    the base currency's (pair) collateral accounts as numeraires.
    """

    ts: TenorStructure
    curves: CurveSet
    vols: VolatilitySpec
    base: str

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


@dataclass
class SimulationConfig:
    n_paths: int = 100_000
    seed: int = 42
    workers: int | None = None

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError(f"need at least 2 paths, got {self.n_paths}")
        if self.n_paths % 2:
            raise ValueError(
                f"antithetic sampling needs an even path count, got {self.n_paths}"
            )
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError(f"seed must fit in a uint64, got {self.seed}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")

    def resolved_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        raw = os.environ.get(WORKERS_ENV_VAR)
        if raw is None:
            return 1
        try:
            n = int(raw)
        except ValueError:
            raise ConfigurationError(f"{WORKERS_ENV_VAR}={raw!r} is not an integer")
        if n < 1:
            raise ConfigurationError(f"{WORKERS_ENV_VAR} must be >= 1, got {n}")
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


@dataclass(frozen=True)
class GridPayoff:
    """Payoff amount fixed at a grid node, in `currency`, margined in `collateral`.

    fn maps the PathState at the maturity node to per-path amounts.  The
    engine converts through spot FX when the payment currency is not the
    model's base, deflates by the base pair account accruing c + y of
    (base, collateral), and reports the estimate in `currency`.
    """

    fn: Callable[[PathState], np.ndarray]
    maturity: float
    currency: str
    collateral: str


def _uniforms(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word, centered in the bin: strictly inside (0, 1).

    Shifts `raw` in place and writes the uniforms to `out`.
    """
    np.right_shift(raw, np.uint64(11), out=raw)
    np.add(raw, 0.5, out=out)
    return np.multiply(out, 2.0 ** -53, out=out)


def gaussian_increments(seed: int, path: int, step: int, n_factors: int) -> np.ndarray:
    """Standard normal increments of one (path, step), as the engine draws them.

    Pure function of its arguments; workers calling it in any order or
    partition reproduce the same numbers.
    """
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must fit in a uint64, got {seed}")
    if path < 0 or step < 0:
        raise ValueError(f"path and step indices must be >= 0, got ({path},{step})")
    if n_factors < 1:
        raise ValueError(f"need at least one factor, got {n_factors}")
    bg = Philox(key=np.array([seed, path], dtype=np.uint64))
    raw = bg.random_raw((step + 1) * n_factors)[step * n_factors:]
    return ndtri(_uniforms(raw, np.empty(n_factors)))


def _mulhi(m: int, x: np.ndarray, out: np.ndarray, t: np.ndarray,
           s: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products m * x into `out`; x is kept.

    Hacker's Delight `mulhu` over the 32-bit halves of m and x; t and s are
    scratch of x's shape.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    np.bitwise_and(x, _LO32, out=out)
    np.multiply(out, m_hi, out=t)
    np.multiply(out, m_lo, out=out)
    np.right_shift(out, _SHIFT32, out=out)
    np.add(t, out, out=t)                   # m_hi*x_lo + (m_lo*x_lo >> 32)
    np.bitwise_and(t, _LO32, out=s)
    np.right_shift(t, _SHIFT32, out=t)
    np.right_shift(x, _SHIFT32, out=out)
    np.multiply(out, m_lo, out=out)
    np.add(s, out, out=s)                   # middle word with its carry
    np.right_shift(s, _SHIFT32, out=s)
    np.right_shift(x, _SHIFT32, out=out)
    np.multiply(out, m_hi, out=out)
    np.add(out, t, out=out)
    return np.add(out, s, out=out)


def _block_normals(seed: int, path_lo: int, path_hi: int,
                   n_steps: int, n_factors: int) -> np.ndarray:
    """Normals for a contiguous path block, shape (paths, steps, factors).

    Row p holds the first steps * factors words of
    numpy.random.Philox(key=[seed, p]), bit for bit.  numpy bumps the
    counter before its first block, so block b of the row is Philox4x64-10
    of counter (b + 1, 0, 0, 0) under key (seed, p).  The rounds run as
    in-place uint64 ufuncs over (rows, blocks) arrays, a chunk of about
    _CHUNK_BLOCKS blocks at a time.
    """
    n_paths = path_hi - path_lo
    words = n_steps * n_factors
    out = np.empty((n_paths, words))
    if words == 0:
        return out.reshape(n_paths, n_steps, n_factors)
    blocks = -(-words // 4)
    rows = max(1, min(n_paths, _CHUNK_BLOCKS // blocks))
    m0, m1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1)
    key0 = [np.uint64((seed + r * _PHILOX_W0) % _MAX_SEED)
            for r in range(_PHILOX_ROUNDS)]
    bump1 = [np.uint64(r * _PHILOX_W1 % _MAX_SEED)
             for r in range(_PHILOX_ROUNDS)]
    # Counter words 1-3 are zero and key word 0 is the seed, so rounds 1
    # and 2 reduce to per-block constants xored with the path's key word.
    counters = range(1, blocks + 1)
    hi_ctr = np.array([_PHILOX_M0 * c >> 64 for c in counters], dtype=np.uint64)
    mix = np.array([(_PHILOX_M0 * seed >> 64) ^ (_PHILOX_M0 * c % _MAX_SEED)
                    for c in counters], dtype=np.uint64)
    lo_seed = np.uint64(_PHILOX_M0 * seed % _MAX_SEED)

    bufs = [np.empty((rows, blocks), dtype=np.uint64) for _ in range(7)]
    key1_buf = np.empty((rows, 1), dtype=np.uint64)
    raw_buf = np.empty((rows, blocks, 4), dtype=np.uint64)
    for lo in range(path_lo, path_hi, rows):
        hi = min(lo + rows, path_hi)
        n = hi - lo
        a, b, c, d, spare, t, s = (buf[:n] for buf in bufs)
        path = np.arange(lo, hi, dtype=np.uint64)[:, None]
        key1 = key1_buf[:n]
        np.add(path, bump1[1], out=key1)
        np.bitwise_xor(hi_ctr, path, out=c)           # round 1: word 2
        _mulhi(_PHILOX_M1, c, a, t, s)                # round 2
        a ^= key0[1]
        np.multiply(c, m1, out=b)
        np.bitwise_xor(mix, key1, out=c)
        d.fill(lo_seed)
        for r in range(2, _PHILOX_ROUNDS):
            np.add(path, bump1[r], out=key1)
            _mulhi(_PHILOX_M1, c, spare, t, s)
            spare ^= b
            spare ^= key0[r]
            np.multiply(c, m1, out=b)
            _mulhi(_PHILOX_M0, a, c, t, s)
            c ^= d
            c ^= key1
            np.multiply(a, m0, out=d)
            a, spare = spare, a
        raw = raw_buf[:n]
        for k, word in enumerate((a, b, c, d)):
            raw[:, :, k] = word
        dest = out[lo - path_lo:hi - path_lo]
        ndtri(_uniforms(raw.reshape(n, 4 * blocks)[:, :words], dest), out=dest)
    return out.reshape(n_paths, n_steps, n_factors)


def _partition(n_units: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous near-equal blocks [lo, hi); drops empty trailing blocks."""
    n_workers = min(n_workers, n_units)
    bounds = np.linspace(0, n_units, n_workers + 1).round().astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _simulate_block(model: Model, cfg: SimulationConfig,
                    payoffs: dict[str, GridPayoff], by_node: dict[int, list[str]],
                    n_last: int, unit_lo: int, unit_hi: int,
                    half_variance_sign: float) -> dict[str, np.ndarray]:
    """Evolve one block of paths; return per-unit estimator values by payoff.

    A unit is a (path, mirror) pair and the returned values are pair
    means, so concatenating block results in unit order is independent of
    the partition.
    """
    ts, vols, base = model.ts, model.vols, model.base
    n_units = unit_hi - unit_lo
    n_phys = 2 * n_units
    normals = _block_normals(cfg.seed, unit_lo, unit_hi, n_last, vols.n_factors)
    state = PathState.initial(ts, model.curves, vols, base, n_phys,
                              half_variance_sign)

    out: dict[str, np.ndarray] = {}

    def settle(name: str) -> None:
        p = payoffs[name]
        amounts = np.asarray(p.fn(state), dtype=float)
        if amounts.shape != (n_phys,):
            raise ConfigurationError(
                f"payoff {name!r} returned shape {amounts.shape}, "
                f"expected ({n_phys},)"
            )
        numeraire = state.pair_account(base, p.collateral)
        deflated = amounts * state.fx_rate(base, p.currency) / numeraire
        if p.currency != base:
            deflated /= model.curves.fx_rate(base, p.currency)
        out[name] = 0.5 * (deflated[:n_units] + deflated[n_units:])

    for name in by_node.get(0, []):
        settle(name)
    for node in range(1, n_last + 1):
        dw = np.sqrt(ts.deltas[node - 1]) * normals[:, node - 1]
        evolve_step(state, np.concatenate([dw, -dw], axis=0))
        for name in by_node.get(node, []):
            settle(name)
    return out


def _estimate(values: np.ndarray, n_paths: int, currency: str) -> PriceEstimate:
    if np.all(values == values[0]):
        return PriceEstimate(float(values[0]), 0.0, n_paths, currency)
    se = float(np.std(values, ddof=1) / np.sqrt(values.size))
    return PriceEstimate(float(np.mean(values)), se, n_paths, currency)


def simulate_many(model: Model, cfg: SimulationConfig,
                  payoffs: dict[str, GridPayoff],
                  half_variance_sign: float = 1.0) -> dict[str, PriceEstimate]:
    """Estimate several payoffs from one shared set of paths.

    All payoffs ride the same scenarios, settling at their own maturity
    nodes while the block evolves to the farthest one.
    """
    if not payoffs:
        raise ValueError("no payoffs given")
    by_node: dict[int, list[str]] = {}
    for name, p in payoffs.items():
        node = model.ts.node_index(p.maturity)
        by_node.setdefault(node, []).append(name)
    n_last = max(by_node)
    n_units = cfg.n_paths // 2
    blocks = _partition(n_units, cfg.resolved_workers())

    def run(block):
        lo, hi = block
        return _simulate_block(model, cfg, payoffs, by_node, n_last, lo, hi,
                               half_variance_sign)

    if len(blocks) == 1:
        results = [run(blocks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            results = list(pool.map(run, blocks))

    merged = {}
    for name, p in payoffs.items():
        values = np.concatenate([r[name] for r in results])
        merged[name] = _estimate(values, cfg.n_paths, p.currency)
    return merged


def simulate(model: Model, cfg: SimulationConfig, payoff: GridPayoff,
             half_variance_sign: float = 1.0) -> PriceEstimate:
    """Estimate E[payoff / numeraire], reported in the payoff's currency."""
    return simulate_many(model, cfg, {"payoff": payoff},
                         half_variance_sign)["payoff"]
