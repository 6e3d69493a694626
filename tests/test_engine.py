"""Path generation, estimator mechanics, and martingale checks for the engine."""

import dataclasses
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from colmm import (
    ConfigurationError,
    GridPayoff,
    Model,
    ModelTables,
    PathState,
    PriceEstimate,
    SimulationConfig,
    TenorStructure,
    VolatilitySpec,
    gaussian_increments,
    simulate_many,
)
from colmm import engine
from colmm.engine import (_CHUNK_BLOCKS, _CHUNK_PAIRS, _SETTLE_ROWS,
                          _TILE_PAIRS,
                          BucketRead, FxOption,
                          MAX_WORKERS, WORKERS_ENV_VAR, _block_normals,
                          _ChunkStatistics, _ndtri, _pair_blocks, _partition,
                          _run_threads)

from conftest import flat_curve


class TestGaussianIncrements:
    def test_deterministic_and_distinct(self):
        a = gaussian_increments(42, 3, 5, 4)
        b = gaussian_increments(42, 3, 5, 4)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (4,)
        assert not np.array_equal(a, gaussian_increments(42, 4, 5, 4))
        assert not np.array_equal(a, gaussian_increments(42, 3, 6, 4))
        assert not np.array_equal(a, gaussian_increments(43, 3, 5, 4))

    def test_block_matches_pure_function(self):
        # The vectorised kernel against fresh numpy Philox streams mapped by
        # _uniforms and _ndtri, bit for bit, and against the pure function
        # at each path's first and last step.  Cases: (seed, path_lo,
        # path_hi, steps, factors).
        cases = [
            (7, 10, 20, 6, 3),
            (5, 0, 3, 1, 1),        # words % 4 == 1
            (5, 0, 3, 1, 2),        # words % 4 == 2
            (5, 0, 3, 1, 3),        # words % 4 == 3
            (5, 2, 6, 0, 3),        # no words at all
            (2 ** 64 - 1, 2 ** 32 - 2, 2 ** 32 + 3, 3, 3),  # key words at their limits
            # 480 words over 140 paths: a long stream, 120 blocks a path
            (11, 3, 143, 160, 3),
        ]
        for seed, lo, hi, n_steps, n_factors in cases:
            block = _block_normals(seed, lo, hi, n_steps, n_factors)
            assert block.shape == (n_steps, n_factors, hi - lo)
            words = n_steps * n_factors
            for col, path in enumerate(range(lo, hi)):
                bg = Philox(key=np.array([seed, path], dtype=np.uint64))
                expect = _ndtri(_uniforms(bg.random_raw(words)))
                assert block[..., col].tobytes() == expect.tobytes(), \
                    (seed, path)
                for step in ({0, n_steps - 1} if n_steps else ()):
                    one = gaussian_increments(seed, path, step, n_factors)
                    assert block[step, :, col].tobytes() == one.tobytes(), \
                        (seed, path, step, n_factors)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_slabs_are_the_whole_grid_draw(self, d):
        # Every run of steps from a block-aligned start, 0, 4, 8 or 12, to
        # any end, the grid's last step (a partial slab) included, is the
        # matching rows of the 13-step draw, bit for bit.
        whole = _block_normals(19, 5, 30, 13, d)
        for lo in range(0, 13, 4):
            for n in range(1, 14 - lo):
                slab = _block_normals(19, 5, 30, n, d, lo)
                assert slab.tobytes() == whole[lo:lo + n].tobytes(), (lo, n)
        with pytest.raises(ValueError, match="multiple of 4"):
            _block_normals(19, 5, 30, 2, d, 6)

    def test_a_slab_of_many_chunks_is_the_whole_grid_draw(self):
        # 4 steps of 5 factors are 5 blocks a path, so 4,000 paths are
        # more blocks than a chunk of _CHUNK_BLOCKS.  Each 4-step slab,
        # drawn in one pass into a NaN-filled workspace of the size its
        # layout asks for, is the matching rows of the 12-step draw.
        lo, hi = 7, 7 + 4_000
        blocks, size = engine._normals_layout(hi - lo, 4, 5)
        assert blocks * (hi - lo) > _CHUNK_BLOCKS
        whole = _block_normals(3, lo, hi, 12, 5)
        for start in (0, 4, 8):
            slab = _block_normals(3, lo, hi, 4, 5, start,
                                  np.full(size, np.nan))
            assert slab.tobytes() == whole[start:start + 4].tobytes(), start

    def test_block_counters_stay_below_2_64(self):
        # numpy carries a block counter of 2**64 into counter word 1, which
        # the kernel takes as zero, so a draw that reaches it is refused.
        # A step of 8 factors takes 2 blocks and one of 4 factors 1, so the
        # last steps drawn end on counters 2**64 - 2 and 2**64 - 1.
        for args in ((5, 3, 2 ** 63, 8), (5, 3, 2 ** 64 - 4, 8),
                     (5, 3, 2 ** 63 - 1, 8), (5, 3, 2 ** 64 - 1, 4)):
            with pytest.raises(ValueError, match=r"past 2\*\*64 - 1$") as exc:
                gaussian_increments(*args)
            assert "\n" not in str(exc.value)
        for step, d in ((2 ** 63 - 2, 8), (2 ** 64 - 2, 4)):
            first = step - step % 4
            bg = Philox(key=np.array([5, 3], dtype=np.uint64),
                        counter=np.array([first * d // 4, 0, 0, 0],
                                         dtype=np.uint64))
            expect = _ndtri(_uniforms(bg.random_raw((step - first + 1) * d)))
            assert (gaussian_increments(5, 3, step, d).tobytes()
                    == expect[-d:].tobytes()), (step, d)

    def test_one_step_draws_its_group_alone(self, monkeypatch):
        # gaussian_increments draws the 4-step group that holds its step,
        # up to the step, not the path's whole stream.
        drawn, draw = [], engine._block_normals
        monkeypatch.setattr(engine, "_block_normals", lambda *a: drawn.append(
            a[3:]) or draw(*a))
        for step in (0, 3, 4, 1_001):
            z = gaussian_increments(8, 2, step, 3)
            assert z.tobytes() == draw(8, 2, 3, step + 1, 3)[step, :, 0].tobytes()
        assert drawn == [(1, 3, 0), (4, 3, 0), (1, 3, 4), (2, 3, 1_000)]

    def test_moments(self):
        z = _block_normals(123, 0, 4000, 16, 4).ravel()  # 256k draws
        n = z.size
        assert abs(z.mean()) < 4.0 / np.sqrt(n)
        assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2.0 * n)
        assert np.all(np.isfinite(z))

    def test_cross_path_independence(self):
        z = _block_normals(9, 0, 50_000, 1, 2)
        a, b = z[0, 0], z[0, 1]
        n = a.size
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / np.sqrt(n)
        assert abs(np.corrcoef(a[:-1], a[1:])[0, 1]) < 4.0 / np.sqrt(n - 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gaussian_increments(-1, 0, 0, 1)
        with pytest.raises(ValueError):
            gaussian_increments(0, -1, 0, 1)
        with pytest.raises(ValueError):
            gaussian_increments(0, 0, 0, 0)
        # The path is a Philox key word: 2**64 raised OverflowError, a
        # float path, step or factor count a TypeError about a sequence,
        # and True ran as path 1.
        for args, message in (((0, 1.5, 0, 1), "path must be an integer"),
                              ((0, True, 0, 1), "path must be an integer"),
                              ((0, 2 ** 64, 0, 1), "path must fit in a uint64"),
                              ((0, 0, 1.0, 1), "step must be an integer"),
                              ((0, 0, 0, 2.0), "n_factors must be an integer")):
            with pytest.raises(ValueError, match=message):
                gaussian_increments(*args)


EXP_M2 = 0.13533528323661269189    # cephes's branch point e^-2


def _uniforms(raw):
    """The engine's map of raw words to uniforms: top 53 bits, bin centre."""
    return ((raw >> np.uint64(11)) + 0.5) * 2.0 ** -53


def _ulps(a, b):
    """Units in the last place between same-signed float64 arrays."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def _assert_matches_scipy(u):
    """_ndtri(u) against scipy.special.ndtri, a test-only oracle.

    The central branch must be bit for bit.  The tail branch takes two
    logs, log(y) with y = min(u, 1 - u) and log(x) with
    x = sqrt(-2 log(y)); numpy's vectorised log may differ from libm's by
    an ulp, and cephes calls libm.  Where numpy and libm agree on both,
    the tail must be bit for bit too.  Elsewhere one ulp of log moves x by
    up to an ulp of x, which is up to twice the result's ulp (|result| < x)
    before the remaining roundings: 6 ulp is the most seen on 6.3M tail
    draws, and 8 is the bound.
    """
    got, want = _ndtri(u.copy()), ndtri(u)
    central = (u > EXP_M2) & (u <= 1.0 - EXP_M2)
    assert got[central].tobytes() == want[central].tobytes()
    t = u[~central]
    y = np.minimum(t, 1.0 - t)
    libm_y = np.array([math.log(v) for v in y])
    x = np.sqrt(-2.0 * libm_y)
    agree = (np.log(y) == libm_y) & (np.log(x) == [math.log(v) for v in x])
    got, want = got[~central], want[~central]
    assert got[agree].tobytes() == want[agree].tobytes()
    assert np.all(np.sign(got) == np.sign(want))
    assert np.all(_ulps(got, want) <= 8)
    return agree


class TestNdtri:
    def test_matches_scipy_on_a_million_uniforms(self):
        raw = Philox(key=np.array([3, 1], dtype=np.uint64)).random_raw(1 << 20)
        agree = _assert_matches_scipy(_uniforms(raw))
        assert agree.size > 250_000            # about 27 % of draws are tails
        assert agree.mean() > 0.99             # so the exact check bites

    def test_edge_inputs(self):
        below, above = np.nextafter(EXP_M2, 0.0), np.nextafter(EXP_M2, 1.0)
        hi = 1.0 - EXP_M2
        u = np.array([
            2.0 ** -54, 1.0 - 2.0 ** -53, 0.5,     # the extreme uniforms, the centre
            below, EXP_M2, above,                  # both sides of e^-2
            np.nextafter(hi, 0.0), hi, np.nextafter(hi, 1.0),   # and of 1 - e^-2
            1.3e-14, 1.2e-14, 1e-15, 1.0 - 2.0 ** -50,  # either side of x = 8
        ])
        _assert_matches_scipy(u)
        x = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
        assert (x[-4] < 8.0 <= x[-3]) and (x[-2:] >= 8.0).all()
        # Sweeps across x = 8 on both ends: to the smallest uniform the
        # engine draws, and below it, where the x >= 8 fit does all the work.
        sweep = np.geomspace(2.0 ** -54, 1e-12, 2000)
        _assert_matches_scipy(np.concatenate([sweep, 1.0 - sweep[1:]]))
        _assert_matches_scipy(np.geomspace(1e-300, 2.0 ** -54, 2000))
        assert _ndtri(np.array([0.5]))[0] == 0.0
        # Tails only: more tail elements than the default scratch holds.
        _assert_matches_scipy(u[[0, 1, 3, 4, 10, 11, 12]])


    def test_extreme_words_give_finite_normals(self):
        # Words through the engine's map (test_block_matches_pure_function
        # pins _uniforms to it) and _ndtri.  The top 2^11 words round to
        # the uniform 1.0, because 2^53 - 1/2 rounds to 2^53; they take the
        # mirror of the smallest uniform's normal.
        words = np.array([0, 2 ** 11 - 1, 2 ** 64 - 2 ** 11 - 1,
                          2 ** 64 - 2 ** 11, 2 ** 64 - 1], dtype=np.uint64)
        u = _uniforms(words)
        assert u.tolist() == [2.0 ** -54, 2.0 ** -54, 1.0 - 2.0 ** -52,
                              1.0, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = _ndtri(u.copy())
        assert np.all(np.isfinite(z))
        assert z[0] == z[1] < 0.0 < z[2] < z[3] == z[4] == -z[0]
        _assert_matches_scipy(u[:3])


class TestPartition:
    def test_covers_contiguously(self):
        for units, workers in [(10, 3), (7, 7), (5, 8), (100, 1), (1, 4)]:
            blocks = _partition(units, workers)
            assert blocks[0][0] == 0 and blocks[-1][1] == units
            for (a, b), (c, d) in zip(blocks, blocks[1:]):
                assert b == c
            assert all(b > a for a, b in blocks)
            assert len(blocks) <= min(units, workers)


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=1)
        with pytest.raises(ValueError, match="at least 4 paths"):
            SimulationConfig(n_paths=2)  # one pair: its min is its max
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=11)  # odd: no mirror for the last path
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(seed=2 ** 64)

    def test_refuses_non_integers_when_built(self):
        # Not later, in a tile's range or the seed's key arithmetic; a bool
        # would otherwise run silently as seed or count 0 or 1.
        for bad in (dict(n_paths=1000.0), dict(n_paths=True),
                    dict(seed=1.5), dict(seed=True), dict(seed="3")):
            with pytest.raises(ValueError, match="must be an integer"):
                SimulationConfig(**bad)
        with pytest.raises(ValueError, match="must be an integer"):
            gaussian_increments(1.5, 0, 0, 1)

    def test_numpy_integers_are_kept_as_int(self, one_ccy_model):
        cfg = SimulationConfig(n_paths=np.int64(400), seed=np.uint64(3))
        assert type(cfg.n_paths) is int and type(cfg.seed) is int
        pays = {"p": unit_zcb(2.0)}
        want = simulate_many(one_ccy_model,
                             SimulationConfig(n_paths=400, seed=3), pays)
        assert simulate_many(one_ccy_model, cfg, pays) == want
        assert (gaussian_increments(np.uint64(3), 1, 2, 2).tobytes()
                == gaussian_increments(3, 1, 2, 2).tobytes())
        assert (gaussian_increments(3, np.uint64(2 ** 64 - 1), np.int32(5),
                                    np.int64(2)).tobytes()
                == gaussian_increments(3, 2 ** 64 - 1, 5, 2).tobytes())

    def test_workers_from_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert SimulationConfig().resolved_workers() == 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "6")
        assert SimulationConfig().resolved_workers() == 6
        monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
        with pytest.raises(ConfigurationError):
            SimulationConfig().resolved_workers()
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ConfigurationError):
            SimulationConfig().resolved_workers()

    def test_workers_are_capped(self, monkeypatch):
        # Only the check runs: resolved_workers starts no thread.
        monkeypatch.setenv(WORKERS_ENV_VAR, str(MAX_WORKERS))
        assert SimulationConfig().resolved_workers() == MAX_WORKERS
        for raw in (str(MAX_WORKERS + 1), "100000"):
            monkeypatch.setenv(WORKERS_ENV_VAR, raw)
            with pytest.raises(ConfigurationError, match=(
                    rf"COLMM_WORKERS must be in \[1, {MAX_WORKERS}\], "
                    rf"got {raw}")):
                SimulationConfig().resolved_workers()


def _mixed_payoffs(ts4, curves):
    """A two-currency model and 47 payoffs on ts4's grid.

    Nodes 0-4 hold 1, 0, 1, 40 and 4 rows over at most 4 deflator keys:
    node 3's unit payoffs of three keys, one of them twice, share it with
    37 calls, and node 4 puts a key without unit payoffs before the keys
    with them.
    """
    vols = VolatilitySpec(
        n_factors=2, n_buckets=4,
        collateral={"USD": [0.01, 0.0], "EUR": [0.0, 0.008]},
        funding={("EUR", "USD"): [0.001, 0.002]},
        fx={("USD", "EUR"): [0.05, -0.05]},
    )
    model = Model(ts4, curves, vols, "USD")
    spot = curves.fx_rate("USD", "EUR")

    def call(k):
        return lambda st: np.maximum(st.fx_rate("USD", "EUR") - k * spot, 0.0)

    pays = {"now": GridPayoff(None, 0.0, "USD", "USD"),
            "fx 1": GridPayoff(call(1.0), 1.0, "USD", "EUR")}
    keys = [("USD", "USD"), ("EUR", "USD"), ("USD", "EUR"), ("EUR", "EUR")]
    for key in keys[:3]:
        pays[f"unit {key} 1.5"] = GridPayoff(None, 1.5, *key)
    pays["unit again 1.5"] = GridPayoff(None, 1.5, "EUR", "USD")
    for i in range(37):
        pays[f"call {i} 1.5"] = GridPayoff(call(0.8 + 0.01 * i), 1.5,
                                          *keys[i % 4])
    # A key without unit payoffs first: the table puts it after them.
    pays.update({"call usd 2": GridPayoff(call(1.1), 2.0, "USD", "USD"),
                 "unit 2": GridPayoff(None, 2.0, "EUR", "USD"),
                 "unit eur 2": GridPayoff(None, 2.0, "EUR", "EUR"),
                 "call 2": GridPayoff(call(1.0), 2.0, "EUR", "EUR")})
    return model, pays


def _chunk_estimates(values, blocks, rows_at_once=None):
    """(mean, SE) of each row of pair means, reduced block by block.

    Each block adds its columns a few rows at a time, as a simulation's
    blocks do at a node, and the statistics are merged once.
    """
    n_rows, pairs = values.shape
    stats = _ChunkStatistics(n_rows, pairs)
    step = rows_at_once or n_rows
    for lo, hi in blocks:
        for r in range(0, n_rows, step):
            stats.add(slice(r, r + step), lo, values[r:r + step, lo:hi].copy())
    return list(zip(*stats.estimates()))


def _fx_options(ts8):
    """A two-currency model and four FX options, one at each of T = 1-4.

    Each option is its node's one row, as in the fxopt-mc workload.
    """
    from colmm import CurveSet
    from conftest import flat_spread
    nodes = ts8.nodes
    curves = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes)},
        spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
        spot_fx={("USD", "EUR"): 1.08})
    vols = VolatilitySpec(
        n_factors=2, n_buckets=8,
        collateral={"USD": [0.01, 0.0], "EUR": [0.0, 0.008]},
        funding={("EUR", "USD"): [0.001, 0.002]},
        fx={("USD", "EUR"): [0.1, -0.05]})
    model = Model(ts8, curves, vols, "USD")
    pays = {}
    for coll, T, sign in (("USD", 1.0, 1.0), ("EUR", 2.0, -1.0),
                          ("EUR", 3.0, 1.0), ("USD", 4.0, -1.0)):
        k = curves.fx_rate("USD", "EUR")
        pays[f"{coll} {T}"] = GridPayoff(
            lambda st, k=k, sign=sign: np.maximum(
                sign * (st.fx_rate("USD", "EUR") - k), 0.0),
            T, "USD", coll)
    return model, pays


class TestEstimates:
    @pytest.mark.parametrize("pairs", [2, 7, 2_500, 8_193])
    def test_rows_reduce_as_they_would_alone(self, pairs):
        # Rows with constant rows among them.  One chunk gives each row's
        # own np.mean and np.std(ddof=1) / sqrt(n), bit for bit; more
        # chunks agree with a math.fsum two-pass reference.  Row 5 sits at
        # 1e8 times its spread, where the naive sum of squares loses every
        # digit.
        rng = np.random.default_rng(pairs)
        values = (rng.standard_normal((37, pairs))
                  * rng.uniform(1e-3, 1e2, (37, 1)) + rng.uniform(-5, 5, (37, 1)))
        values[5] = 1e8 + rng.standard_normal(pairs)
        values[[3, 20, 36]] = [[1.25], [-0.0], [7.0]]
        got = _chunk_estimates(values, _pair_blocks(pairs, 1), rows_at_once=5)
        for i, (row, (mean, se)) in enumerate(zip(values, got)):
            if np.all(row == row[0]):
                assert (mean, se) == (row[0], 0.0)
            elif pairs <= _CHUNK_PAIRS:
                assert mean == np.mean(row)
                assert se == np.std(row, ddof=1) / np.sqrt(pairs)
            else:
                want = math.fsum(row) / pairs
                m2 = math.fsum((x - want) ** 2 for x in row)
                assert mean == pytest.approx(want, rel=1e-13, abs=0.0), i
                assert se == pytest.approx(math.sqrt(m2 / (pairs - 1) / pairs),
                                           rel=1e-13, abs=0.0), i
        if pairs > 2:
            row = values[5]
            naive = (np.sum(row * row) - pairs * np.mean(row) ** 2) / (pairs - 1)
            assert abs(naive / np.var(row, ddof=1) - 1.0) > 1e-3

    def test_any_chunk_partition_gives_the_same_bits(self, ts4, two_ccy_curves,
                                                     monkeypatch):
        # 17 chunks, the last partial, split into 1-8 blocks at chunk
        # bounds: as by the workers, and at random cuts.
        pairs = 16 * _CHUNK_PAIRS + 3
        rng = np.random.default_rng(4)
        values = rng.standard_normal((6, pairs)) * [[1], [1e-8], [3], [1], [2], [5]]
        values[1] += 1e8
        values[4] = 0.5
        want = _chunk_estimates(values, [(0, pairs)])
        chunks = 17
        splits = [_pair_blocks(pairs, workers) for workers in range(1, 9)]
        for n_blocks in range(1, 9):
            cuts = sorted(rng.choice(np.arange(1, chunks), n_blocks - 1,
                                     replace=False) * _CHUNK_PAIRS)
            bounds = [0, *cuts, pairs]
            splits.append(list(zip(bounds[:-1], bounds[1:])))
        for blocks in splits:
            got = _chunk_estimates(values, blocks[::-1], rows_at_once=4)
            assert got == want, blocks
        assert want[4] == (0.5, 0.0)

        # A simulation's blocks hold pair sums across nodes and reduce them
        # a buffer at a time: every buffer size and worker count gives the
        # same bits.  With at most 4 deflator keys a node, _SETTLE_ROWS
        # 1-8, 11, 16 and 32 hold 1, 3, 8 and 24 rows: node 3's 40 rows
        # fill more than any of them, and its 3 unit rows more than one.
        model, pays = _mixed_payoffs(ts4, two_ccy_curves)
        cfg = SimulationConfig(n_paths=2 * (2 * _CHUNK_PAIRS + 7), seed=9)
        runs = {}
        for rows in (1, 3, 8, 11, 16, 32):
            monkeypatch.setattr(engine, "_SETTLE_ROWS", rows)
            for workers in (1, 2, 3):
                monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
                runs[rows, workers] = simulate_many(model, cfg, pays)
        first = runs[1, 1]
        assert all(est.std_error > 0.0 for name, est in first.items()
                   if name != "now")
        assert first["unit again 1.5"] == first["unit ('EUR', 'USD') 1.5"]
        for name in ("now", "fx 1", "unit again 1.5", "call 36 1.5", "unit 2",
                     "call 2"):
            one = simulate_many(model, cfg, {"p": pays[name]})["p"]
            assert first[name] == one, name
        for (rows, workers), got in runs.items():
            assert got == first, (rows, workers)

    def test_tiles_move_no_number(self, ts4, two_ccy_curves, monkeypatch):
        # 7 chunks and 37 pairs in tiles of 3 chunks: 1 worker runs tiles
        # of 3, 3 and 1.37 chunks, 2 workers 3 + 1 and 3 + 0.37, and 3
        # workers 3, 2 and 2.37.  Every estimate is the one-tile run's.
        model, pays = _mixed_payoffs(ts4, two_ccy_curves)
        pairs = 7 * _CHUNK_PAIRS + 37
        cfg = SimulationConfig(n_paths=2 * pairs, seed=13)
        tiles, init = [], PathState.__init__
        monkeypatch.setattr(PathState, "__init__", lambda self, tables, n, *a:
                            tiles.append(n // 2) or init(self, tables, n, *a))
        for workers in (1, 2, 3):
            monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
            monkeypatch.setattr(engine, "_TILE_PAIRS", _TILE_PAIRS)
            want = simulate_many(model, cfg, pays)
            assert len(tiles) == workers
            monkeypatch.setattr(engine, "_TILE_PAIRS", 3 * _CHUNK_PAIRS)
            tiles.clear()
            assert simulate_many(model, cfg, pays) == want, workers
            assert sum(tiles) == pairs and max(tiles) == 3 * _CHUNK_PAIRS
            assert len(tiles) == {1: 3, 2: 4, 3: 3}[workers]
            tiles.clear()
        assert all(est.std_error > 0.0 for name, est in want.items()
                   if name != "now")

    def test_one_reduction_per_tile_at_any_worker_count(self, ts8,
                                                         monkeypatch):
        # Four single-row nodes fit one buffer, so each tile reduces them
        # in one call, whether its block runs alone or beside another.
        # Holding one full tile's row at a time, four calls a full tile
        # and two a half tile, whose held rows are a full tile's values,
        # gives the same estimates, and each is its option's own run.
        model, pays = _fx_options(ts8)
        cfg = SimulationConfig(n_paths=2 * _TILE_PAIRS, seed=5)
        calls, add = [], _ChunkStatistics.add
        monkeypatch.setattr(_ChunkStatistics, "add", lambda self, *a: (
            calls.append(a) or add(self, *a)))
        runs = {}
        for rows in (_SETTLE_ROWS, 3):       # 3: the table's 2 and 1 held
            monkeypatch.setattr(engine, "_SETTLE_ROWS", rows)
            for workers in (1, 2):
                monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
                calls.clear()
                runs[rows, workers] = simulate_many(model, cfg, pays)
                per_tile = (1 if rows == _SETTLE_ROWS
                            else len(pays) // workers)
                assert len(calls) == per_tile * workers, (rows, workers)
        want = runs[_SETTLE_ROWS, 1]
        assert all(got == want for got in runs.values())
        for name, payoff in pays.items():
            assert want[name].std_error > 0.0
            one = simulate_many(model, cfg, {"p": payoff})["p"]
            assert want[name] == one, name

    def test_extrema_span_every_block(self):
        # Each add takes a row's min and max over its whole slice.  A row
        # constant inside each block but not across blocks, or inside
        # each chunk but not across chunks, stays live; a row equal
        # everywhere, -0.0 among its zeros, is deterministic with SE 0.0.
        pairs = 6 * _CHUNK_PAIRS + 17
        values = np.zeros((5, pairs))
        values[0, 3 * _CHUNK_PAIRS:] = 2.0 ** -40
        values[1] = np.arange(pairs) // _CHUNK_PAIRS
        values[2, 1::3] = -0.0
        values[3] = 0.1     # its chunk sums round: only min == max says 0.1
        values[4] = np.random.default_rng(6).standard_normal(pairs)
        want = _chunk_estimates(values, [(0, pairs)])
        splits = [_pair_blocks(pairs, workers) for workers in (1, 2, 3, 4)]
        splits += [[(0, 3 * _CHUNK_PAIRS), (3 * _CHUNK_PAIRS, pairs)],
                   [(0, _CHUNK_PAIRS), (_CHUNK_PAIRS, 5 * _CHUNK_PAIRS),
                    (5 * _CHUNK_PAIRS, pairs)]]
        for blocks in splits:
            for rows_at_once in (1, 2, 5):
                got = _chunk_estimates(values, blocks, rows_at_once)
                assert got == want, (blocks, rows_at_once)
        for i in (0, 1, 4):
            assert want[i][1] > 0.0, i
        assert want[0][0] == pytest.approx(0.5 * 2.0 ** -40, rel=0.01)
        for i, level in ((2, 0.0), (3, 0.1)):
            mean, se = want[i]
            assert (mean, se) == (level, 0.0) and math.copysign(1.0, se) == 1.0

    def test_signed_zeros_stay_deterministic_in_any_tiling(
            self, ts4, two_ccy_curves, monkeypatch):
        # A payoff of 0.0 on some paths and -0.0 on the rest keeps SE 0.0
        # and mean 0.0 in tiles of two chunks and whole blocks, at 1-3
        # workers; every other row's bits are the one-tile run's.
        model, pays = _mixed_payoffs(ts4, two_ccy_curves)
        pays["signed zero"] = GridPayoff(
            lambda st: np.where(st.fx_rate("USD", "EUR") > 1.08, -0.0, 0.0),
            1.5, "EUR", "USD")
        cfg = SimulationConfig(n_paths=2 * (5 * _CHUNK_PAIRS + 37), seed=21)
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        want = simulate_many(model, cfg, pays)
        for tile in (_TILE_PAIRS, 2 * _CHUNK_PAIRS):
            monkeypatch.setattr(engine, "_TILE_PAIRS", tile)
            for workers in (1, 2, 3):
                monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
                got = simulate_many(model, cfg, pays)
                assert got == want, (tile, workers)
                zero = got["signed zero"]
                assert (zero.mean, zero.std_error) == (0.0, 0.0)
        assert all(est.std_error > 0.0 for name, est in want.items()
                   if name not in ("now", "signed zero"))

    def test_blocks_are_whole_chunks(self):
        for pairs, workers in [(5_000, 2), (2_000, 3), (517, 2), (5, 2),
                               (512, 4), (1, 1)]:
            blocks = _pair_blocks(pairs, workers)
            assert blocks[0][0] == 0 and blocks[-1][1] == pairs
            assert all(lo % _CHUNK_PAIRS == 0 for lo, _ in blocks)
            assert all(b == c for (_, b), (c, _) in zip(blocks, blocks[1:]))
            assert len(blocks) == min(workers, -(-pairs // _CHUNK_PAIRS))
        assert _pair_blocks(5_000, 2) == [(0, 2_500), (2_500, 5_000)]
        assert _pair_blocks(5_050, 2) == [(0, 2_600), (2_600, 5_050)]
        # Chunks are small enough that whole chunks still balance workers.
        for pairs, workers in [(5_000, 3), (5_000, 4), (2_000, 3)]:
            largest = max(hi - lo for lo, hi in _pair_blocks(pairs, workers))
            assert largest <= 1.05 * pairs / workers


class TestThreads:
    def test_first_error_in_block_order_once_every_block_ends(self):
        # Block 2 fails first and block 1 after it; block 1's error is
        # raised, and only once block 0 has finished too.
        failed, ended = threading.Event(), []

        def block(i):
            if i < 2:
                assert failed.wait(10)
            ended.append(i)
            if i:
                if i == 2:
                    failed.set()
                raise ValueError(f"block {i}")

        with pytest.raises(ValueError, match="block 1"):
            _run_threads(block, [(0,), (1,), (2,)])
        assert sorted(ended) == [0, 1, 2] and ended[0] == 2


class TestPriceEstimate:
    def test_z_score_with_sampling_error(self):
        est = PriceEstimate(1.02, 0.01, 1000, "USD")
        assert est.z_score(1.0) == pytest.approx(2.0)
        assert est.z_score(1.04) == pytest.approx(-2.0)

    def test_deterministic_roundoff_scores_zero(self):
        est = PriceEstimate(1.0 + 1e-15, 0.0, 1000, "USD")
        assert est.z_score(1.0) == 0.0

    def test_deterministic_mismatch_scores_infinite(self):
        est = PriceEstimate(1.001, 0.0, 1000, "USD")
        assert est.z_score(1.0) == np.inf
        assert PriceEstimate(0.999, 0.0, 1000, "USD").z_score(1.0) == -np.inf

    def test_negative_se_rejected(self):
        with pytest.raises(ValueError):
            PriceEstimate(1.0, -0.1, 10, "USD")


@pytest.fixture
def one_ccy_model(ts8):
    from colmm import CurveSet
    curves = CurveSet(discounts={"USD": flat_curve("USD", 0.02, ts8.nodes)})
    vols = VolatilitySpec(n_factors=1, n_buckets=8, collateral={"USD": 0.01})
    return Model(ts8, curves, vols, "USD")


def unit_zcb(maturity, ccy="USD", coll="USD"):
    return GridPayoff(amount=lambda st: np.ones(st.n_paths),
                      maturity=maturity, currency=ccy, collateral=coll)


def _assert_peak_memory(model, pays, one, n_keys, n_accounts, depth,
                        workers=1, chunk=_CHUNK_BLOCKS, pairs=_TILE_PAIRS):
    """Bound the traced peak of simulate_many over `pairs` pairs, one full
    tile by default, on each of `workers` blocks, each block held to one
    full tile's workspace, and return the tiles' share of it.

    No array holds a value per payoff and pair, and none a value per node
    and path but the W of a state that keeps every node.  The peak is what
    the same run holds at 4 paths (its tables, its plans and a tile of 2
    pairs), the chunk statistics, five floats per payoff and chunk, and
    one tile's workspace per worker, with room for path-length
    temporaries.  A workspace holds:
    - the state, W at `depth` nodes and n_accounts log accounts, and the
      increments, d rows of paths;
    - one slab of normals of the largest tile, whole chunks of pairs, at
      most _TILE_PAIRS and chunk // d, at least one chunk: the most
      whole 4-step groups whose d Philox blocks per pair fit one chunk
      of `chunk` blocks, at least one, with their round buffers and key
      words, as `engine._normals_layout` lays them out;
    - the settlement rows: _SETTLE_ROWS rows of one value per pair, or
      2 n_keys + 3 when a node's n_keys deflator rows, two each (a path
      and its mirror), leave no room for a work row of paths and a held
      row in them.
    Going from the payoff `one` alone, of the same depth, to all of them
    adds the statistics and, per worker, the other scratch rows and the
    temporaries of the payoffs' own code, a few path vectors.  The tiles'
    share is the peak less the 4-path run's and less what the statistics
    add to it.
    """
    assert SimulationConfig().resolved_workers() == workers
    n_paths = 2 * pairs * workers
    ts, d = model.ts, model.vols.n_factors
    chunks = -(-pairs * workers // _CHUNK_PAIRS)
    statistics = 8 * 5 * len(pays) * chunks
    scratch = 8 * max(_SETTLE_ROWS, 2 * n_keys + 3) * _TILE_PAIRS
    tile = min(pairs, _CHUNK_PAIRS * max(
        1, min(_TILE_PAIRS, chunk // d) // _CHUNK_PAIRS))
    slab = min(ts.n_buckets, 4 * max(1, chunk // (d * tile)))
    normals = 8 * engine._normals_layout(tile, slab, d)[1]
    state = 8 * 2 * _TILE_PAIRS * ((depth + 1) * d + n_accounts)
    assert len(ModelTables.of(model).columns) == n_accounts

    def peak(payoffs, n):
        tracemalloc.start()
        try:
            simulate_many(model, SimulationConfig(n_paths=n, seed=1), payoffs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    many, solo = peak(pays, n_paths), peak({one: pays[one]}, n_paths)
    small = peak(pays, 4)
    assert many < (1.25 * workers * (normals + state + scratch) + statistics
                   + small)
    assert many - solo < statistics + workers * (scratch + 8 * 4 * 2 * pairs)
    return many - small - (statistics - 8 * 5 * len(pays))


class TestSimulate:
    def test_zero_vol_is_deterministic(self, ts8):
        from colmm import CurveSet
        curves = CurveSet(discounts={"USD": flat_curve("USD", 0.02, ts8.nodes)})
        vols = VolatilitySpec(n_factors=1, n_buckets=8)
        model = Model(ts8, curves, vols, "USD")
        cfg = SimulationConfig(n_paths=16)
        est = simulate_many(model, cfg, {"p": unit_zcb(2.0)})["p"]
        assert est.std_error == 0.0
        assert est.n_paths == 16
        assert est.mean == pytest.approx(
            curves.discount_curve("USD").discount(2.0), rel=1e-14)
        assert est.z_score(curves.discount_curve("USD").discount(2.0)) == 0.0

    def test_zcb_martingale(self, one_ccy_model):
        cfg = SimulationConfig(n_paths=20_000, seed=11)
        target = one_ccy_model.curves.discount_curve("USD").discount(3.0)
        est = simulate_many(one_ccy_model, cfg, {"p": unit_zcb(3.0)})["p"]
        assert est.std_error > 0.0
        assert abs(est.z_score(target)) < 4.0

    def test_foreign_collateral_zcb(self, ts8):
        from colmm import CurveSet
        from conftest import flat_spread
        nodes = ts8.nodes
        curves = CurveSet(
            discounts={"USD": flat_curve("USD", 0.02, nodes),
                       "EUR": flat_curve("EUR", 0.01, nodes)},
            spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
            spot_fx={("USD", "EUR"): 100.0},
        )
        vols = VolatilitySpec(
            n_factors=2, n_buckets=8,
            collateral={"USD": [0.01, 0.0], "EUR": [0.0, 0.008]},
            funding={("EUR", "USD"): [0.001, 0.002]},
            fx={("USD", "EUR"): [0.05, -0.05]},
        )
        model = Model(ts8, curves, vols, "USD")
        cfg = SimulationConfig(n_paths=20_000, seed=5)
        est = simulate_many(
            model, cfg, {"p": unit_zcb(2.0, ccy="EUR", coll="USD")})["p"]
        d = curves.discount_curve("EUR").discount(2.0)
        y = curves.spread_curve("EUR", "USD").value(2.0)
        assert abs(est.z_score(d * y)) < 4.0

    def test_maturity_zero_pays_now(self, one_ccy_model):
        cfg = SimulationConfig(n_paths=4)
        est = simulate_many(one_ccy_model, cfg, {"p": unit_zcb(0.0)})["p"]
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_off_grid_maturity_rejected(self, one_ccy_model):
        with pytest.raises(ValueError):
            simulate_many(one_ccy_model, SimulationConfig(n_paths=4),
                          {"p": unit_zcb(0.25)})

    def test_no_payoffs_rejected(self, one_ccy_model):
        with pytest.raises(ValueError):
            simulate_many(one_ccy_model, SimulationConfig(n_paths=4), {})

    def test_bad_payoff_shape_rejected(self, one_ccy_model):
        bad = GridPayoff(amount=lambda st: np.ones(3), maturity=1.0,
                         currency="USD", collateral="USD")
        with pytest.raises(ConfigurationError):
            simulate_many(one_ccy_model, SimulationConfig(n_paths=8),
                          {"p": bad})

    def test_antithetic_mirrors_shocks(self, one_ccy_model):
        seen = []

        def grab(st):
            seen.append(st.buckets("c", "USD"))
            return np.ones(st.n_paths)

        payoff = GridPayoff(amount=grab, maturity=0.5, currency="USD",
                            collateral="USD")
        simulate_many(one_ccy_model, SimulationConfig(n_paths=8),
                      {"p": payoff})
        c = np.concatenate(seen, axis=0)
        live = c[:, 1:]  # bucket 0 fixed at time zero
        center = live[:4] + live[4:]  # x + (2a - x) for each mirrored pair
        assert np.allclose(center, center[0], rtol=0, atol=1e-16)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_increments_are_one_keyed_normal_per_interval(self, workers,
                                                          monkeypatch):
        # Uneven intervals, so a delta read one interval off shows.
        ts = TenorStructure(np.array([0.0, 0.25, 1.0, 1.5, 3.0]))
        from colmm import CurveSet
        curves = CurveSet(discounts={"USD": flat_curve("USD", 0.02, ts.nodes)})
        vols = VolatilitySpec(n_factors=3, n_buckets=4,
                              collateral={"USD": [0.01, 0.005, 0.002]})
        model = Model(ts, curves, vols, "USD")
        # One whole chunk and 5 pairs: two blocks on two workers.
        seed, pairs = 17, _CHUNK_PAIRS + 5
        seen = []

        def grab(st):
            seen.append(st.w.copy())
            return np.ones(st.n_paths)

        payoff = GridPayoff(amount=grab, maturity=3.0, currency="USD",
                            collateral="USD")
        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
        simulate_many(model, SimulationConfig(n_paths=2 * pairs, seed=seed),
                      {"p": payoff})
        expect = np.array([[np.sqrt(ts.deltas[k])
                            * gaussian_increments(seed, p, k, 3)
                            for k in range(ts.n_buckets)]
                           for p in range(pairs)])
        # A block of u pairs holds u paths, then their u mirrors; the
        # partition gives blocks of distinct sizes, which identify them.
        blocks = {hi - lo: lo for lo, hi in _pair_blocks(pairs, workers)}
        assert len(blocks) == workers == len(seen)
        for w in seen:
            units = w.shape[1] // 2
            lo = blocks.pop(units)
            # W(T_k+1) is W(T_k) plus the increment, bit for bit.
            want = expect[lo:lo + units].transpose(1, 0, 2)  # (intervals, paths, d)
            np.testing.assert_array_equal(w[1:, :units], w[:-1, :units] + want)
            np.testing.assert_array_equal(w[1:, units:], w[:-1, units:] - want)

    def test_se_shrinks_like_sqrt_n(self, one_ccy_model):
        pay = unit_zcb(4.0)
        lo = simulate_many(one_ccy_model, SimulationConfig(n_paths=10_000),
                           {"p": pay})["p"]
        hi = simulate_many(one_ccy_model, SimulationConfig(n_paths=40_000),
                           {"p": pay})["p"]
        assert lo.std_error / hi.std_error == pytest.approx(2.0, rel=0.25)

    def test_worker_count_does_not_change_numbers(self, one_ccy_model,
                                                  monkeypatch):
        pay = unit_zcb(3.5)
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        base = simulate_many(one_ccy_model, SimulationConfig(n_paths=4_000),
                             {"p": pay})["p"]
        for w in (2, 3, 8):
            monkeypatch.setenv(WORKERS_ENV_VAR, str(w))
            est = simulate_many(one_ccy_model,
                                SimulationConfig(n_paths=4_000),
                                {"p": pay})["p"]
            assert est.mean == base.mean
            assert est.std_error == base.std_error

    def test_tables_are_built_once_and_shared(self, one_ccy_model, monkeypatch):
        # One ModelTables.of per call, whatever the worker count; every
        # block's state shares that one object and owns its W and accounts.
        made, states = [], []
        of, init = ModelTables.of.__func__, PathState.__init__

        def counted_init(self, *args):
            states.append(self)
            init(self, *args)

        monkeypatch.setattr(ModelTables, "of", classmethod(
            lambda cls, *a: made.append(of(cls, *a)) or made[-1]))
        monkeypatch.setattr(PathState, "__init__", counted_init)
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        simulate_many(one_ccy_model, SimulationConfig(n_paths=4_000),
                      {"p": unit_zcb(3.5)})
        assert len(made) == 1 and len(states) == 3
        # 2,000 pairs are 20 chunks of 100, split 7, 6, 7 among 3 workers.
        assert sorted(st.n_paths for st in states) == [1200, 1400, 1400]
        for st in states:
            assert st.tables is made[0]
            assert st.n_paths == st.log_acc.shape[0] == st.w.shape[1]
        assert not any(np.shares_memory(a.w, b.w) or
                       np.shares_memory(a.log_acc, b.log_acc)
                       for a in states for b in states if a is not b)

    def test_payoffs_cannot_write_the_shared_tables(self, one_ccy_model,
                                                   monkeypatch):
        # A write into the tables every tile and thread reads used to move
        # their numbers silently; now it fails, and the model's own curve
        # and vol arrays stay writeable.
        def overwrite(st):
            st.tables.rate0[0, 0] = 1.0
            return np.ones(st.n_paths)

        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        with pytest.raises(ValueError, match="read-only"):
            simulate_many(one_ccy_model, SimulationConfig(n_paths=400),
                          {"p": GridPayoff(overwrite, 1.0, "USD", "USD")})
        assert one_ccy_model.vols.collateral["USD"].flags.writeable
        curve = one_ccy_model.curves.discounts["USD"]
        assert all(a.flags.writeable for a in vars(curve).values()
                   if isinstance(a, np.ndarray))

    def test_joint_run_matches_single_runs(self, one_ccy_model, ts4,
                                           two_ccy_curves):
        cfg = SimulationConfig(n_paths=2_000)
        pays = {"short": unit_zcb(1.0), "long": unit_zcb(4.0)}
        joint = simulate_many(one_ccy_model, cfg, pays)
        assert joint["short"].mean == simulate_many(
            one_ccy_model, cfg, {"p": pays["short"]})["p"].mean
        assert joint["long"].mean == simulate_many(
            one_ccy_model, cfg, {"p": pays["long"]})["p"].mean
        # Two currencies: payoffs sharing (node, currency, collateral) share
        # one conversion, which a later node of the same key must not reuse.
        vols = VolatilitySpec(
            n_factors=2, n_buckets=4,
            collateral={"USD": [0.01, 0.0], "EUR": [0.0, 0.008]},
            funding={("EUR", "USD"): [0.001, 0.002]},
            fx={("USD", "EUR"): [0.05, -0.05]},
        )
        model = Model(ts4, two_ccy_curves, vols, "USD")
        pays = {
            "eur 1": unit_zcb(1.0, "EUR", "USD"),
            "eur spot 1": GridPayoff(lambda st: st.fx_rate("EUR", "USD"),
                                     1.0, "EUR", "USD"),
            "eur 2": unit_zcb(2.0, "EUR", "USD"),
            "usd 1": unit_zcb(1.0),
            "usd eur-coll 1": unit_zcb(1.0, "USD", "EUR"),
            "eur eur-coll 1.5": unit_zcb(1.5, "EUR", "EUR"),
        }
        joint = simulate_many(model, cfg, pays)
        for name, payoff in pays.items():
            single = simulate_many(model, cfg, {"p": payoff})["p"]
            assert joint[name].mean == single.mean, name
            assert joint[name].std_error == single.std_error, name

    def test_key_estimate_ignores_its_neighbours(self, ts4, two_ccy_curves,
                                                 monkeypatch):
        # One node shared by unit payoffs (amount None) of three keys, an
        # fx_rate payoff on one of those keys and a libor_ois payoff on
        # another: each estimate is bit for bit its payoff's own run.
        from colmm import CurveSet, SpreadFixings
        curves = CurveSet(discounts=two_ccy_curves.discounts,
                          spreads=two_ccy_curves.spreads,
                          spot_fx=two_ccy_curves.spot_fx,
                          fixings={"USD": SpreadFixings("USD", np.full(4, 0.003))})
        vols = VolatilitySpec(
            n_factors=2, n_buckets=4,
            collateral={"USD": [0.01, 0.0], "EUR": [0.0, 0.008]},
            libor_ois={"USD": [0.1, 0.05]},
            funding={("EUR", "USD"): [0.001, 0.002]},
            fx={("USD", "EUR"): [0.05, -0.05]},
        )
        model = Model(ts4, curves, vols, "USD")
        pays = {
            "usd": GridPayoff(None, 1.5, "USD", "USD"),
            "eur usd-coll": GridPayoff(None, 1.5, "EUR", "USD"),
            "usd eur-coll": GridPayoff(None, 1.5, "USD", "EUR"),
            "spot": GridPayoff(lambda st: st.fx_rate("USD", "EUR"),
                               1.5, "USD", "USD"),
            "libor": GridPayoff(lambda st: st.libor_ois("USD", 3),
                                1.5, "USD", "EUR"),
        }
        cfg = SimulationConfig(n_paths=1_002, seed=3)
        for workers in (1, 3):
            monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
            joint = simulate_many(model, cfg, pays)
            for name, payoff in pays.items():
                single = simulate_many(model, cfg, {"p": payoff})["p"]
                assert joint[name].std_error > 0.0, name
                assert joint[name].mean == single.mean, (workers, name)
                assert joint[name].std_error == single.std_error, (workers, name)
                assert joint[name].currency == payoff.currency

    def test_memory_stays_flat_as_paths_grow(self, ts8, monkeypatch):
        # Four FX options on one worker: 40,000 paths run four full tiles
        # where 10,000 run one, and add only the chunk statistics, 40 B per
        # option per 100 pairs.
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        model, pays = _fx_options(ts8)

        def peak(n_paths):
            cfg = SimulationConfig(n_paths=n_paths, seed=1)
            tracemalloc.start()
            try:
                simulate_many(model, cfg, pays)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_tile = peak(2 * _TILE_PAIRS)
        assert peak(8 * _TILE_PAIRS) < 1.2 * one_tile

    def test_memory_is_the_estimator_array_plus_one_block(self, monkeypatch):
        # One full tile of paths on one worker, on a 10-bucket grid; see
        # _assert_peak_memory for the bound.  First 320 payoffs, 5 keys a
        # node: a (payoffs, pairs) array of pair means, 12.8 MB here, is
        # over twice the bound.
        from colmm import CurveSet
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        ts = TenorStructure(np.linspace(0.0, 2.5, 11))
        ccys = ("USD", "EUR", "GBP")
        curves = CurveSet(
            discounts={c: flat_curve(c, r, ts.nodes)
                       for c, r in zip(ccys, (0.02, 0.01, 0.03))},
            spot_fx={("USD", "EUR"): 1.08, ("USD", "GBP"): 1.27})
        vols = VolatilitySpec(
            n_factors=3, n_buckets=10,
            collateral={"USD": [0.01, 0.0, 0.0], "EUR": [0.0, 0.008, 0.0],
                        "GBP": [0.0, 0.0, 0.009]},
            fx={("USD", "EUR"): [0.05, -0.05, 0.0],
                ("USD", "GBP"): [0.0, 0.04, 0.06]})
        model = Model(ts, curves, vols, "USD")
        pays = {}
        for T in ts.nodes[1:]:
            for c in ccys:
                pays[f"{c} {T}"] = GridPayoff(None, T, c, c)
            for c in ccys[1:]:
                pays[f"USD/{c} {T}"] = GridPayoff(None, T, "USD", c)
            for i in range(27):   # calls on EUR and GBP, some far out
                c, k = ccys[1 + i % 2], 0.8 + 0.015 * i
                pays[f"call {c} {k:.3f} {T}"] = GridPayoff(
                    lambda st, c=c, k=k: np.maximum(
                        st.fx_rate("USD", c) - k * curves.fx_rate("USD", c),
                        0.0), T, "USD", "USD")
        assert len(pays) == 320
        # The calls are opaque, so the tile keeps W at all 11 nodes, and
        # so does the call alone.
        _assert_peak_memory(model, pays, "call EUR 0.800 2.5", n_keys=5,
                            n_accounts=5, depth=11)

        # Then 25 (currency, collateral) unit keys a node, from five
        # currencies, read from 9 accounts (5 own, 4 base pairs): the
        # deflator table outgrows _SETTLE_ROWS, and with a work row for
        # the FX keys' sigma_X . W and a held row it takes 2 * 25 + 3.
        # Unit payoffs read W at their node alone: a ring of 2 nodes.
        ccys = ("USD", "EUR", "GBP", "JPY", "CHF")
        curves = CurveSet(
            discounts={c: flat_curve(c, r, ts.nodes) for c, r in
                       zip(ccys, (0.02, 0.01, 0.03, 0.005, 0.015))},
            spot_fx={("USD", c): x for c, x in
                     zip(ccys[1:], (1.08, 1.27, 0.0067, 1.12))})
        vols = VolatilitySpec(
            n_factors=3, n_buckets=10,
            collateral={c: np.roll([0.01 - 0.001 * i, 0.0, 0.0], i)
                        for i, c in enumerate(ccys)},
            fx={("USD", c): np.roll([0.05, -0.04, 0.0], i)
                for i, c in enumerate(ccys[1:])})
        model = Model(ts, curves, vols, "USD")
        pays = {f"{c}/{k} {T}": GridPayoff(None, T, c, k)
                for T in ts.nodes[1:] for c in ccys for k in ccys}
        assert len(pays) == 250
        _assert_peak_memory(model, pays, "USD/USD 2.5", n_keys=25,
                            n_accounts=9, depth=2)

    def test_memory_stays_flat_as_the_grid_grows(self, monkeypatch):
        # Described payoffs at every 4th node of 40 and 160 quarterly
        # buckets, one full tile of paths on one worker; see
        # _assert_peak_memory.  They read W one node back at most, so a
        # tile keeps W at 2 nodes and draws 4 steps of normals at a time:
        # its share of the peak, beyond the tables and statistics, does
        # not grow with the grid.
        # A tile that kept W at every node and drew the whole grid's
        # normals would hold 14.6 MB of them at 40 buckets, 57.8 MB at 160.
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        shares = []
        for n in (40, 160):
            model, pays = _quarterly_described(n)
            shares.append(_assert_peak_memory(model, pays, f"put {n}",
                                              n_keys=4, n_accounts=3, depth=2))
        assert shares[1] < 1.2 * shares[0], shares

    def test_memory_of_concurrent_tiles(self, monkeypatch):
        # The 40-bucket case above on two workers, one full tile each.
        # Blocks that run beside others draw chunks of 2 * _CHUNK_BLOCKS
        # blocks, so each tile takes 8-step slabs of 3 factors where a
        # lone one takes 4, and the bound counts two such workspaces.
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        model, pays = _quarterly_described(40)
        _assert_peak_memory(model, pays, "put 40", n_keys=4, n_accounts=3,
                            depth=2, workers=2, chunk=2 * _CHUNK_BLOCKS)

    def test_memory_of_grouped_half_tiles(self, monkeypatch):
        # The same case on two blocks of half a tile each: each settles
        # two nodes a step, in scratch sized for a full tile's pairs, and
        # holds no more than one full tile's workspace.
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        model, pays = _quarterly_described(40)
        steps, evolve = [], engine.evolve_step
        monkeypatch.setattr(engine, "evolve_step", lambda st, dw: (
            steps.append((st.n_paths, len(dw))) or evolve(st, dw)))
        _assert_peak_memory(model, pays, "put 40", n_keys=4, n_accounts=3,
                            depth=2, workers=2, chunk=2 * _CHUNK_BLOCKS,
                            pairs=_TILE_PAIRS // 2)
        assert {n for paths, n in steps if paths == _TILE_PAIRS} == {1, 2}

    @pytest.mark.parametrize("workers, slabs", [
        ("1", {0: [4, 4, 4, 4, 4]}), ("2", {0: [16, 4], 2_500: [16, 4]})])
    def test_concurrent_tiles_draw_larger_slabs(self, workers, slabs,
                                                monkeypatch):
        # 3 factors, 20 steps, 10,000 paths.  A lone 5,000-pair tile's
        # 4-step group is 15,000 blocks, which one chunk of _CHUNK_BLOCKS
        # holds once; two concurrent 2,500-pair tiles fit 4 groups, 16
        # steps, in one chunk of 2 * _CHUNK_BLOCKS.
        monkeypatch.setenv(WORKERS_ENV_VAR, workers)
        model, pays = _quarterly_described(20)
        drawn, draw = [], engine._block_normals
        monkeypatch.setattr(engine, "_block_normals", lambda *a: drawn.append(
            (a[1], a[3])) or draw(*a))
        simulate_many(model, SimulationConfig(n_paths=10_000, seed=1),
                      {"put 20": pays["put 20"]})
        assert {lo: [n for at, n in drawn if at == lo]
                for lo, _ in drawn} == slabs

    @pytest.mark.parametrize("d, pairs, tiles", [
        (6, 10_000, {1: [2_700] * 3 + [1_900], 2: [5_000] * 2,
                     3: [3_300, 3_300, 3_400]}),
        (200, 250, dict.fromkeys((1, 2, 3), [100, 100, 50]))])
    def test_each_slab_is_one_pass_over_its_whole_tile(self, d, pairs, tiles,
                                                       monkeypatch):
        # A tile is at most chunk // d pairs, in whole chunks of pairs, at
        # least one: 6 factors give a lone block 2,700-pair tiles and two
        # concurrent blocks 5,000, and 200 factors a one-chunk tile.  Each
        # slab is one draw over its whole tile, of at most a chunk of
        # Philox blocks but for a one-chunk tile, and the estimates are
        # the same at any worker count.
        from colmm import CurveSet
        ts = TenorStructure(np.linspace(0.0, 3.0, 7))
        curves = CurveSet(discounts={"USD": flat_curve("USD", 0.02,
                                                       ts.nodes)})
        vols = VolatilitySpec(n_factors=d, n_buckets=6, collateral={
            "USD": 0.02 * np.cos(np.arange(d))})
        model = Model(ts, curves, vols, "USD")
        # A bond to T_1 is deterministic: its account accrues the rate
        # fixed at T_0.
        pays = {f"zcb {T}": unit_zcb(T) for T in ts.nodes[2:]}
        cfg = SimulationConfig(n_paths=2 * pairs, seed=4)
        drawn, draw = [], engine._block_normals
        monkeypatch.setattr(engine, "_block_normals", lambda *a: drawn.append(
            a[1:5]) or draw(*a))
        tiled, tile = [], engine._simulate_tile
        monkeypatch.setattr(engine, "_simulate_tile", lambda *a: tiled.append(
            a[7:9] + a[10:]) or tile(*a))
        runs = {}
        for workers in (1, 2, 3):
            monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
            drawn.clear()
            tiled.clear()
            runs[workers] = simulate_many(model, cfg, pays)
            assert sorted(hi - lo for lo, hi, _ in tiled) == sorted(
                tiles[workers]), workers
            chunk_of = {(lo, hi): chunk for lo, hi, chunk in tiled}
            assert {(lo, hi) for lo, hi, _, _ in drawn} == set(chunk_of)
            for lo, hi, n_steps, n_factors in drawn:
                blocks = -(-n_steps * n_factors // 4)
                assert (hi - lo) * blocks <= chunk_of[lo, hi] or (
                    hi - lo <= _CHUNK_PAIRS), (workers, lo, hi, n_steps)
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert all(est.std_error > 0.0 for est in runs[1].values())

    def test_base_without_curve_rejected(self, ts8, two_ccy_curves):
        vols = VolatilitySpec(n_factors=1, n_buckets=8)
        with pytest.raises(ConfigurationError):
            Model(ts8, two_ccy_curves, vols, "JPY")

    def test_bucket_mismatch_rejected(self, ts8, two_ccy_curves):
        vols = VolatilitySpec(n_factors=1, n_buckets=5)
        with pytest.raises(ConfigurationError):
            Model(ts8, two_ccy_curves, vols, "USD")

    def test_fx_pair_off_the_base_rejected(self, ts4):
        # Under base USD the legs X(USD, EUR) and X(USD, GBP) read no
        # loading of EUR/GBP, so it would be dropped, not priced; under
        # base EUR the chain EUR -> GBP carries it.
        from colmm import CurveSet
        curves = CurveSet(
            discounts={c: flat_curve(c, r, ts4.nodes) for c, r in
                       (("USD", 0.02), ("EUR", 0.01), ("GBP", 0.03))},
            spot_fx={("USD", "EUR"): 1.1, ("USD", "GBP"): 1.3})
        vols = VolatilitySpec(n_factors=1, n_buckets=4,
                              fx={("EUR", "GBP"): 0.2})
        with pytest.raises(ConfigurationError, match=(
                "vol config fx: no chain of fx pairs links currency 'EUR' "
                "to the base 'USD'")):
            Model(ts4, curves, vols, "USD")
        Model(ts4, curves, vols, "EUR")

    def test_funding_pair_off_the_base_rejected(self, ts4):
        # The simulated spread accounts are the base pairs (base, c): under
        # base USD no account reads a loading of EUR/GBP, so Monte Carlo
        # would drop what Black reads; under base EUR (EUR, GBP) carries it.
        from colmm import CurveSet
        curves = CurveSet(
            discounts={c: flat_curve(c, r, ts4.nodes) for c, r in
                       (("USD", 0.02), ("EUR", 0.01), ("GBP", 0.03))},
            spot_fx={("USD", "EUR"): 1.1, ("USD", "GBP"): 1.3})
        vols = VolatilitySpec(n_factors=1, n_buckets=4,
                              funding={("EUR", "GBP"): 0.002})
        with pytest.raises(ConfigurationError, match=(
                "vol config funding: pair EUR/GBP does not hold the base "
                "'USD'")):
            Model(ts4, curves, vols, "USD")
        Model(ts4, curves, vols, "EUR")

    def test_a_built_model_is_frozen(self, ts8, two_ccy_curves):
        # ModelTables.of relies on the checks made when it was built.
        model = Model(ts8, two_ccy_curves, VolatilitySpec(1, 8), "USD")
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.base = "EUR"

    def test_a_built_config_is_frozen(self):
        # A path count set after the check would run unchecked, and the
        # report would state a count the estimate did not use.
        cfg = SimulationConfig(n_paths=1000, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.n_paths = 1001
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 2

    def test_the_drift_sign_moves_only_collateral_rates(self, ts4):
        # The negative control is a Model field: flipping it changes the
        # collateral-rate drifts, so the tables of c and the account rates
        # built on them, and nothing else.
        from colmm import (CurveSet, EquityForwardCurve, SpreadCurve,
                           SpreadFixings)
        nodes = ts4.nodes
        curves = CurveSet(
            discounts={"USD": flat_curve("USD", 0.02, nodes),
                       "EUR": flat_curve("EUR", 0.01, nodes)},
            spreads={("EUR", "USD"): SpreadCurve(
                "EUR", "USD", nodes, np.exp(-0.002 * nodes))},
            spot_fx={("USD", "EUR"): 100.0},
            fixings={"USD": SpreadFixings("USD", np.full(4, 0.003))},
            equities={"USD": EquityForwardCurve(
                "USD", nodes[1:], 100.0 * np.exp(0.03 * nodes[1:]))})
        vols = VolatilitySpec(
            n_factors=3, n_buckets=4,
            collateral={"USD": [0.01, 0.0, 0.0], "EUR": [0.0, 0.008, 0.0]},
            libor_ois={"USD": [0.0, 0.15, 0.1]},
            equity={"USD": [0.05, 0.0, 0.18]},
            funding={("EUR", "USD"): [0.0, 0.002, 0.003]},
            fx={("USD", "EUR"): [0.04, -0.08, 0.02]})
        model = Model(ts4, curves, vols, "USD")
        assert model.half_variance_sign == 1.0
        right = ModelTables.of(model)
        wrong = ModelTables.of(
            dataclasses.replace(model, half_variance_sign=-1.0))

        def same(a, b):
            return np.asarray(a).tobytes() == np.asarray(b).tobytes()

        assert right.curves.keys() == wrong.curves.keys()
        assert {fam for fam, _ in right.curves} == {"c", "y", "b", "s"}
        for key, tab in right.curves.items():
            other = wrong.curves[key]
            assert same(tab.x0, other.x0) and same(tab.sig, other.sig), key
            # A at every (r, m) read: r <= m + lag.
            r, m = np.triu_indices(len(tab.x0) + 1, -tab.lag, len(tab.x0))
            assert same(tab.drift(r, m),
                        other.drift(r, m)) == (key[0] != "c"), key
        assert not same(right.rate0, wrong.rate0)
        assert same(right.rate_sig, wrong.rate_sig)
        assert right.fx_legs.keys() == wrong.fx_legs.keys()
        for ccy, (x0, sig, *_) in right.fx_legs.items():
            assert same(wrong.fx_legs[ccy][0], x0)
            assert same(wrong.fx_legs[ccy][1], sig)


def _described_model(ts):
    """Two currencies, LIBOR-OIS and equity curves, three factors."""
    from colmm import CurveSet, EquityForwardCurve, SpreadFixings
    from conftest import flat_spread
    nodes, n = ts.nodes, ts.n_buckets
    curves = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes)},
        spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
        spot_fx={("USD", "EUR"): 1.08},
        fixings={"USD": SpreadFixings("USD", np.full(n, 0.003)),
                 "EUR": SpreadFixings("EUR", np.full(n, 0.002))},
        equities={"USD": EquityForwardCurve(
            "USD", nodes[1:], 100.0 * np.exp(0.03 * nodes[1:]))})
    vols = VolatilitySpec(
        n_factors=3, n_buckets=n,
        collateral={"USD": [0.01, 0.0, 0.0], "EUR": [0.0, 0.008, 0.0]},
        libor_ois={"USD": [0.0, 0.15, 0.1], "EUR": [0.1, 0.0, 0.05]},
        equity={"USD": [0.05, 0.0, 0.18]},
        funding={("EUR", "USD"): [0.0, 0.002, 0.003]},
        fx={("USD", "EUR"): [0.04, -0.08, 0.02]})
    return Model(ts, curves, vols, "USD")


def _quarterly_described(n):
    """`_described_model` on n quarterly buckets, with unit payoffs of two
    keys, a LIBOR-OIS and an equity read and an FX put at every 4th node."""
    ts = TenorStructure(np.linspace(0.0, 0.25 * n, n + 1))
    model = _described_model(ts)
    spot = model.curves.fx_rate("USD", "EUR")
    pays = {}
    for k in range(4, n + 1, 4):
        T = ts.nodes[k]
        pays[f"usd {k}"] = GridPayoff(None, T, "USD", "USD")
        pays[f"usd/eur {k}"] = GridPayoff(None, T, "USD", "EUR")
        pays[f"libor {k}"] = GridPayoff(BucketRead("b", "EUR", k - 1), T,
                                        "EUR", "EUR")
        pays[f"equity {k}"] = GridPayoff(BucketRead("s", "USD", k - 1), T,
                                         "USD", "USD")
        pays[f"put {k}"] = GridPayoff(FxOption("USD", "EUR", spot, False),
                                      T, "EUR", "USD")
    return model, pays


def _read_fn(family, key, m):
    return lambda st: st.buckets(family, key, m, m + 1)[:, 0].copy()


class TestDescribedPayoffs:
    """A description settles from the tables, grouped with its node's
    rows, and gives its opaque twin's estimate bit for bit."""

    def _pays(self, ts4):
        # At T = 1.5 (node 3): reads of every family, fixed (r < 3) and
        # live, normal and lognormal, on four keys, interleaved with an FX
        # option, an opaque payoff and unit payoffs.
        spot = 1.08
        reads = [("b", "USD", 2), ("s", "USD", 2), ("c", "USD", 0),
                 ("b", "EUR", 2), ("b", "USD", 1), ("y", ("USD", "EUR"), 3),
                 ("c", "EUR", 3), ("s", "USD", 1), ("b", "EUR", 0)]
        keys = [("USD", "USD"), ("EUR", "EUR"), ("USD", "EUR"), ("EUR", "USD")]
        described, opaque = {}, {}
        for i, read in enumerate(reads):
            key = keys[i % 4]
            described[f"read {i}"] = GridPayoff(BucketRead(*read), 1.5, *key)
            opaque[f"read {i}"] = GridPayoff(_read_fn(*read), 1.5, *key)
            if i == 4:
                option = FxOption("USD", "EUR", 1.01 * spot, False)
                described["put"] = GridPayoff(option, 1.5, "EUR", "USD")
                opaque["put"] = GridPayoff(
                    lambda st: np.maximum(
                        -1.0 * (st.fx_rate("USD", "EUR") - 1.01 * spot), 0.0),
                    1.5, "EUR", "USD")
        for pays in (described, opaque):
            pays["unit"] = GridPayoff(None, 1.5, "EUR", "EUR")
            pays["spot"] = GridPayoff(lambda st: st.fx_rate("EUR", "USD"),
                                      1.5, "USD", "EUR")
            pays["later"] = GridPayoff(
                BucketRead("s", "USD", 3) if pays is described
                else _read_fn("s", "USD", 3), 2.0, "USD", "EUR")
        return described, opaque

    def test_descriptions_are_their_opaque_twins(self, ts4, monkeypatch):
        # Node 3 has 4 keys and 11 other rows: a budget of 11, 13 or 15
        # rows settles them 1, 2 or 3 at a time, and its 2 FX keys' moves
        # 1, 2 and 2 at a time.  Every budget, worker count and pairing
        # gives the opaque payoffs' estimates bit for bit.
        model = _described_model(ts4)
        described, opaque = self._pays(ts4)
        cfg = SimulationConfig(n_paths=2 * (2 * _CHUNK_PAIRS + 7), seed=21)
        want = simulate_many(model, cfg, opaque)
        assert all(est.std_error > 0.0 for est in want.values())
        for rows in (_SETTLE_ROWS, 15, 13, 11):
            monkeypatch.setattr(engine, "_SETTLE_ROWS", rows)
            for workers in (1, 2, 3):
                monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
                assert simulate_many(model, cfg, described) == want, rows
        for name in ("read 2", "put", "later"):
            assert simulate_many(model, cfg, {"p": described[name]})["p"] \
                == want[name]

    def test_tiles_keep_w_as_far_back_as_their_reads(self, ts4,
                                                     monkeypatch):
        # A tile keeps W at 1 + its reads' deepest lookback nodes, at least
        # 2, and at all 5 when a payoff is opaque (`spot`).  At node 3
        # `read 4` reads W(T_1), `read 2` W(T_0).  Each estimate is the
        # one of the run that keeps every node, bit for bit.
        model = _described_model(ts4)
        described, _ = self._pays(ts4)
        cfg = SimulationConfig(n_paths=2 * _CHUNK_PAIRS + 6, seed=5)
        depths, init = [], PathState.__init__
        monkeypatch.setattr(PathState, "__init__", lambda self, tables, n,
                            depth, *a: depths.append(depth)
                            or init(self, tables, n, depth, *a))
        want = simulate_many(model, cfg, described)
        assert depths == [5]
        for names, depth in ((["unit"], 2), (["put", "later"], 2),
                             (["read 4", "put"], 3), (["read 2", "read 4"], 4),
                             (["read 4", "spot"], 5)):
            depths.clear()
            got = simulate_many(model, cfg, {n: described[n] for n in names})
            assert depths == [depth], names
            assert all(got[n] == want[n] for n in names), names

    def test_grouped_steps_move_no_number(self, monkeypatch):
        # 20 quarterly nodes, settled in steps of up to G nodes: unit keys
        # at every node and at T_0, a LIBOR-OIS and an equity read, with
        # loadings of their own per bucket, at nodes 5-14, the same FX put
        # at nodes 1, 3, 5 and 7 and an opaque
        # amount at node 10.  So nodes 8-9, 11-14 and 15-20 settle alike and
        # every other node alone.  Tiles of 300, 500, 700 and 5,000 pairs
        # give G = 1, 2, 3 and 24 on 1 worker's 207-pair block, and more
        # on the 7-pair block of 2-4 workers; small chunks end slabs
        # inside the runs, and 15 settlement rows hold too few rows for
        # some steps.  Every estimate is the default run's, bit for bit.
        ts = TenorStructure(np.linspace(0.0, 5.0, 21))
        model = _described_model(ts)
        scale = np.linspace(0.5, 1.5, 20)[:, None]
        model = Model(ts, model.curves, dataclasses.replace(
            model.vols, libor_ois={"EUR": scale * [0.1, 0.0, 0.05]},
            equity={"USD": scale[::-1] * [0.05, 0.0, 0.18]}), "USD")
        spot = model.curves.fx_rate("USD", "EUR")
        put = FxOption("USD", "EUR", spot, False)
        seen = []
        pays = {"now": GridPayoff(None, 0.0, "USD", "USD")}
        for k in range(1, 21):
            T = ts.nodes[k]
            pays[f"usd {k}"] = GridPayoff(None, T, "USD", "USD")
            pays[f"eur/usd {k}"] = GridPayoff(None, T, "EUR", "USD")
            if 5 <= k <= 14:
                pays[f"libor {k}"] = GridPayoff(
                    BucketRead("b", "EUR", k - 1), T, "USD", "USD")
                pays[f"equity {k}"] = GridPayoff(
                    BucketRead("s", "USD", k - 1), T, "EUR", "USD")
            if k in (1, 3, 5, 7):
                pays[f"put {k}"] = GridPayoff(put, T, "EUR", "USD")
        pays["spot 10"] = GridPayoff(
            lambda st: seen.append((st.node, st.nodes)) or st.fx_rate(
                "EUR", "USD"), ts.nodes[10], "USD", "EUR")
        cfg = SimulationConfig(n_paths=2 * (2 * _CHUNK_PAIRS + 7), seed=3)
        monkeypatch.setenv(WORKERS_ENV_VAR, "1")
        want = simulate_many(model, cfg, pays)
        # The USD account accrues the rate fixed at T_0 up to T_1.
        assert [name for name, est in want.items()
                if est.std_error == 0.0] == ["now", "usd 1"]
        steps, evolve = [], engine.evolve_step
        monkeypatch.setattr(engine, "evolve_step", lambda st, dw: (
            steps.append((st.node, len(dw))) or evolve(st, dw)))
        monkeypatch.setattr(engine, "_TILE_PAIRS", 5_000)
        assert simulate_many(model, cfg, pays) == want
        assert steps == [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1),
                         (6, 1), (7, 2), (9, 1), (10, 4), (14, 6)]
        runs, sizes = 0, set()
        for rows in (_SETTLE_ROWS, 15):
            monkeypatch.setattr(engine, "_SETTLE_ROWS", rows)
            for chunk in (_CHUNK_BLOCKS, 1_000):
                monkeypatch.setattr(engine, "_CHUNK_BLOCKS", chunk)
                for tile in (300, 500, 700, 5_000):
                    monkeypatch.setattr(engine, "_TILE_PAIRS", tile)
                    for workers in (1, 2, 3, 4):
                        monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
                        steps.clear()
                        got = simulate_many(model, cfg, pays)
                        assert got == want, (rows, chunk, tile, workers)
                        runs += max(n for _, n in steps) > 1
                        sizes.update(n for _, n in steps)
        assert runs > 40 and sizes == {1, 2, 3, 4, 5, 6}
        assert set(seen) == {(10, range(10, 11))}
        # An opaque amount at T_0, before a node without payoffs, settles alone.
        got = simulate_many(model, cfg, {
            "one": GridPayoff(lambda st: np.ones(st.n_paths), 0.0, "USD",
                              "USD"),
            "usd 2": pays["usd 2"]})
        assert got == {"one": PriceEstimate(1.0, 0.0, cfg.n_paths, "USD"),
                       "usd 2": want["usd 2"]}

    def test_fx_option_payoff_is_the_closure_it_replaced(self, ts8):
        from colmm import FxOptionSpec
        from colmm.pricers import fx_option_payoff
        model, pays = _fx_options(ts8)
        cfg = SimulationConfig(n_paths=2 * _CHUNK_PAIRS + 6, seed=4)
        spot = model.curves.fx_rate("USD", "EUR")
        for (coll, T, is_call), name in zip(
                (("USD", 1.0, True), ("EUR", 2.0, False), ("EUR", 3.0, True),
                 ("USD", 4.0, False)), pays):
            payoff = fx_option_payoff(
                FxOptionSpec("USD", "EUR", coll, T, spot, is_call))
            assert payoff.amount == FxOption("USD", "EUR", spot, is_call)
            assert (simulate_many(model, cfg, {"p": payoff})
                    == simulate_many(model, cfg, {"p": pays[name]}))

    def test_an_amount_is_checked_when_built(self):
        for amount in (("c", "USD", 0), 1.0, "USD"):
            with pytest.raises(TypeError, match="an amount is None, a "
                               "BucketRead, an FxOption or a callable"):
                GridPayoff(amount, 1.0, "USD", "USD")
        # An FxOption is checked as FxOptionSpec and the instrument parser
        # check theirs: a string is_call used to price the call, a NaN
        # strike to give NaN and a negative one a price.
        for option, error, message in (
                (FxOption("USD", "EUR", 1.1, "put"), TypeError,
                 "is_call must be a bool, got 'put'"),
                (FxOption("USD", "EUR", np.nan), ValueError,
                 "strike must be a finite number >= 0, got nan"),
                (FxOption("USD", "EUR", np.inf), ValueError, "got inf"),
                (FxOption("USD", "EUR", -1.0), ValueError, "got -1.0"),
                (FxOption("USD", "EUR", "1.1"), ValueError, "got '1.1'")):
            with pytest.raises(error, match=message):
                GridPayoff(option, 1.0, "USD", "USD")
        for option in (FxOption("USD", "EUR", 0, np.bool_(False)),
                       FxOption("USD", "EUR", np.float64(1.1))):
            assert GridPayoff(option, 1.0, "USD", "USD").amount is option

    def test_unreadable_description_is_refused_before_any_path(
            self, ts4, monkeypatch):
        # Equity pillars at T_1..T_3 leave bucket 3 (T_4 = 2.0) uncovered.
        from colmm import EquityForwardCurve
        model = _described_model(ts4)
        model = Model(ts4, dataclasses.replace(model.curves, equities={
            "USD": EquityForwardCurve("USD", ts4.nodes[1:4],
                                      np.array([100.0, 101.0, 102.0]))}),
            model.vols, "USD")
        cfg = SimulationConfig(n_paths=8)
        monkeypatch.setattr(engine, "_block_normals", None)    # never reached
        for read, error, message in (
                (("s", "EUR", 1), ConfigurationError,
                 "no equity forwards simulated for 'EUR'"),
                (("b", "USD", 4), ValueError, r"bucket 4 is not within \[0, 4\)"),
                (("b", "USD", -1), ValueError, "bucket -1"),
                (("x", "USD", 0), ConfigurationError,
                 "unknown bucket family 'x': expected one of 'c', 'y', 'b', "
                 "'s'"),
                (("y", "USD", 0), ConfigurationError,
                 r"must be a \(currency, collateral\) pair, got 'USD'"),
                (("c", "USD", 1.0), ValueError,
                 "bucket must be an integer, got 1.0"),
                (("s", "USD", 3), ConfigurationError,
                 r"equity curve USD has no pillar coverage at T=2\.0")):
            payoff = GridPayoff(BucketRead(*read), 1.0, "USD", "USD")
            with pytest.raises(error, match=message):
                simulate_many(model, cfg, {"p": payoff})

    def _interleaved(self, ts4):
        # At T = 1.5 (node 3), on key (USD, USD) in this order: a
        # LIBOR-OIS read fixed at T_2 (W row 2, one node back), the equity
        # forward maturing at T_3 (W row 3), an FX put, a normal collateral
        # read (W row 3), a second LIBOR-OIS read and a live equity read;
        # another LIBOR-OIS read on key (EUR, USD), and a unit key.
        spot = _described_model(ts4).curves.fx_rate("USD", "EUR")
        described = [("b", "USD", 2), ("s", "USD", 2),
                     FxOption("USD", "EUR", spot, False), ("c", "USD", 3),
                     ("b", "EUR", 2), ("s", "USD", 3)]
        pays = {f"row {i}": GridPayoff(
            each if isinstance(each, FxOption) else BucketRead(*each),
            1.5, "USD", "USD")
            for i, each in enumerate(described)}
        pays["eur"] = GridPayoff(BucketRead("b", "EUR", 2), 1.5, "EUR", "USD")
        pays["unit"] = GridPayoff(None, 1.5, "EUR", "EUR")
        return pays

    def test_a_node_reads_each_kind_and_w_row_in_one_product(
            self, ts4, monkeypatch):
        # Reads interleaved with an FX put, on two keys, are settled with
        # one product per (kind, W row), and every estimate is the
        # payoff's alone and that of the payoffs in any order, bit for bit.
        model = _described_model(ts4)
        pays = self._interleaved(ts4)
        cfg = SimulationConfig(n_paths=2 * (2 * _CHUNK_PAIRS + 7), seed=8)
        plans, block = [], engine._simulate_block
        monkeypatch.setattr(engine, "_simulate_block", lambda tables, cfg,
                            p, *a: plans.append(p) or block(tables, cfg, p,
                                                            *a))
        alone = {name: simulate_many(model, cfg, {name: p})[name]
                 for name, p in pays.items()}
        names = list(pays)
        for workers in (1, 2):
            monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
            for order in (names, names[::-1], [*names[3:], *names[:3]]):
                plans.clear()
                assert simulate_many(
                    model, cfg, {name: pays[name] for name in order}) \
                    == alone, (workers, order)
                plan = plans[0][3]
                products = [(reads.lognormal, shift)
                            for batch in plan.batches
                            for reads, _ in batch.reads
                            for shift, _, _ in reads.products]
                assert sorted(products) == [(False, 0), (True, -1),
                                            (True, 0)], order
                assert [len(batch.options) for batch in plan.batches] == [1]

    def test_each_read_is_looked_up_once(self, ts4, monkeypatch):
        # Planning resolves each described read once, whatever the
        # worker count and however many nodes settle alike.
        described = _described_model(ts4)
        calls, tables = [], ModelTables._tables
        monkeypatch.setattr(ModelTables, "_tables", lambda self, *key: (
            calls.append(key) or tables(self, *key)))
        for model, pays in ((described, self._interleaved(ts4)),
                            (described, self._pays(ts4)[0]),
                            _quarterly_described(12)):
            n_reads = sum(isinstance(p.amount, BucketRead)
                          for p in pays.values())
            for workers in (1, 2):
                monkeypatch.setenv(WORKERS_ENV_VAR, str(workers))
                calls.clear()
                simulate_many(model, SimulationConfig(n_paths=2_000), pays)
                assert len(calls) == n_reads > 0

    def test_errors_come_in_a_fixed_order(self, ts4, monkeypatch):
        # An off-grid maturity, then COLMM_WORKERS, then a key the model
        # does not simulate, then a bad read, whatever their nodes.
        model = _described_model(ts4)
        cfg = SimulationConfig(n_paths=8)
        monkeypatch.setattr(engine, "_block_normals", None)    # never reached
        pays = {"read": GridPayoff(BucketRead("b", "USD", 4), 0.5, "USD",
                                   "USD"),
                "key": GridPayoff(None, 1.0, "GBP", "USD"),
                "off": GridPayoff(None, 1.25, "USD", "USD")}
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ValueError, match="time 1.25 is not a tenor node"):
            simulate_many(model, cfg, pays)
        del pays["off"]
        with pytest.raises(ConfigurationError,
                           match=rf"{WORKERS_ENV_VAR} must be in \[1, "):
            simulate_many(model, cfg, pays)
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        with pytest.raises(ConfigurationError,
                           match="no simulated FX linking USD and GBP"):
            simulate_many(model, cfg, pays)
        del pays["key"]
        with pytest.raises(ValueError, match=r"bucket 4 is not within"):
            simulate_many(model, cfg, pays)
