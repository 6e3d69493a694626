"""Path generation, estimator mechanics, and martingale checks for the engine."""

import numpy as np
import pytest

from colmm import (
    ConfigurationError,
    GridPayoff,
    Model,
    PriceEstimate,
    SimulationConfig,
    TenorStructure,
    VolatilitySpec,
    gaussian_increments,
    simulate,
    simulate_many,
)
from colmm.engine import WORKERS_ENV_VAR, _block_normals, _partition

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
        # The vectorised kernel against fresh numpy Philox streams, bit for
        # bit.  Cases: (seed, path_lo, path_hi, steps, factors).
        cases = [
            (7, 10, 20, 6, 3),
            (5, 0, 3, 1, 1),        # words % 4 == 1
            (5, 0, 3, 1, 2),        # words % 4 == 2
            (5, 0, 3, 1, 3),        # words % 4 == 3
            (5, 2, 6, 0, 3),        # no words at all
            (2 ** 64 - 1, 2 ** 32 - 2, 2 ** 32 + 3, 3, 3),  # key words at their limits
            # 480 words: a long stream; 140 paths cross the first chunk boundary
            (11, 3, 143, 160, 3),
        ]
        for seed, lo, hi, n_steps, n_factors in cases:
            block = _block_normals(seed, lo, hi, n_steps, n_factors)
            assert block.shape == (hi - lo, n_steps, n_factors)
            for row, path in enumerate(range(lo, hi)):
                for step in range(n_steps):
                    expect = gaussian_increments(seed, path, step, n_factors)
                    assert block[row, step].tobytes() == expect.tobytes(), \
                        (seed, path, step, n_factors)

    def test_moments(self):
        z = _block_normals(123, 0, 4000, 16, 4).ravel()  # 256k draws
        n = z.size
        assert abs(z.mean()) < 4.0 / np.sqrt(n)
        assert abs(z.std() - 1.0) < 4.0 / np.sqrt(2.0 * n)
        assert np.all(np.isfinite(z))

    def test_cross_path_independence(self):
        z = _block_normals(9, 0, 50_000, 1, 2)
        a, b = z[:, 0, 0], z[:, 0, 1]
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
        with pytest.raises(ValueError):
            SimulationConfig(n_paths=11)  # odd: no mirror for the last path
        with pytest.raises(ValueError):
            SimulationConfig(seed=-1)
        with pytest.raises(ValueError):
            SimulationConfig(seed=2 ** 64)
        with pytest.raises(ValueError):
            SimulationConfig(workers=0)

    def test_workers_from_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert SimulationConfig().resolved_workers() == 1
        monkeypatch.setenv(WORKERS_ENV_VAR, "6")
        assert SimulationConfig().resolved_workers() == 6
        assert SimulationConfig(workers=2).resolved_workers() == 2
        monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
        with pytest.raises(ConfigurationError):
            SimulationConfig().resolved_workers()
        monkeypatch.setenv(WORKERS_ENV_VAR, "0")
        with pytest.raises(ConfigurationError):
            SimulationConfig().resolved_workers()


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
    return GridPayoff(fn=lambda st: np.ones(st.n_paths), maturity=maturity,
                      currency=ccy, collateral=coll)


class TestSimulate:
    def test_zero_vol_is_deterministic(self, ts8):
        from colmm import CurveSet
        curves = CurveSet(discounts={"USD": flat_curve("USD", 0.02, ts8.nodes)})
        vols = VolatilitySpec(n_factors=1, n_buckets=8)
        model = Model(ts8, curves, vols, "USD")
        cfg = SimulationConfig(n_paths=16)
        est = simulate(model, cfg, unit_zcb(2.0))
        assert est.std_error == 0.0
        assert est.n_paths == 16
        assert est.mean == pytest.approx(
            curves.discount_curve("USD").discount(2.0), rel=1e-14)
        assert est.z_score(curves.discount_curve("USD").discount(2.0)) == 0.0

    def test_zcb_martingale(self, one_ccy_model):
        cfg = SimulationConfig(n_paths=20_000, seed=11)
        target = one_ccy_model.curves.discount_curve("USD").discount(3.0)
        est = simulate(one_ccy_model, cfg, unit_zcb(3.0))
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
        est = simulate(model, cfg, unit_zcb(2.0, ccy="EUR", coll="USD"))
        d = curves.discount_curve("EUR").discount(2.0)
        y = curves.spread_curve("EUR", "USD").value(2.0)
        assert abs(est.z_score(d * y)) < 4.0

    def test_maturity_zero_pays_now(self, one_ccy_model):
        cfg = SimulationConfig(n_paths=4)
        est = simulate(one_ccy_model, cfg, unit_zcb(0.0))
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_off_grid_maturity_rejected(self, one_ccy_model):
        with pytest.raises(ValueError):
            simulate(one_ccy_model, SimulationConfig(n_paths=4), unit_zcb(0.25))

    def test_no_payoffs_rejected(self, one_ccy_model):
        with pytest.raises(ValueError):
            simulate_many(one_ccy_model, SimulationConfig(n_paths=4), {})

    def test_bad_payoff_shape_rejected(self, one_ccy_model):
        bad = GridPayoff(fn=lambda st: np.ones(3), maturity=1.0,
                         currency="USD", collateral="USD")
        with pytest.raises(ConfigurationError):
            simulate(one_ccy_model, SimulationConfig(n_paths=8), bad)

    def test_antithetic_mirrors_shocks(self, one_ccy_model):
        seen = []

        def grab(st):
            seen.append(st.buckets("c", "USD"))
            return np.ones(st.n_paths)

        payoff = GridPayoff(fn=grab, maturity=0.5, currency="USD",
                            collateral="USD")
        simulate(one_ccy_model, SimulationConfig(n_paths=8), payoff)
        c = np.concatenate(seen, axis=0)
        live = c[:, 1:]  # bucket 0 fixed at time zero
        center = live[:4] + live[4:]  # x + (2a - x) for each mirrored pair
        assert np.allclose(center, center[0], rtol=0, atol=1e-16)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_increments_are_one_keyed_normal_per_interval(self, workers):
        # Uneven intervals, so a delta read one interval off shows.
        ts = TenorStructure(np.array([0.0, 0.25, 1.0, 1.5, 3.0]))
        from colmm import CurveSet
        curves = CurveSet(discounts={"USD": flat_curve("USD", 0.02, ts.nodes)})
        vols = VolatilitySpec(n_factors=3, n_buckets=4,
                              collateral={"USD": [0.01, 0.005, 0.002]})
        model = Model(ts, curves, vols, "USD")
        seed, pairs = 17, 5
        seen = []

        def grab(st):
            seen.append(st.w.copy())
            return np.ones(st.n_paths)

        payoff = GridPayoff(fn=grab, maturity=3.0, currency="USD",
                            collateral="USD")
        simulate(model, SimulationConfig(n_paths=2 * pairs, seed=seed,
                                         workers=workers), payoff)
        expect = np.array([[np.sqrt(ts.deltas[k])
                            * gaussian_increments(seed, p, k, 3)
                            for k in range(ts.n_buckets)]
                           for p in range(pairs)])
        # A block of u pairs holds u paths, then their u mirrors; the
        # partition gives blocks of distinct sizes, which identify them.
        blocks = {hi - lo: lo for lo, hi in _partition(pairs, workers)}
        assert len(blocks) == workers == len(seen)
        for w in seen:
            units = w.shape[1] // 2
            lo = blocks.pop(units)
            dw = np.diff(w, axis=0).transpose(1, 0, 2)  # (paths, intervals, d)
            want = expect[lo:lo + units]
            np.testing.assert_allclose(dw[:units], want, rtol=1e-14, atol=1e-16)
            np.testing.assert_allclose(dw[units:], -want, rtol=1e-14, atol=1e-16)

    def test_se_shrinks_like_sqrt_n(self, one_ccy_model):
        pay = unit_zcb(4.0)
        lo = simulate(one_ccy_model, SimulationConfig(n_paths=10_000), pay)
        hi = simulate(one_ccy_model, SimulationConfig(n_paths=40_000), pay)
        assert lo.std_error / hi.std_error == pytest.approx(2.0, rel=0.25)

    def test_worker_count_does_not_change_numbers(self, one_ccy_model):
        pay = unit_zcb(3.5)
        base = simulate(one_ccy_model,
                        SimulationConfig(n_paths=4_000, workers=1), pay)
        for w in (2, 3, 8):
            est = simulate(one_ccy_model,
                           SimulationConfig(n_paths=4_000, workers=w), pay)
            assert est.mean == base.mean
            assert est.std_error == base.std_error

    def test_joint_run_matches_single_runs(self, one_ccy_model, ts4,
                                           two_ccy_curves):
        cfg = SimulationConfig(n_paths=2_000)
        pays = {"short": unit_zcb(1.0), "long": unit_zcb(4.0)}
        joint = simulate_many(one_ccy_model, cfg, pays)
        assert joint["short"].mean == simulate(one_ccy_model, cfg,
                                               pays["short"]).mean
        assert joint["long"].mean == simulate(one_ccy_model, cfg,
                                              pays["long"]).mean
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
            single = simulate(model, cfg, payoff)
            assert joint[name].mean == single.mean, name
            assert joint[name].std_error == single.std_error, name

    def test_base_without_curve_rejected(self, ts8, two_ccy_curves):
        vols = VolatilitySpec(n_factors=1, n_buckets=8)
        with pytest.raises(ConfigurationError):
            Model(ts8, two_ccy_curves, vols, "JPY")

    def test_bucket_mismatch_rejected(self, ts8, two_ccy_curves):
        vols = VolatilitySpec(n_factors=1, n_buckets=5)
        with pytest.raises(ConfigurationError):
            Model(ts8, two_ccy_curves, vols, "USD")
