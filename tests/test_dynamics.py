"""Drift formulas, state evolution, freezing, and account compounding."""

import numpy as np
import pytest

from colmm import (
    ConfigurationError,
    CurveSet,
    DiscountCurve,
    EquityForwardCurve,
    PathState,
    SpreadFixings,
    TenorStructure,
    VolatilitySpec,
    evolve_step,
    quanto_adjustment,
    rollover_fx_forward,
)
from colmm.dynamics import (
    collateral_drift_vector,
    equity_drift_vector,
    funding_drift_vector,
    libor_ois_drift_vector,
)

from conftest import flat_curve, flat_spread


class TestVolatilitySpec:
    def test_broadcast_forms(self):
        v = VolatilitySpec(n_factors=2, n_buckets=3,
                           collateral={"X": [0.01, 0.02]})
        assert v.collateral_loadings("X").shape == (3, 2)
        full = np.arange(6.0).reshape(3, 2)
        v2 = VolatilitySpec(n_factors=2, n_buckets=3, collateral={"X": full})
        np.testing.assert_array_equal(v2.collateral_loadings("X"), full)

    def test_scalar_needs_single_factor(self):
        VolatilitySpec(n_factors=1, n_buckets=2, collateral={"X": 0.01})
        with pytest.raises(ValueError):
            VolatilitySpec(n_factors=2, n_buckets=2, collateral={"X": 0.01})

    def test_missing_keys_are_zero(self):
        v = VolatilitySpec(n_factors=2, n_buckets=3)
        assert not v.collateral_loadings("X").any()
        assert not v.funding_loadings("X", "Y").any()
        assert not v.fx_loadings("X", "Y").any()

    def test_reversed_pair_negates(self):
        v = VolatilitySpec(n_factors=2, n_buckets=2,
                           funding={("A", "B"): [0.01, -0.02]},
                           fx={("A", "B"): [0.1, 0.2]})
        np.testing.assert_array_equal(v.funding_loadings("B", "A"),
                                      -v.funding_loadings("A", "B"))
        np.testing.assert_array_equal(v.fx_loadings("B", "A"), [-0.1, -0.2])

    def test_same_currency_pairs_forbidden(self):
        with pytest.raises(ValueError):
            VolatilitySpec(n_factors=1, n_buckets=2, fx={("A", "A"): 0.1})
        with pytest.raises(ValueError):
            VolatilitySpec(n_factors=1, n_buckets=2, funding={("A", "A"): 0.1})
        v = VolatilitySpec(n_factors=1, n_buckets=2)
        assert v.fx_loadings("A", "A").tolist() == [0.0]
        assert v.funding_loadings("A", "A").tolist() == [[0.0], [0.0]]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            VolatilitySpec(n_factors=2, n_buckets=3,
                           collateral={"X": [0.01, 0.02, 0.03]})
        with pytest.raises(ValueError):
            VolatilitySpec(n_factors=1, n_buckets=2, fx={("A", "B"): [[0.1]]})
        with pytest.raises(ValueError):
            VolatilitySpec(n_factors=1, n_buckets=2, collateral={"X": np.nan})


class TestDriftOracles:
    """Hand-evaluated drift values on an 8-bucket semiannual grid.

    Evaluated at t = 0.3, so the sums start at bucket k = q(0.3) = 1.
    """

    @pytest.fixture
    def vols(self):
        return VolatilitySpec(n_factors=1, n_buckets=8,
                              collateral={"X": 0.01},
                              libor_ois={"X": 0.2},
                              funding={("X", "K"): 0.005})

    def test_drift_c_empty_sum(self, ts8, vols):
        # n = q(t): only the convexity term survives
        assert (collateral_drift_vector(vols, ts8, "X")[1, 1]
                == pytest.approx(2.5e-5, rel=1e-12))

    def test_drift_c_one_term(self, ts8, vols):
        assert (collateral_drift_vector(vols, ts8, "X")[1, 2]
                == pytest.approx(7.5e-5, rel=1e-12))

    def test_drift_c_zero_vol(self, ts8):
        v = VolatilitySpec(n_factors=1, n_buckets=8)
        assert collateral_drift_vector(v, ts8, "X")[1, 2] == 0.0

    def test_drift_B_hand_value(self, ts8, vols):
        # period ending at node 2, one collateral bucket in the sum
        assert (libor_ois_drift_vector(vols, ts8, "X")[1, 1]
                == pytest.approx(1e-3, rel=1e-12))

    def test_drift_B_zero_cases(self, ts8, vols):
        no_b = VolatilitySpec(n_factors=1, n_buckets=8, collateral={"X": 0.01})
        assert libor_ois_drift_vector(no_b, ts8, "X")[1, 1] == 0.0
        no_c = VolatilitySpec(n_factors=1, n_buckets=8, libor_ois={"X": 0.2})
        assert libor_ois_drift_vector(no_c, ts8, "X")[1, 4] == 0.0

    def test_drift_y_empty_sum(self, ts8, vols):
        want = 0.5 * 0.5 * 0.005 ** 2 + 0.5 * 0.005 * 0.01  # 3.125e-5
        assert (funding_drift_vector(vols, ts8, "X", "K")[1, 1]
                == pytest.approx(want, rel=1e-12))

    def test_drift_y_zero_vol(self, ts8):
        v = VolatilitySpec(n_factors=1, n_buckets=8, collateral={"X": 0.01})
        assert funding_drift_vector(v, ts8, "X", "K")[1, 3] == 0.0


class TestQuanto:
    def test_zero_fx_vol_is_identity(self, ts8):
        v = VolatilitySpec(n_factors=1, n_buckets=8, collateral={"J": 0.01})
        assert quanto_adjustment(v, "I", "J").tolist() == [0.0]
        assert (collateral_drift_vector(v, ts8, "J", measure_currency="I")[1, 1]
                == collateral_drift_vector(v, ts8, "J")[1, 1])

    def test_hand_value(self, ts8):
        v = VolatilitySpec(n_factors=1, n_buckets=8, collateral={"J": 0.01},
                           fx={("I", "J"): 0.1})
        want = 0.01 * (-0.1) + 0.5 * 0.5 * 1e-4  # -9.75e-4
        got = collateral_drift_vector(v, ts8, "J", measure_currency="I")[1, 1]
        assert got == pytest.approx(want, rel=1e-12)

    def test_same_currency_is_zero(self, ts8):
        v = VolatilitySpec(n_factors=1, n_buckets=8, fx={("I", "J"): 0.1})
        assert quanto_adjustment(v, "I", "I").tolist() == [0.0]

    def test_sign_lowers_foreign_drift(self, ts8):
        # positive FX/rate covariance pushes the foreign drift down
        v = VolatilitySpec(n_factors=1, n_buckets=8, collateral={"J": 0.01},
                           fx={("I", "J"): 0.1})
        dom = collateral_drift_vector(v, ts8, "J")[1, 3]
        frn = collateral_drift_vector(v, ts8, "J", measure_currency="I")[1, 3]
        assert frn < dom


class TestDriftIdentities:
    def test_combined_loading_consistency(self, ts8):
        # drift of c + y must equal the collateral drift formula applied to
        # the combined loading sigma_c + sigma_y
        rng = np.random.default_rng(7)
        sc = rng.normal(0.0, 0.01, (8, 3))
        sy = rng.normal(0.0, 0.004, (8, 3))
        v = VolatilitySpec(n_factors=3, n_buckets=8,
                           collateral={"X": sc}, funding={("X", "K"): sy})
        v_tilde = VolatilitySpec(n_factors=3, n_buckets=8,
                                 collateral={"Z": sc + sy})
        for t in (0.0, 0.3, 1.0, 2.4):
            k = ts8.q_index(t)
            lhs = (collateral_drift_vector(v, ts8, "X")[k]
                   + funding_drift_vector(v, ts8, "X", "K")[k])
            rhs = collateral_drift_vector(v_tilde, ts8, "Z")[k]
            for n in range(k, 8):
                assert lhs[n] == pytest.approx(rhs[n], abs=1e-15)

    def test_telescoping(self, ts8):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            sig = rng.normal(0.0, 0.02, (8, d))
            v = VolatilitySpec(n_factors=d, n_buckets=8, collateral={"X": sig})
            for t in (0.0, 0.5, 1.7, 3.0):
                k = ts8.q_index(t)
                drifts = collateral_drift_vector(v, ts8, "X")[k]
                for n in range(k, 9):
                    lhs = sum(ts8.accrual(m) * drifts[m] for m in range(k, n))
                    w = (ts8.deltas[k:n, None] * sig[k:n]).sum(axis=0)
                    assert abs(lhs - 0.5 * w @ w) < 1e-14

    def test_equity_drift_orthogonal_is_zero(self, ts8):
        # equity loading orthogonal to the collateral loading: no drift
        v = VolatilitySpec(n_factors=2, n_buckets=8,
                           collateral={"X": [0.01, 0.0]},
                           equity={"X": [0.0, 0.2]})
        assert not equity_drift_vector(v, ts8, "X")[0].any()


def _written_out_drifts(sc, sy, sb, ss, shift, deltas, half_variance_sign):
    """The four drift formulas as their docstrings state them, entry by entry.

    Returns {family: {(k, n): value}} over the valid entries only: n >= k
    for c and y, n >= k - 1 for b and s.
    """
    n_b = deltas.size
    out = {"c": {}, "y": {}, "b": {}, "s": {}}
    for k in range(n_b + 1):
        for n in range(n_b):
            if n >= k:
                s_c = sum((deltas[m] * sc[m] for m in range(k, n)),
                          np.zeros(3))
                s_y = sum((deltas[m] * sy[m] for m in range(k, n)),
                          np.zeros(3))
                out["c"][k, n] = (sc[n] @ (s_c - shift) + half_variance_sign
                                  * 0.5 * deltas[n] * (sc[n] @ sc[n]))
                out["y"][k, n] = (sy[n] @ (s_y + s_c - shift) + sc[n] @ s_y
                                  + 0.5 * deltas[n] * (sy[n] @ sy[n])
                                  + deltas[n] * (sy[n] @ sc[n]))
            if n >= k - 1:
                s_incl = sum((deltas[m] * sc[m] for m in range(k, n + 1)),
                             np.zeros(3))
                out["b"][k, n] = sb[n] @ (s_incl - shift)
                out["s"][k, n] = ss[n] @ (s_incl - shift)
    return out


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_drift_tables_match_written_out_formulas(seed):
    # foreign measure (quanto shift) and a flipped convexity sign for c
    rng = np.random.default_rng(seed)
    ts = TenorStructure(np.array([0.0, 0.25, 0.75, 1.0, 1.6, 2.0, 3.0]))
    n = ts.n_buckets
    sc, sy, sb, ss = (rng.normal(0.0, s, (n, 3))
                      for s in (0.01, 0.004, 0.2, 0.2))
    vols = VolatilitySpec(n_factors=3, n_buckets=n, collateral={"J": sc},
                          funding={("J", "K"): sy}, libor_ois={"J": sb},
                          equity={"J": ss}, fx={("I", "J"): rng.normal(0, 0.1, 3)})
    shift = quanto_adjustment(vols, "I", "J")
    assert shift.any()
    tables = {
        "c": collateral_drift_vector(vols, ts, "J", "I", half_variance_sign=-1.0),
        "y": funding_drift_vector(vols, ts, "J", "K", "I"),
        "b": libor_ois_drift_vector(vols, ts, "J", "I"),
        "s": equity_drift_vector(vols, ts, "J", "I"),
    }
    want = _written_out_drifts(sc, sy, sb, ss, shift, ts.deltas, -1.0)
    for family, table in tables.items():
        assert table.shape == (n + 1, n)
        for (k, m), value in want[family].items():
            assert table[k, m] == pytest.approx(value, rel=1e-13), (family, k, m)


def make_state(ts, curves, vols, base="USD", n_paths=3):
    return PathState.initial(ts, curves, vols, base, n_paths)


@pytest.fixture
def eq_curves(ts4):
    nodes = ts4.nodes
    cs = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes)},
        spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
        spot_fx={("USD", "EUR"): 100.0},
        fixings={"USD": SpreadFixings("USD", np.full(4, 0.003))},
        equities={"USD": EquityForwardCurve(
            "USD", nodes[1:], 100.0 * np.exp(0.03 * nodes[1:]))},
    )
    return cs


@pytest.fixture
def full_vols():
    return VolatilitySpec(
        n_factors=3, n_buckets=4,
        collateral={"USD": [0.01, 0.0, 0.0], "EUR": [0.0, 0.008, 0.0]},
        libor_ois={"USD": [0.0, 0.15, 0.1]},
        equity={"USD": [0.05, 0.0, 0.18]},
        funding={("EUR", "USD"): [0.0, 0.002, 0.003]},
        fx={("USD", "EUR"): [0.04, -0.08, 0.02]},
    )


class TestPathState:
    def test_initial_matches_forwards(self, ts4, eq_curves, full_vols):
        from colmm import forward_rates
        st = make_state(ts4, eq_curves, full_vols)
        usd = eq_curves.discount_curve("USD")
        want = forward_rates(usd.log_discount, ts4)
        for m in range(4):
            assert st.buckets("c", "USD")[0, m] == want[m]
        assert st.time == 0.0
        np.testing.assert_array_equal(st.account("USD"), 1.0)
        np.testing.assert_array_equal(st.pair_account("USD", "EUR"), 1.0)
        np.testing.assert_array_equal(st.fx_rate("USD", "EUR"), 100.0)

    def test_reversed_pair_spread_seeded_from_reciprocal(self, ts4, eq_curves,
                                                         full_vols):
        st = make_state(ts4, eq_curves, full_vols)
        np.testing.assert_allclose(st.buckets("y", ("USD", "EUR")),
                                   -st.buckets("y", ("EUR", "USD")),
                                   rtol=0, atol=1e-15)

    def test_zcb_reconstruction(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols)
        usd = eq_curves.discount_curve("USD")
        np.testing.assert_allclose(st.zcb("USD", 2.0), usd.discount(2.0),
                                   rtol=1e-14)
        ytil = usd.discount(1.5) * eq_curves.spread_curve("USD", "EUR").value(1.5)
        np.testing.assert_allclose(st.spread_zcb("USD", "EUR", 1.5), ytil,
                                   rtol=1e-14)

    def test_curve_too_short_rejected(self, ts4, full_vols):
        short = DiscountCurve("USD", np.array([0.0, 1.0]), np.array([1.0, 0.98]))
        cs = CurveSet(discounts={"USD": short})
        v = VolatilitySpec(n_factors=3, n_buckets=4)
        with pytest.raises(ConfigurationError):
            make_state(ts4, cs, v)

    def test_unknown_currency_errors(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols)
        with pytest.raises(ConfigurationError):
            st.zcb("JPY", 1.0)
        with pytest.raises(ConfigurationError):
            st.libor_ois("EUR", 1)   # no fixings and no vols for EUR
        with pytest.raises(ConfigurationError):
            st.equity_forward("EUR", 1.0)


class TestEvolveStep:
    def test_pair_account_accrues_spread(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols, n_paths=1)
        c0 = st.buckets("c", "EUR")[0, 0]
        y0 = st.buckets("y", ("EUR", "USD"))[0, 0]
        evolve_step(st, np.zeros((1, 3)))
        assert st.time == 0.5
        np.testing.assert_allclose(st.pair_account("EUR", "USD"),
                                   np.exp(0.5 * (c0 + y0)), rtol=1e-15)

    def test_freeze_after_fixing(self, ts4, eq_curves, full_vols):
        rng = np.random.default_rng(0)
        st = make_state(ts4, eq_curves, full_vols, n_paths=4)
        evolve_step(st, rng.normal(size=(4, 3)) * np.sqrt(0.5))
        frozen_c = st.buckets("c", "USD")[:, 0].copy()
        frozen_b = st.buckets("b", "USD")[:, 0].copy()
        evolve_step(st, rng.normal(size=(4, 3)) * np.sqrt(0.5))
        np.testing.assert_array_equal(st.buckets("c", "USD")[:, 0], frozen_c)
        np.testing.assert_array_equal(st.buckets("b", "USD")[:, 0], frozen_b)

    def test_deterministic_fx_growth(self, ts4, eq_curves, full_vols):
        # zero vols: spot fx accrues the frozen one-period carry
        v0 = VolatilitySpec(n_factors=1, n_buckets=4)
        st = PathState.initial(ts4, eq_curves, v0, "USD", 1)
        carry = (st.buckets("c", "USD")[0, 0] - st.buckets("c", "EUR")[0, 0]
                 + st.buckets("y", ("USD", "EUR"))[0, 0])
        f0 = st.fx_rate("USD", "EUR")[0]
        evolve_step(st, np.zeros((1, 1)))
        assert st.fx_rate("USD", "EUR")[0] == pytest.approx(
            f0 * np.exp(carry * 0.5), rel=1e-15)

    def test_positivity(self, ts4, eq_curves, full_vols):
        rng = np.random.default_rng(5)
        st = make_state(ts4, eq_curves, full_vols, n_paths=64)
        for _ in range(4):
            evolve_step(st, 3.0 * rng.normal(size=(64, 3)))  # oversized shocks
        assert (st.buckets("b", "USD") > 0).all()
        assert (st.fx_rate("USD", "EUR") > 0).all()
        assert (st.buckets("s", "USD")[:, st.s_mask["USD"]] > 0).all()

    def test_bad_steps_rejected(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols, n_paths=1)
        with pytest.raises(ValueError):
            evolve_step(st, np.zeros((2, 3)))

    def test_step_past_last_node_rejected(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols, n_paths=1)
        for _ in range(4):
            evolve_step(st, np.zeros((1, 3)))
        assert st.time == 2.0
        with pytest.raises(ValueError):
            evolve_step(st, np.zeros((1, 3)))
        assert st.time == 2.0


def _drift_and_loadings(family, key, j, vols, ts, base):
    """Drift vector on interval j and the loadings of one curve."""
    if family == "y":
        return (funding_drift_vector(vols, ts, *key, base)[j],
                vols.funding_loadings(*key))
    drift = {"c": collateral_drift_vector, "b": libor_ois_drift_vector,
             "s": equity_drift_vector}[family]
    sig = {"c": vols.collateral_loadings, "b": vols.libor_ois_loadings,
           "s": vols.equity_loadings}[family](key)
    return drift(vols, ts, key, base)[j], sig


def euler_oracle(st, vols, ts, z, substeps):
    """Per-substep Euler update of full (paths, N) bucket arrays.

    Yields (buckets, fx, log accounts) at every node; z holds the normals,
    shape (paths, N * substeps, d).
    """
    n, base = ts.n_buckets, st.base
    x = {key: st.buckets(*key) for key in st.tables}
    fx = {(base, ccy): np.full(st.n_paths, x0)
          for ccy, (x0, _) in st.fx_legs.items()}
    acc = {key: np.zeros(st.n_paths) for key in st.columns}
    yield x, fx, acc
    for j in range(1, n + 1):
        dt = ts.deltas[j - 1] / substeps
        for sub in range(substeps):
            dw = np.sqrt(dt) * z[:, (j - 1) * substeps + sub]
            for (family, key), arr in x.items():
                g, sig = _drift_and_loadings(family, key, j, vols, ts, base)
                live = np.arange(n) >= (j - 1 if family == "s" else j)
                if family == "s":
                    live &= st.s_mask[key]
                move = g[live] * dt + dw @ sig[live].T
                if family in ("c", "y"):
                    arr[:, live] += move
                else:
                    var = np.einsum("nd,nd->n", sig, sig)[live]
                    arr[:, live] *= np.exp(move - 0.5 * var * dt)
            for (pay, ccy), spot in fx.items():
                sig = vols.fx_loadings(pay, ccy)
                carry = (x["c", pay][:, j - 1] - x["c", ccy][:, j - 1]
                         + x["y", (pay, ccy)][:, j - 1])
                spot *= np.exp((carry - 0.5 * sig @ sig) * dt + dw @ sig)
        for key in acc:
            pay = key[0] if isinstance(key, tuple) else key
            rate = x["c", pay][:, j - 1]
            if isinstance(key, tuple):
                rate = rate + x["y", key][:, j - 1]
            acc[key] += ts.deltas[j - 1] * rate
        yield x, fx, acc


class TestAgainstEulerOracle:
    """Table-read buckets, FX and accounts against the per-substep update."""

    def _model(self, seed):
        rng = np.random.default_rng(seed)
        ts = TenorStructure(np.array([0.0, 0.25, 0.75, 1.0, 1.6, 2.0, 3.0]))
        n, nodes = ts.n_buckets, ts.nodes
        curves = CurveSet(
            discounts={"USD": flat_curve("USD", 0.02, nodes),
                       "EUR": flat_curve("EUR", 0.01, nodes),
                       "GBP": flat_curve("GBP", 0.03, nodes)},
            spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
            spot_fx={("USD", "EUR"): 1.1, ("USD", "GBP"): 1.3},
            fixings={"USD": SpreadFixings("USD", np.full(n, 0.003)),
                     "EUR": SpreadFixings("EUR", np.full(n, 0.002))},
            # pillars from 1.0 to 2.0: buckets 0, 1 and 5 are masked
            equities={"USD": EquityForwardCurve(
                          "USD", nodes[3:6], 100.0 * np.exp(0.03 * nodes[3:6])),
                      "EUR": EquityForwardCurve(
                          "EUR", nodes[1:], 50.0 * np.exp(0.02 * nodes[1:]))},
        )
        vols = VolatilitySpec(
            n_factors=3, n_buckets=n,
            collateral={c: rng.normal(0, 0.01, (n, 3))
                        for c in ("USD", "EUR", "GBP")},
            libor_ois={c: rng.normal(0, 0.2, (n, 3)) for c in ("USD", "EUR")},
            equity={c: rng.normal(0, 0.2, (n, 3)) for c in ("USD", "EUR")},
            funding={("EUR", "USD"): rng.normal(0, 0.003, (n, 3)),
                     ("GBP", "EUR"): rng.normal(0, 0.003, (n, 3))},
            fx={("USD", "EUR"): rng.normal(0, 0.1, 3),
                ("GBP", "USD"): rng.normal(0, 0.1, 3)},
        )
        return ts, curves, vols, rng

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_node_matches(self, seed):
        substeps, n_paths = 3, 16
        ts, curves, vols, rng = self._model(seed)
        st = PathState.initial(ts, curves, vols, "USD", n_paths)
        z = rng.standard_normal((n_paths, ts.n_buckets * substeps, 3))
        oracle = euler_oracle(PathState.initial(ts, curves, vols, "USD",
                                                n_paths),
                              vols, ts, z, substeps)
        for node, (x, fx, acc) in enumerate(oracle):
            if node:
                dt = ts.deltas[node - 1] / substeps
                evolve_step(st, np.sqrt(dt) * z[
                    :, (node - 1) * substeps:node * substeps].sum(axis=1))
            assert st.time == ts.nodes[node]
            for key, want in x.items():
                # normal buckets can cross zero: relative to the curve's scale
                np.testing.assert_allclose(st.buckets(*key), want, rtol=1e-13,
                                           atol=1e-13 * np.abs(want).max())
            for (pay, ccy), want in fx.items():
                np.testing.assert_allclose(st.fx_rate(pay, ccy), want,
                                           rtol=1e-13)
            for key, want in acc.items():
                got = (st.pair_account(*key) if isinstance(key, tuple)
                       else st.account(key))
                np.testing.assert_allclose(got, np.exp(want), rtol=1e-13)

    def test_fx_rate_orientations(self):
        # stored legs are (base, ccy); reversed and cross pairs derive from them
        n_paths = 16
        ts, curves, vols, rng = self._model(1)
        st = PathState.initial(ts, curves, vols, "USD", n_paths)
        for node in range(ts.n_buckets + 1):
            if node:
                evolve_step(st, np.sqrt(ts.deltas[node - 1])
                            * rng.standard_normal((n_paths, 3)))
            stored = {ccy: st.fx_rate("USD", ccy) for ccy in ("EUR", "GBP")}
            for ccy, spot in stored.items():
                np.testing.assert_allclose(st.fx_rate(ccy, "USD"), 1.0 / spot,
                                           rtol=1e-15)
            np.testing.assert_allclose(st.fx_rate("EUR", "GBP"),
                                       stored["GBP"] / stored["EUR"],
                                       rtol=1e-15)
        with pytest.raises(ConfigurationError):
            st.fx_rate("USD", "JPY")
        with pytest.raises(ConfigurationError):
            st.fx_rate("JPY", "EUR")


class TestRollover:
    def _node_state(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols, n_paths=1)
        evolve_step(st, np.zeros((1, 3)))
        return st

    def test_parity_limit(self, ts4, eq_curves):
        # zero basis spread: grid version of covered interest parity
        v0 = VolatilitySpec(n_factors=1, n_buckets=4)
        nodes = ts4.nodes
        cs = CurveSet(discounts={"USD": flat_curve("USD", 0.02, nodes),
                                 "EUR": flat_curve("EUR", 0.01, nodes)},
                      spot_fx={("USD", "EUR"): 100.0})
        st = PathState.initial(ts4, cs, v0, "USD", 1)
        evolve_step(st, np.zeros((1, 1)))
        fwd = rollover_fx_forward(st, ("USD", "EUR"), "EUR")
        spot = st.fx_rate("USD", "EUR")[0]
        c_i = st.buckets("c", "USD")[0, 1]
        c_j = st.buckets("c", "EUR")[0, 1]
        assert fwd[0] == pytest.approx(spot * np.exp(-0.5 * (c_j - c_i)),
                                       rel=1e-14)

    def test_hand_value(self, ts4, eq_curves):
        # zero vols keep the flat-curve rates: c_USD = 2%, c_EUR = 1% and
        # y_EUR/USD = 0.2% in bucket 1
        v0 = VolatilitySpec(n_factors=1, n_buckets=4)
        st = PathState.initial(ts4, eq_curves, v0, "USD", 1)
        evolve_step(st, np.zeros((1, 1)))
        fwd = rollover_fx_forward(st, ("USD", "EUR"), "USD")
        spot = st.fx_rate("USD", "EUR")[0]
        assert fwd[0] == pytest.approx(spot * np.exp(0.004), rel=1e-14)

    def test_same_currency_is_one(self, ts4, eq_curves, full_vols):
        st = self._node_state(ts4, eq_curves, full_vols)
        fwd = rollover_fx_forward(st, ("USD", "USD"), "EUR")
        assert fwd[0] == 1.0
