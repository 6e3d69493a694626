"""Drift formulas, state evolution, freezing, and account compounding."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from colmm import (
    ConfigurationError,
    CurveSet,
    DiscountCurve,
    EquityForwardCurve,
    Model,
    ModelTables,
    PathState,
    SpreadFixings,
    TenorStructure,
    VolatilitySpec,
    build_curve_set,
    build_volatility,
    evolve_step,
    parse_market_csv,
)
from colmm.dynamics import (
    collateral_drift_vector,
    equity_drift_vector,
    funding_drift_vector,
    index_runs,
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
        # Every miss shares one read-only (N, d) zero matrix.
        zero = v.collateral_loadings("X")
        assert zero.shape == (3, 2)
        for miss in (v.collateral_loadings("Y"), v.libor_ois_loadings("X"),
                     v.equity_loadings("X"), v.funding_loadings("X", "Y")):
            assert miss is zero
        with pytest.raises(ValueError):
            zero[0, 0] = 1.0

    def test_kept_loadings_are_read_only_and_fresh(self):
        # fx_loadings and account_loadings keep each key's array: a caller
        # cannot write into it, and it holds what a fresh spec computes.
        def spec():
            return VolatilitySpec(
                n_factors=2, n_buckets=3, collateral={"EUR": [0.01, 0.02]},
                funding={("EUR", "USD"): [0.003, -0.001]},
                fx={("USD", "EUR"): [0.1, 0.2], ("EUR", "GBP"): [0.05, -0.4]})

        v = spec()
        for lookup in (v.fx_loadings, v.account_loadings):
            for key in [("USD", "EUR"), ("EUR", "USD"), ("USD", "GBP"),
                        ("GBP", "USD"), ("EUR", "EUR"), ("USD", "JPY")]:
                kept = lookup(*key)
                assert lookup(*key) is kept
                fresh = getattr(spec(), lookup.__name__)(*key)
                assert kept.tobytes() == fresh.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    kept[0] = 1.0

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

    def test_fx_loadings_chain_through_stored_pairs(self):
        # log X(EUR,GBP) = log X(EUR,USD) + log X(USD,GBP), as spot FX
        # triangulates; with no chain of stored pairs the loading is zero.
        v = VolatilitySpec(n_factors=2, n_buckets=2,
                           fx={("USD", "EUR"): [0.06, -0.03],
                               ("USD", "GBP"): [0.02, 0.07]})
        np.testing.assert_array_equal(
            v.fx_loadings("EUR", "GBP"),
            v.fx_loadings("USD", "GBP") - v.fx_loadings("USD", "EUR"))
        np.testing.assert_array_equal(v.fx_loadings("GBP", "EUR"),
                                      -v.fx_loadings("EUR", "GBP"))
        assert not v.fx_loadings("EUR", "JPY").any()

    def test_fx_loadings_chain_forward_steps(self):
        # A/C is reached through B, both steps in their stored orientation.
        v = VolatilitySpec(n_factors=2, n_buckets=2,
                           fx={("A", "B"): [0.06, -0.03],
                               ("B", "C"): [0.02, 0.07]})
        np.testing.assert_array_equal(
            v.fx_loadings("A", "C"),
            v.fx_loadings("A", "B") + v.fx_loadings("B", "C"))

    @pytest.mark.parametrize("cross", [0.05, 0.2], ids=["cycle", "sum"])
    def test_fx_cycle_rejected(self, cross):
        # Closing the triangle would give log X(USD, GBP) two loadings, even
        # when the direct one equals the sum along the chain.
        with pytest.raises(ValueError, match=re.escape(
                "fx: pair USD/GBP closes a cycle")):
            VolatilitySpec(n_factors=1, n_buckets=2,
                           fx={("USD", "EUR"): 0.1, ("EUR", "GBP"): 0.1,
                               ("USD", "GBP"): cross})

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
        assert v.fx_loadings("I", "J").tolist() == [0.0]
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
        assert v.fx_loadings("I", "I").tolist() == [0.0]

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
                    lhs = sum(float(ts8.deltas[m]) * drifts[m]
                              for m in range(k, n))
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
    shift = vols.fx_loadings("I", "J")
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


def _acceptance_model(tmp_path):
    """The acceptance dataset's market and vols (tests/test_acceptance.py)."""
    from test_acceptance import MARKET
    (tmp_path / "market.csv").write_text(MARKET)
    md = parse_market_csv(str(tmp_path / "market.csv"))
    vols = build_volatility({
        "n_factors": 3,
        "collateral": {"USD": [0.009, 0.0, 0.0], "EUR": [0.002, 0.008, 0.0]},
        "libor_ois": {"USD": [0.0, 0.1, 0.15]},
        "equity": {"USD": [0.05, 0.0, 0.18]},
        "funding": {"EUR/USD": [0.0, 0.002, 0.002]},
        "fx": {"USD/EUR": [0.04, -0.08, 0.02]},
    }, md.ts.n_buckets)
    return Model(md.ts, build_curve_set(md), vols, md.base)


def _wide_model(n=640, seed=3, vols=True):
    """Three currencies on a quarterly grid of n buckets, loadings that
    vary per bucket, LIBOR-OIS for two and an equity curve that covers only
    the second quarter of the grid; no vols at all if not `vols`."""
    rng = np.random.default_rng(seed)
    ts = TenorStructure(0.25 * np.arange(n + 1))
    nodes, ccys, others = ts.nodes, ("USD", "EUR", "GBP"), ("EUR", "GBP")
    pillars = nodes[n // 4:n // 2]
    curves = CurveSet(
        discounts={c: flat_curve(c, r, nodes)
                   for c, r in zip(ccys, (0.02, 0.01, 0.03))},
        spreads={(c, "USD"): flat_spread(c, "USD", 0.001, nodes)
                 for c in others},
        spot_fx={("USD", "EUR"): 1.08, ("USD", "GBP"): 1.27},
        fixings={c: SpreadFixings(c, np.full(n, 0.002)) for c in ccys[:2]},
        equities={"USD": EquityForwardCurve(
            "USD", pillars, 100.0 * np.exp(0.03 * pillars))})

    def per_bucket(scale):
        # A level per curve, as the benchmark's markets have, moved per
        # bucket: drifts then build up along the grid.
        return rng.uniform(-scale, scale, 3) + rng.normal(0.0, scale / 4,
                                                          (n, 3))

    loadings = dict(
        collateral={c: per_bucket(0.008) for c in ccys},
        libor_ois={c: per_bucket(0.12) for c in ccys[:2]},
        equity={"USD": per_bucket(0.15)},
        funding={(c, "USD"): per_bucket(0.002) for c in others},
        fx={("USD", c): rng.uniform(-0.07, 0.07, 3) for c in others})
    return Model(ts, curves, VolatilitySpec(
        n_factors=3, n_buckets=n, **(loadings if vols else {})), "USD")


def _cumsum_tables(model, tables) -> dict:
    """Each table's A[r, m] built as np.cumsum over r of delta_{r-1} times
    row r of its drift function, less 1/2 |sig_m|^2 on lognormal curves,
    (N + 1, N), and the account rates at W = 0 built on their diagonals."""
    ts, vols, base = model.ts, model.vols, model.base
    rows = {
        "c": lambda ccy: collateral_drift_vector(
            vols, ts, ccy, base, model.half_variance_sign),
        "y": lambda pair: funding_drift_vector(vols, ts, *pair, base),
        "b": lambda ccy: libor_ois_drift_vector(vols, ts, ccy, base),
        "s": lambda ccy: (equity_drift_vector(vols, ts, ccy, base)
                          * tables.s_mask[ccy]),
    }
    out = {}
    for (family, key), tab in tables.curves.items():
        per_interval = rows[family](key)[1:]
        if tab.lognormal:
            per_interval = per_interval - 0.5 * np.einsum(
                "nd,nd->n", tab.sig, tab.sig)
        table = np.zeros((ts.n_buckets + 1, ts.n_buckets))
        np.cumsum(ts.deltas[:, None] * per_interval, axis=0, out=table[1:])
        out[family, key] = table
    rate0 = np.zeros_like(tables.rate0)
    for (ccy, coll), col in tables.columns.items():
        for part in (("c", ccy), ("y", (ccy, coll))):
            if part in out:
                rate0[:, col] += (tables.curves[part].x0
                                  + np.diagonal(out[part]))
    return out, rate0


def _read_grid(tab):
    """Every (r, m) a bucket read reaches: r <= m + lag."""
    n = len(tab.x0)
    return np.triu_indices(n + 1, -tab.lag, n)


# The largest |A - cumsum| over each table's largest |A| was 4.4e-16 on the
# acceptance dataset and 1.9e-15 to 2.8e-15 on the 640-bucket market over
# seeds 1-5 (9.2e-15 with loadings constant per curve).
@pytest.mark.parametrize("make, rel", [
    (_acceptance_model, 1e-14), (lambda tmp_path: _wide_model(), 1e-13)],
    ids=["acceptance", "wide-640"])
def test_compact_tables_equal_the_cumsum_of_the_drift_rows(tmp_path, make,
                                                           rel):
    model = make(tmp_path)
    tables = ModelTables.of(model)
    want, rate0 = _cumsum_tables(model, tables)
    assert {fam for fam, _ in tables.curves} == {"c", "y", "b", "s"}
    scales = []
    for key, tab in tables.curves.items():
        r, m = _read_grid(tab)
        scales.append(np.abs(want[key][r, m]).max())
        assert scales[-1] > 0.0, key
        np.testing.assert_allclose(tab.drift(r, m), want[key][r, m],
                                   rtol=0.0, atol=rel * scales[-1],
                                   err_msg=key)
    # rate0 adds the diagonals A[k, k] to the rates at T_0.
    np.testing.assert_allclose(tables.rate0, rate0, rtol=0.0,
                               atol=rel * max(scales))


def test_compact_tables_give_exact_zeros():
    # No vols at all: every drift, so every A, is exactly 0.
    tables = ModelTables.of(_wide_model(40, vols=False))
    for key, tab in tables.curves.items():
        assert not tab.drift(*_read_grid(tab)).any(), key
    # A zero funding loading beside a non-zero collateral one: the
    # funding spread's drift is exactly 0, with no roundoff left over.
    ts = TenorStructure(0.25 * np.arange(41))
    vols = VolatilitySpec(n_factors=3, n_buckets=40, collateral={
        "X": np.random.default_rng(5).normal(0.0, 0.01, (40, 3))},
        fx={("USD", "X"): [0.05, -0.02, 0.01]})
    assert not funding_drift_vector(vols, ts, "X", "K", "USD").any()
    model = _wide_model(40)
    vols = dataclasses.replace(model.vols, funding={})
    tables = ModelTables.of(dataclasses.replace(model, vols=vols))
    for pair in (("USD", "EUR"), ("USD", "GBP")):
        tab = tables.curves["y", pair]
        assert not tab.drift(*_read_grid(tab)).any(), pair


def test_the_tables_grow_as_n_times_d():
    # O(N d) numbers per curve: an (N + 1) x N table per curve would keep
    # 26 MB at 640 buckets and peak at 43 MB while it was built.
    model = _wide_model()
    tracemalloc.start()
    try:
        tables = ModelTables.of(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = [tables.rate0, tables.rate_sig, *tables.s_mask.values(),
            *(a for tab in tables.curves.values() for a in vars(tab).values()
              if isinstance(a, np.ndarray))]
    assert sum(a.nbytes for a in kept) < 1e6
    assert peak < 2e6


def make_state(ts, curves, vols, base="USD", n_paths=3):
    return PathState(ModelTables.of(Model(ts, curves, vols, base)), n_paths)


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


# (buckets arguments, error, message) of reads no table answers
_BAD_READS = [
    (("x", "USD"), ConfigurationError,
     "unknown bucket family 'x': expected one of 'c', 'y', 'b', 's'"),
    (("y", "USD"), ConfigurationError,
     re.escape("must be a (currency, collateral) pair, got 'USD'")),
    (("c", "USD", 1.0, 2), ValueError, "bucket must be an integer, got 1.0"),
]


class TestPathState:
    def test_initial_matches_forwards(self, ts4, eq_curves, full_vols):
        from colmm import forward_rates
        st = make_state(ts4, eq_curves, full_vols)
        usd = eq_curves.discount_curve("USD")
        want = forward_rates(usd.log_discount, ts4)
        for m in range(4):
            assert st.buckets("c", "USD")[0, m] == want[m]
        assert st.time == 0.0
        for key in (("USD", "USD"), ("USD", "EUR")):
            np.testing.assert_array_equal(
                np.exp(st.log_acc[:, st.tables.columns[key]]), 1.0)
        np.testing.assert_array_equal(st.fx_rate("USD", "EUR"), 100.0)

    def test_reversed_pair_spread_seeded_from_reciprocal(self, ts4, eq_curves,
                                                         full_vols):
        # y(USD, EUR) at node 0 is minus the stored (EUR, USD) curve's
        # forward rates; only the base pair (USD, EUR) is simulated.
        from colmm import forward_rates
        st = make_state(ts4, eq_curves, full_vols)
        stored = forward_rates(eq_curves.spread_curve("EUR", "USD").log_value,
                               ts4)
        for row in st.buckets("y", ("USD", "EUR")):
            np.testing.assert_allclose(row, -stored, rtol=0, atol=1e-15)

    def test_buckets_refuse_ranges_outside_the_grid(self, ts4, eq_curves,
                                                    full_vols):
        # At node 2, lo = -1 read bucket 3's tables against W(T_4), a row
        # the state has not reached, and hi = 5 raised a bare IndexError.
        st = make_state(ts4, eq_curves, full_vols)
        for _ in range(2):
            evolve_step(st, np.full((3, 3), 0.1))
        for lo, hi in ((-1, 0), (0, 5), (3, 2), (5, 5)):
            with pytest.raises(ValueError, match="not within"):
                st.buckets("c", "USD", lo, hi)
        assert st.buckets("c", "USD", 4, 4).shape == (3, 0)
        np.testing.assert_array_equal(st.buckets("c", "USD", 0, 4),
                                      st.buckets("c", "USD"))

    def test_curve_too_short_rejected(self, ts4, full_vols):
        short = DiscountCurve("USD", np.array([0.0, 1.0]), np.array([1.0, 0.98]))
        cs = CurveSet(discounts={"USD": short})
        v = VolatilitySpec(n_factors=3, n_buckets=4)
        with pytest.raises(ConfigurationError):
            make_state(ts4, cs, v)

    def test_unknown_currency_errors(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols)
        with pytest.raises(ConfigurationError):
            st.buckets("c", "JPY")
        with pytest.raises(ConfigurationError):
            st.libor_ois("EUR", 1)   # no fixings and no vols for EUR
        with pytest.raises(ConfigurationError):
            st.equity_forward("EUR", 1.0)
        # An unknown family, a funding key that is no pair and a float
        # bucket raised a bare KeyError, a message about pair (U,S) and a
        # TypeError from range.
        for args, error, message in _BAD_READS:
            with pytest.raises(error, match=message):
                st.buckets(*args)

    def test_a_state_needs_a_path(self, ts4, eq_curves, full_vols):
        tables = make_state(ts4, eq_curves, full_vols).tables
        for n_paths in (0, -1):
            with pytest.raises(ValueError, match="at least one path"):
                PathState(tables, n_paths)

    def test_tables_are_read_only_copies(self, ts4, eq_curves, full_vols):
        # Every array the tables keep is read-only, and building them left
        # the curve set's and the vol spec's own arrays writeable.
        tables = make_state(ts4, eq_curves, full_vols).tables
        kept = [tables.rate0, tables.rate_sig, *tables.s_mask.values(),
                *(leg.sig for leg in tables.fx_legs.values()),
                *(a for tab in tables.curves.values()
                  for a in (tab.x0, tab.sig, tab.u, tab.own, tab.q))]
        assert len(kept) == 2 + 1 + 1 + 5 * len(tables.curves)
        assert not any(a.flags.writeable for a in kept)
        assert eq_curves.fixings["USD"].values.flags.writeable
        assert all(a.flags.writeable for section in ("collateral",
                   "libor_ois", "equity", "funding", "fx")
                   for a in getattr(full_vols, section).values())

    @pytest.mark.parametrize("edit, message", [
        (dict(spreads={("GBP", "USD"): flat_spread("GBP", "USD", 0.001,
                                                   np.linspace(0, 2, 5))}),
         "pair ('GBP', 'USD'): pay currency 'GBP' has no discount curve"),
        (dict(fixings={"USD": SpreadFixings("USD", np.zeros(5))}),
         "LIBOR-OIS fixings for USD have 5 periods, grid has 4"),
        (dict(equities={ccy: EquityForwardCurve(
            ccy, np.array([1.0, 2.0]), np.array([100.0, 101.0]))
            for ccy in ("USD", "GBP")}),
         "equity curve 'GBP' has no matching discount curve"),
    ], ids=["pair-pay", "fixings-length", "equity-currency"])
    def test_initial_refuses_curves_it_cannot_simulate(self, ts4, eq_curves,
                                                       full_vols, edit,
                                                       message):
        # Model makes the checks, so ModelTables.of only builds tables.
        cs = dataclasses.replace(eq_curves, **edit)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            Model(ts4, cs, full_vols, "USD")

    def test_accessors_refuse_times_they_do_not_hold(self, ts4, eq_curves):
        # The equity curve starts at T = 1, so bucket 0 (T_1 = 0.5) has no
        # pillar coverage.
        cs = CurveSet(discounts={"USD": eq_curves.discount_curve("USD")},
                      equities={"USD": EquityForwardCurve(
                          "USD", np.array([1.0, 2.0]),
                          np.array([100.0, 101.0]))})
        st = make_state(ts4, cs, VolatilitySpec(n_factors=1, n_buckets=4))
        evolve_step(st, np.zeros((3, 1)))
        for end_node in (0, 5):
            with pytest.raises(ValueError, match="outside the grid"):
                st.libor_ois("USD", end_node)
        with pytest.raises(ValueError, match="start at the first node"):
            st.equity_forward("USD", 0.0)
        with pytest.raises(ConfigurationError, match="no pillar coverage"):
            st.equity_forward("USD", 0.5)
        assert st.equity_forward("USD", 1.0).tolist() == [100.0] * 3


class TestEvolveStep:
    def test_pair_account_accrues_spread(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols, n_paths=1)
        c0 = st.buckets("c", "USD")[0, 0]
        y0 = st.buckets("y", ("USD", "EUR"))[0, 0]
        evolve_step(st, np.zeros((1, 3)))
        assert st.time == 0.5
        np.testing.assert_allclose(
            np.exp(st.log_acc[:, st.tables.columns["USD", "EUR"]]),
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
        st = PathState(ModelTables.of(Model(ts4, eq_curves, v0, "USD")), 1)
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
        assert (st.buckets("s", "USD")[:, st.tables.s_mask["USD"]] > 0).all()

    def test_bad_steps_rejected(self, ts4, eq_curves, full_vols):
        st = make_state(ts4, eq_curves, full_vols, n_paths=1)
        with pytest.raises(ValueError):
            evolve_step(st, np.zeros((2, 3)))

    def test_single_bucket_read_matches_slice(self, ts4, eq_curves, full_vols):
        # Every read is one (paths, d) @ (d,) product per bucket, so a
        # whole-curve read is the single-bucket reads bit for bit, at every
        # node and for every simulated curve.
        rng = np.random.default_rng(2)
        st = make_state(ts4, eq_curves, full_vols, n_paths=16)
        for node in range(5):
            for family, key in st.tables.curves:
                whole = st.buckets(family, key)
                for m in range(4):
                    one = st.buckets(family, key, m, m + 1)
                    assert one.shape == (16, 1)
                    assert (one == whole[:, m:m + 1]).all(), (node, key, m)
            if node < 4:
                evolve_step(st, rng.normal(size=(16, 3)) * np.sqrt(0.5))

    def test_a_ring_reads_what_the_full_history_reads(self, ts4, eq_curves,
                                                      full_vols):
        # A state keeping W at its last 2 nodes, built in a dirty buffer,
        # evolves on the full state's shocks: its accounts, deflators, FX
        # and reads of W up to one node back are the full state's bit for
        # bit.  Its `w`, and a read two nodes back, raise ValueError naming
        # the depth, where they would read ring rows as nodes.
        full = make_state(ts4, eq_curves, full_vols, n_paths=6)
        ring = PathState(full.tables, 6, 2, np.full(1_000, np.nan))
        assert full.w.shape == (5, 6, 3)
        plan = full.tables.deflator_plan(
            [("EUR", "USD"), ("USD", "EUR"), ("EUR", "EUR")])
        rng = np.random.default_rng(4)
        for node in range(5):
            for a, b in ((ring.log_acc, full.log_acc),
                         (ring.deflator_rows(plan, np.empty((3, 6))),
                          full.deflator_rows(plan, np.empty((3, 6)))),
                         (ring.fx_rate("USD", "EUR"), full.fx_rate("USD", "EUR")),
                         (ring.buckets("c", "EUR", node if node < 4 else 3),
                          full.buckets("c", "EUR", node if node < 4 else 3)),
                         (ring.buckets("s", "USD", max(node - 1, 0)),
                          full.buckets("s", "USD", max(node - 1, 0)))):
                assert a.tobytes() == b.tobytes(), node
            if node:
                assert (ring.libor_ois("USD", node).tobytes()
                        == full.libor_ois("USD", node).tobytes())
            if node > 1:
                with pytest.raises(ValueError, match="more than 2 nodes back"):
                    ring.libor_ois("USD", node - 1)
            with pytest.raises(ValueError, match="last 2 nodes, not at all 5"):
                ring.w
            if node < 4:
                dw = rng.normal(size=(6, 3)) * np.sqrt(0.5)
                evolve_step(full, dw)
                evolve_step(ring, dw)
        for depth in (1, 6):
            with pytest.raises(ValueError, match=r"depth must be in \[2, 5\]"):
                PathState(full.tables, 6, depth)

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
    n, base = ts.n_buckets, st.tables.base
    x = {key: st.buckets(*key) for key in st.tables.curves}
    fx = {(base, ccy): np.full(st.n_paths, x0)
          for ccy, (x0, *_) in st.tables.fx_legs.items()}
    acc = {key: np.zeros(st.n_paths) for key in st.tables.columns}
    yield x, fx, acc
    for j in range(1, n + 1):
        dt = ts.deltas[j - 1] / substeps
        for sub in range(substeps):
            dw = np.sqrt(dt) * z[:, (j - 1) * substeps + sub]
            for (family, key), arr in x.items():
                g, sig = _drift_and_loadings(family, key, j, vols, ts, base)
                live = np.arange(n) >= (j - 1 if family == "s" else j)
                if family == "s":
                    live &= st.tables.s_mask[key]
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
        for (pay, col), a in acc.items():
            rate = x["c", pay][:, j - 1]
            if pay != col:
                rate = rate + x["y", (pay, col)][:, j - 1]
            a += ts.deltas[j - 1] * rate
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
        tables = ModelTables.of(Model(ts, curves, vols, "EUR"))
        st = PathState(tables, n_paths)
        z = rng.standard_normal((n_paths, ts.n_buckets * substeps, 3))
        oracle = euler_oracle(PathState(tables, n_paths), vols, ts, z,
                              substeps)
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
            for (pay, col), want in acc.items():
                got = np.exp(st.log_acc[:, st.tables.columns[pay, col]])
                np.testing.assert_allclose(got, np.exp(want), rtol=1e-13)

    def test_account_loadings_are_the_one_source(self):
        # stored (EUR, USD), the reverse (EUR, GBP) of stored (GBP, EUR)
        # and every own account (ccy, ccy) read one method
        ts, curves, vols, _ = self._model(4)
        st = PathState(ModelTables.of(Model(ts, curves, vols, "EUR")), 2)
        ccys = ("USD", "EUR", "GBP")
        own = {(c, c) for c in ccys}
        assert (set(st.tables.columns)
                == own | {("EUR", "USD"), ("EUR", "GBP")})
        for key, col in st.tables.columns.items():
            want = vols.account_loadings(*key)
            assert (st.tables.rate_sig[:, :, col] == want).all(), key
        # Under each base, keeping the funding pairs that hold it, the
        # state is what settlement reads: the own accounts and the base
        # pairs, and moving any one of them moves some deflator.
        keys = [(c, k) for c in ccys for k in ccys]
        for base in ccys:
            funding = {p: v for p, v in vols.funding.items() if base in p}
            model = Model(ts, curves, dataclasses.replace(vols, funding=funding),
                          base)
            st = PathState(ModelTables.of(model), 2)
            assert set(st.tables.columns) == own | {(base, c) for c in ccys}
            plan = st.tables.deflator_plan(keys)
            for col in st.tables.columns.values():
                before = st.deflator_rows(plan, np.empty((len(keys), 2))).copy()
                st._log_acc[col] += 1.0
                after = st.deflator_rows(plan, np.empty((len(keys), 2)))
                st._log_acc[col] -= 1.0
                assert (before != after).any(), (base, col)
        assert (vols.account_loadings("USD", "EUR")
                == vols.collateral["USD"] - vols.funding["EUR", "USD"]).all()
        for key in own:
            assert (vols.account_loadings(*key)
                    == vols.collateral_loadings(key[0])).all()

    def test_fx_rate_orientations(self):
        # stored legs are (base, ccy); reversed and cross pairs derive from them
        n_paths = 16
        ts, curves, vols, rng = self._model(1)
        st = PathState(ModelTables.of(Model(ts, curves, vols, "EUR")), n_paths)
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


def rolling_fx_forward(st, pay, foreign, collateral):
    """FX forward for delivery at the next node, struck at the current one.

    Spot times the one-bucket Ytilde of the foreign leg over that of the
    pay leg, with Ytilde(T_n, T_{n+1}) = exp(-delta_n (c_n + y_n)) from
    the rates fixed at T_n: the per-period reset value of a rolling FX
    forward collateralized in `collateral`.
    """
    k = st.node

    def ytilde(ccy):
        rates = st.buckets("c", ccy, k, k + 1)
        if ccy != collateral:
            rates = rates + st.buckets("y", (ccy, collateral), k, k + 1)
        return np.exp(-(rates @ st.tables.ts.deltas[k:k + 1]))

    return st.fx_rate(pay, foreign) * ytilde(foreign) / ytilde(pay)


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
        st = PathState(ModelTables.of(Model(ts4, cs, v0, "USD")), 1)
        evolve_step(st, np.zeros((1, 1)))
        fwd = rolling_fx_forward(st, "USD", "EUR", "EUR")
        spot = st.fx_rate("USD", "EUR")[0]
        c_i = st.buckets("c", "USD")[0, 1]
        c_j = st.buckets("c", "EUR")[0, 1]
        assert fwd[0] == pytest.approx(spot * np.exp(-0.5 * (c_j - c_i)),
                                       rel=1e-14)

    def test_hand_value(self, ts4, eq_curves):
        # zero vols keep the flat-curve rates: c_USD = 2%, c_EUR = 1% and
        # y_EUR/USD = 0.2% in bucket 1; under base EUR (EUR, USD) is
        # simulated, and with zero vols the measure does not matter
        v0 = VolatilitySpec(n_factors=1, n_buckets=4)
        st = PathState(ModelTables.of(Model(ts4, eq_curves, v0, "EUR")), 1)
        evolve_step(st, np.zeros((1, 1)))
        fwd = rolling_fx_forward(st, "USD", "EUR", "USD")
        spot = st.fx_rate("USD", "EUR")[0]
        assert fwd[0] == pytest.approx(spot * np.exp(0.004), rel=1e-14)

    def test_same_currency_is_one(self, ts4, eq_curves, full_vols):
        st = self._node_state(ts4, eq_curves, full_vols)
        fwd = rolling_fx_forward(st, "USD", "USD", "EUR")
        assert fwd[0] == 1.0


@pytest.fixture
def three_ccy(ts4):
    """USD base, EUR and GBP with funding spreads and spots, 3 factors."""
    nodes = ts4.nodes
    curves = CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes),
                   "GBP": flat_curve("GBP", 0.03, nodes)},
        spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes),
                 ("GBP", "USD"): flat_spread("GBP", "USD", -0.001, nodes),
                 ("EUR", "GBP"): flat_spread("EUR", "GBP", 0.0015, nodes)},
        spot_fx={("USD", "EUR"): 1.08, ("USD", "GBP"): 1.27},
    )
    vols = VolatilitySpec(
        n_factors=3, n_buckets=4,
        collateral={"USD": [0.01, 0.0, 0.002], "EUR": [0.003, 0.008, 0.0],
                    "GBP": [0.0, 0.004, 0.009]},
        funding={("EUR", "USD"): [0.0, 0.002, 0.003],
                 ("USD", "GBP"): [0.001, 0.0, -0.002]},
        fx={("USD", "EUR"): [0.04, -0.08, 0.02],
            ("USD", "GBP"): [-0.03, 0.05, 0.06]},
    )
    return curves, vols


class TestDeflator:
    CCYS = ("USD", "EUR", "GBP")

    def test_matches_numeraire_formula(self, ts4, three_ccy):
        # 1 / (base pair account of k, converted to c at simulated spot,
        # times today's spot), for every (c, k), at every node.
        curves, vols = three_ccy
        rng = np.random.default_rng(8)
        st = PathState(ModelTables.of(Model(ts4, curves, vols, "USD")), 32)
        for node in range(5):
            for c in self.CCYS:
                for k in self.CCYS:
                    account = np.exp(
                        st.log_acc[:, st.tables.columns["USD", k]])
                    want = st.fx_rate("USD", c) / (
                        account * curves.fx_rate("USD", c))
                    np.testing.assert_allclose(st.deflator(c, k), want,
                                               rtol=1e-14, atol=0)
            if node < 4:
                evolve_step(st, rng.normal(size=(32, 3)) * np.sqrt(0.5))

    def test_zero_vols_give_one_value_per_key(self, ts4, three_ccy):
        curves, _ = three_ccy
        st = PathState(ModelTables.of(
            Model(ts4, curves, VolatilitySpec(3, 4), "USD")), 6)
        rng = np.random.default_rng(3)
        for _ in range(4):
            evolve_step(st, rng.normal(size=(6, 3)))
            for c in self.CCYS:
                for k in self.CCYS:
                    d = st.deflator(c, k)
                    assert np.all(d == d[0]), (c, k)

    def test_unsimulated_key_has_todays_message(self, ts4, three_ccy):
        curves, vols = three_ccy
        st = PathState(ModelTables.of(Model(ts4, curves, vols, "USD")), 2)
        with pytest.raises(ConfigurationError) as fx:
            st.fx_rate("USD", "JPY")
        pair = "pair account (USD,JPY) is not simulated"
        for key, want in [(("USD", "JPY"), pair), (("EUR", "JPY"), pair),
                          (("JPY", "USD"), str(fx.value))]:
            with pytest.raises(ConfigurationError) as got:
                st.deflator(*key)
            assert str(got.value) == want, key

    def test_table_rows_are_the_deflators(self, ts4, three_ccy):
        # Base, non-base and reversed-pair keys in one table, at node 0 and
        # after each step: every row equals deflator(*key) and the log
        # formula's own steps, ((L(base, c) - L(c, c)) + sigma_X . W)
        # - 1/2 |sigma_X|^2 T - L(base, k), then exp, bit for bit.
        curves, vols = three_ccy
        st = PathState(ModelTables.of(Model(ts4, curves, vols, "USD")), 33)
        keys = [("EUR", "USD"), ("USD", "USD"), ("USD", "EUR"), ("GBP", "EUR"),
                ("EUR", "GBP"), ("GBP", "GBP"), ("USD", "GBP"), ("EUR", "EUR")]
        rng = np.random.default_rng(12)
        out = np.full((len(keys) + 2, 33), np.nan)
        plan = st.tables.deflator_plan(keys)
        for node in range(5):
            acc = st._log_acc
            for scratch in (None, np.empty(33)):
                table = st.deflator_rows(plan, out, scratch)
                assert table.shape == (len(keys), 33)
                assert np.shares_memory(table, out)
                assert np.isnan(out[len(keys):]).all()
                for (c, k), row in zip(keys, table):
                    col = st.tables.columns
                    if c == "USD":
                        log_d = -acc[col["USD", k]]
                    else:
                        sig = st.tables.fx_legs[c].sig
                        log_d = ((acc[col["USD", c]] - acc[col[c, c]])
                                 + sig @ st.w[node].T)
                        log_d = (log_d - 0.5 * float(sig @ sig) * st.time
                                 - acc[col["USD", k]])
                    assert np.array_equal(row, st.deflator(c, k)), (node, c, k)
                    assert np.array_equal(row, np.exp(log_d)), (node, c, k)
            if node < 4:
                evolve_step(st, rng.normal(size=(33, 3)) * np.sqrt(0.5))

    def test_resolved_keys_follow_each_state(self, ts4, eq_curves, full_vols):
        # Each state reads its own account rows through the model's legs:
        # reads at every node 0-4, before and after a new state of the
        # same tables evolves on other shocks, are each state's own formula,
        # exp(((L(base, c) - L(c, c)) + sigma_X . W) - 1/2 |sigma_X|^2 T
        # - L(base, k)), bit for bit, as is deflator(*key) row by row.
        # fx_rate is the ratio of its legs X(0) exp(log move), bit for bit.
        keys = [("EUR", "USD"), ("USD", "USD"), ("USD", "EUR"), ("EUR", "EUR")]
        rng = np.random.default_rng(17)

        def check(st):
            acc, col, node = st._log_acc, st.tables.columns, st.node
            sig = st.tables.fx_legs["EUR"].sig
            move = ((acc[col["USD", "EUR"]] - acc[col["EUR", "EUR"]])
                    + sig @ st.w[node].T)
            move = move - 0.5 * float(sig @ sig) * st.time
            table = st.deflator_rows(st.tables.deflator_plan(keys),
                                     np.empty((len(keys), st.n_paths)),
                                     np.empty(st.n_paths))
            for (c, k), row in zip(keys, table):
                log_d = -acc[col["USD", k]]
                if c == "EUR":
                    log_d = move - acc[col["USD", k]]
                assert np.array_equal(row, np.exp(log_d)), (node, c, k)
                assert np.array_equal(row, st.deflator(c, k)), (node, c, k)
            leg = np.exp(move) * eq_curves.fx_rate("USD", "EUR")
            assert np.array_equal(st.fx_rate("USD", "EUR"), leg / 1.0)
            assert np.array_equal(st.fx_rate("EUR", "USD"), 1.0 / leg)

        st = make_state(ts4, eq_curves, full_vols, n_paths=9)
        for node in range(5):
            check(st)
            check(st)
            if node == 2:
                other = PathState(st.tables, 7)
                check(other)
                evolve_step(other, rng.normal(size=(7, 3)))
                check(other)
            if node < 4:
                evolve_step(st, rng.normal(size=(9, 3)) * np.sqrt(0.5))
        check(other)

    def test_one_bucket_reads_are_the_wide_reads(self, ts4, eq_curves,
                                                 full_vols):
        # libor_ois and equity_forward read their bucket alone: the
        # buckets() column bit for bit, at every node.
        rng = np.random.default_rng(5)
        st = make_state(ts4, eq_curves, full_vols, n_paths=11)
        for node in range(5):
            b, s = st.buckets("b", "USD"), st.buckets("s", "USD")
            for m in range(4):
                assert np.array_equal(st.libor_ois("USD", m + 1), b[:, m])
                assert np.array_equal(
                    st.equity_forward("USD", ts4.nodes[m + 1]), s[:, m])
            if node < 4:
                evolve_step(st, rng.normal(size=(11, 3)) * np.sqrt(0.5))

    def test_table_of_an_unsimulated_key_has_todays_message(self, ts4, three_ccy):
        curves, vols = three_ccy
        st = PathState(ModelTables.of(Model(ts4, curves, vols, "USD")), 2)
        for key in [("USD", "JPY"), ("JPY", "USD")]:
            with pytest.raises(ConfigurationError) as want:
                st.deflator(*key)
            with pytest.raises(ConfigurationError) as got:
                st.tables.deflator_plan([("USD", "USD"), key])
            assert str(got.value) == str(want.value), key


class TestBatchedProducts:
    """The product identities the grouped readers and evolve rely on."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_batched_matmul_is_the_per_row_products(self, d):
        # np.matmul of (rows, 1, d) loadings with a (d, paths) or (rows, d,
        # paths) W makes one (d,) @ (d, paths) product per row, bit for bit,
        # whether W is one row broadcast to all, gathered per row, or
        # written with out= into rows of a larger table, every one or every
        # other.  A numpy or BLAS change that breaks it fails here before
        # it moves a report.
        rng = np.random.default_rng(100 + d)
        for paths in (1, 7, 33, 1001, 5001):
            w = rng.standard_normal((6, d, paths))
            for rows in (1, 2, 3, 5):
                sig = rng.standard_normal((rows, d)) * 0.2
                at = rng.integers(0, 6, rows)
                one = np.stack([s @ w[2] for s in sig])
                each = np.stack([s @ w[r] for s, r in zip(sig, at)])
                stacked = sig[:, None, :]
                assert np.array_equal(np.matmul(stacked, w[2])[:, 0], one)
                assert np.array_equal(np.matmul(stacked, w[at])[:, 0], each)
                table = np.full((2 * rows + 3, paths), np.nan)
                np.matmul(stacked, w[2], out=table[1:rows + 1, None])
                assert np.array_equal(table[1:rows + 1], one)
                np.matmul(stacked, w[at], out=table[2::2][:rows, None])
                assert np.array_equal(table[2::2][:rows], each)
                assert np.isnan(table[0]).all()


    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_stacked_matmul_is_each_nodes_product(self, d):
        # A grouped step's rates are one (nodes, K, d) @ (nodes, d, paths)
        # np.matmul of the transposed (nodes, d, K) loadings with W, written
        # with out= into rows of the accounts: each node's (K, d) @ (d,
        # paths) product, bit for bit.  A grouped read or deflator row is a
        # (nodes, rows, 1, d) @ (nodes, 1, d, paths) product: each node's
        # (rows, 1, d) @ (d, paths) product, and so each row's.
        rng = np.random.default_rng(200 + d)
        for paths in (1, 7, 1001, 5001):
            for nodes, k in ((1, 1), (2, 5), (3, 4), (6, 9)):
                sig = rng.standard_normal((nodes + 2, d, k)) * 0.01
                w = rng.standard_normal((nodes + 1, d, paths))
                each = np.stack([sig[j].T @ w[j] for j in range(nodes)])
                out = np.full((nodes + 1, k, paths), np.nan)
                np.matmul(sig[:nodes].transpose(0, 2, 1), w[:nodes],
                          out=out[1:])
                assert np.array_equal(out[1:], each)
                rows = rng.standard_normal((nodes, k, 1, d))
                one = np.stack([np.matmul(rows[j], w[j + 1])
                                for j in range(nodes)])
                table = np.full((nodes, k + 2, paths), np.nan)
                np.matmul(rows, w[1:, None], out=table[:, 1:k + 1, None])
                assert np.array_equal(table[:, 1:k + 1], one[:, :, 0])
                assert np.array_equal(
                    one[:, 0, 0], np.stack([rows[j, 0, 0] @ w[j + 1]
                                            for j in range(nodes)]))
                assert np.isnan(table[:, 0]).all()

    def test_a_grouped_step_is_its_steps_one_at_a_time(self, ts4, eq_curves,
                                                       full_vols):
        # evolve_step over 1-4 intervals at once, from a ring of 2 nodes
        # and from the full history, in a dirty buffer, takes each
        # interval's steps: W, the accounts, the deflators and the reads
        # of buckets with loadings of their own at every node equal the
        # one-step state's, bit for bit, and a grouped reader's node axis
        # holds the step's nodes.
        rng = np.random.default_rng(9)
        scale = np.array([[1.0], [1.5], [0.7], [1.2]])
        vols = dataclasses.replace(
            full_vols, libor_ois={"USD": scale * [0.0, 0.15, 0.1]},
            equity={"USD": scale[::-1] * [0.05, 0.0, 0.18]})
        full = make_state(ts4, eq_curves, vols, n_paths=6)
        dw = rng.normal(size=(4, 6, 3)) * np.sqrt(0.5)
        plan = full.tables.deflator_plan([("EUR", "USD"), ("USD", "EUR")])
        # At node n: LIBOR-OIS fixed at T_n-1 and the equity forward
        # maturing at T_n, which reads W(T_n).
        reads = full.tables.bucket_reads(
            [full.tables.look_up([("b", "USD", n - 1), ("s", "USD", n - 1)],
                                 n) for n in range(1, 5)], range(1, 5))
        want = []
        for node in range(5):
            values = np.empty((2, 6))
            for batch, rows in reads:
                if node:
                    full.read(batch, values[rows], node - 1)
            want.append((full.log_acc.copy(), full.deflator_rows(
                plan, np.empty((2, 6))).copy(), values))
            if node < 4:
                evolve_step(full, dw[node])
        for depth in (2, 5):
            for sizes in ((1, 1, 1, 1), (2, 2), (3, 1), (1, 3), (4,)):
                st = PathState(full.tables, 6, depth,
                               np.full(1_000, np.nan), 4)
                for n in sizes:
                    lo = st.node
                    evolve_step(st, dw[lo:lo + n])
                    assert st.nodes == range(lo + 1, lo + n + 1)
                    table = st.deflator_rows(plan, np.empty((n, 2, 6)))
                    values = np.empty((n, 2, 6))
                    for batch, rows in reads:
                        st.read(batch, values[:, rows], lo)
                    for j, node in enumerate(st.nodes):
                        acc, defl, read = want[node]
                        assert np.array_equal(st._acc_at_nodes(
                            node, node + 1)[0].T, acc), (depth, sizes)
                        assert np.array_equal(table[j], defl)
                        assert np.array_equal(values[j], read)
                assert np.array_equal(st.log_acc, want[4][0])
                if depth == 5:
                    # W is the running sum of its increments, node by
                    # node: np.cumsum over the nodes, bit for bit.
                    assert np.array_equal(st.w, full.w)
                    assert np.array_equal(st.w, np.cumsum(
                        [np.zeros((6, 3)), *dw], axis=0))
        with pytest.raises(ValueError, match="moves 1 to 2 nodes, not 3"):
            evolve_step(PathState(full.tables, 6, 2, None, 2), dw[:3])


def test_index_runs():
    assert index_runs([4]) == [(0, 1, (slice(4, 5, 1),))]
    # Every sequence steps evenly and by at least 1 within a run.
    assert index_runs(range(5), [0, 3, 4, 5, 5]) == [
        (0, 2, (slice(0, 2, 1), slice(0, 6, 3))),
        (2, 4, (slice(2, 4, 1), slice(4, 6, 1))),
        (4, 5, (slice(4, 5, 1), slice(5, 6, 1)))]
    assert index_runs([3, 2, 1]) == [(0, 1, (slice(3, 4, 1),)),
                                     (1, 2, (slice(2, 3, 1),)),
                                     (2, 3, (slice(1, 2, 1),))]
    values = np.arange(10.0)
    for seq in ([0, 2, 4, 5, 9], [7, 1, 2, 3, 8, 8]):
        got = [values[where] for _, _, (where,) in index_runs(seq)]
        assert np.concatenate(got).tolist() == [float(i) for i in seq]
