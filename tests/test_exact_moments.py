"""The simulated model's exact moments as an oracle for `diagnose` targets.

Every log quantity the engine settles at node T_n is an affine form
a + sum_{j<n} g_j . dW_j of the Brownian increments dW_j over (T_j,
T_{j+1}], each of covariance delta_j I: a log account, log spot FX, a log
deflator and a lognormal bucket read.  So E[exp(form)] = exp(a + 1/2
sum_j delta_j |g_j|^2) (the Gaussian-HJM closed form; Andersen &
Piterbarg, Interest Rate Modeling, 2010).  Each `diagnose` row's payoff is
one such exp, and its target is the curves' price, so with
`colmm.cli.simulate_many` replaced by this closed form every row must
equal its target to roundoff, and a model with the wrong convexity sign
must not.
"""

import dataclasses

import numpy as np
import pytest

from colmm import BucketRead, ModelTables, PriceEstimate, cli

from test_dynamics import _acceptance_model, _wide_model


def _account(tables, col, n):
    """(a, g) of log account `col` at node n, g (n, d): L(T_n) = sum_{k<n}
    delta_k (rate0[k] + rate_sig[k] . W(T_k)), and W(T_k) = sum_{j<k} dW_j,
    so g_j = sum_{k=j+1}^{n-1} delta_k rate_sig[k], a suffix sum."""
    deltas = tables.ts.deltas[:n]
    a = float(deltas @ tables.rate0[:n, col])
    terms = deltas[:, None] * tables.rate_sig[:n, :, col]
    g = np.zeros_like(terms)
    g[:-1] = np.cumsum(terms[:0:-1], axis=0)[::-1]
    return a, g


def _deflator(tables, currency, collateral, n):
    """(a, g) of log `PathState.deflator(currency, collateral)` at node n:
    minus the base pair account of the collateral, and for a foreign
    currency its FX leg, L(base, ccy) - L(ccy, ccy) + sigma_X . W(T_n) -
    1/2 |sigma_X|^2 T_n."""
    a, g = _account(tables, tables.columns[tables.base, collateral], n)
    a, g = -a, -g
    if currency != tables.base:
        leg = tables.fx_legs[currency]
        for col, sign in ((leg.own, 1.0), (leg.other, -1.0)):
            a_col, g_col = _account(tables, col, n)
            a, g = a + sign * a_col, g + sign * g_col
        g = g + leg.sig
        a -= leg.half_variance * tables.ts.nodes[n]
    return a, g


def _exact_mean(tables, payoff):
    """E of a unit or lognormal bucket read payoff, deflated."""
    n = tables.ts.node_index(payoff.maturity)
    a, g = _deflator(tables, payoff.currency, payoff.collateral, n)
    read = payoff.amount
    if read is not None:
        assert isinstance(read, BucketRead)
        (tab, m, r), = tables.look_up([read], n)
        assert tab.lognormal
        if tab.x0[m] == 0.0:        # a zero fixing reads 0 on every path
            return 0.0
        a += np.log(tab.x0[m]) + tab.drift(np.array([r]), np.array([m]))[0]
        g[:r] += tab.sig[m]
    variance = tables.ts.deltas[:n] @ np.einsum("jd,jd->j", g, g)
    return float(np.exp(a + 0.5 * variance))


def _exact_many(model, cfg, payoffs):
    """`simulate_many` with the closed form: every estimate has SE 0."""
    tables = ModelTables.of(model)
    return {name: PriceEstimate(_exact_mean(tables, p), 0.0, cfg.n_paths,
                                p.currency)
            for name, p in payoffs.items()}


def _errors(model, monkeypatch):
    """Each diagnose row's |closed form - target| over |target|, 0 where
    both are 0."""
    monkeypatch.setattr(cli, "simulate_many", _exact_many)
    rows = cli._diagnose_rows(model, cli.SimulationConfig(n_paths=4))
    assert all(row["std_error"] == 0.0 for row in rows)
    return np.array([0.0 if row["mean"] == row["target"] == 0.0 else
                     abs(row["mean"] - row["target"]) / abs(row["target"])
                     for row in rows])


@pytest.mark.parametrize("make, n_rows", [
    ("acceptance", 36), (40, 290), (160, 1_160)])
def test_every_diagnose_target_is_the_closed_form(make, n_rows, tmp_path,
                                                  monkeypatch):
    # The acceptance dataset and generated 3-currency quarterly markets
    # with per-bucket loadings.  The worst rows read 1.0e-15, 1.4e-15 and
    # 1.8e-15; the wrong convexity sign misses by 2.8e-4, 1.2e-3 and
    # 1.8e-2.
    model = (_acceptance_model(tmp_path) if make == "acceptance"
             else _wide_model(make))
    errors = _errors(model, monkeypatch)
    assert len(errors) == n_rows
    assert errors.max() <= 1e-13
    control = dataclasses.replace(model, half_variance_sign=-1.0)
    assert _errors(control, monkeypatch).max() > 1e-4
