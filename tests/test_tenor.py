"""Grid mechanics: node bookkeeping and the q(t) interval index."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colmm import TenorStructure


class TestConstruction:
    def test_deltas(self):
        ts = TenorStructure(np.array([0.0, 0.25, 1.0]))
        np.testing.assert_array_equal(ts.deltas, [0.25, 0.75])
        assert ts.n_buckets == 2

    @pytest.mark.parametrize("nodes", [
        [0.0],                    # too short
        [0.1, 0.5],               # does not start at zero
        [0.0, 0.5, 0.5],          # not strictly increasing
        [0.0, 1.0, 0.5],          # decreasing
        [0.0, np.nan, 1.0],       # not finite
    ])
    def test_rejects_bad_grids(self, nodes):
        with pytest.raises(ValueError):
            TenorStructure(np.array(nodes))


class TestQIndex:
    def test_examples(self):
        ts = TenorStructure(np.array([0.0, 0.5, 1.0]))
        assert ts.q_index(0.0) == 0
        assert ts.q_index(0.5) == 1
        assert ts.q_index(0.7) == 2

    def test_domain(self):
        ts = TenorStructure(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError):
            ts.q_index(-0.1)
        with pytest.raises(ValueError):
            ts.q_index(1.0001)

    @given(st.integers(min_value=0, max_value=7),
           st.floats(min_value=1e-9, max_value=1.0))
    def test_interval_convention(self, m, frac):
        # q maps (T_m, T_{m+1}] to m+1 and nodes to their own index
        ts = TenorStructure(np.linspace(0.0, 4.0, 9))
        assert ts.q_index(float(ts.nodes[m])) == m
        t = float(ts.nodes[m]) + frac * float(ts.deltas[m])
        assert ts.q_index(t) == m + 1

    def test_accruals_sum_to_horizon(self):
        ts = TenorStructure(np.array([0.0, 0.25, 0.75, 2.0, 3.5]))
        assert ts.deltas.sum() == ts.nodes[-1]


class TestNodeIndex:
    def test_exact_nodes_only(self):
        ts = TenorStructure(np.array([0.0, 0.5, 1.0]))
        assert ts.node_index(0.5) == 1
        assert ts.is_node(1.0)
        assert not ts.is_node(0.25)
        with pytest.raises(ValueError):
            ts.node_index(0.25)


def _numpy_q_index(nodes, t):
    if t < 0.0 or t > nodes[-1]:
        raise ValueError(f"time {t} outside the grid [0, {nodes[-1]}]")
    return int(np.searchsorted(nodes, t, side="left"))


def _numpy_node_index(nodes, t):
    idx = np.searchsorted(nodes, t, side="left")
    if idx == nodes.size or nodes[idx] != t:
        raise ValueError(f"time {t} is not a tenor node")
    return int(idx)


def _numpy_is_node(nodes, t):
    idx = np.searchsorted(nodes, t, side="left")
    return bool(idx < nodes.size and nodes[idx] == t)


def _same_result(got_fn, want_fn, t, kinds):
    """Equal results of a type in `kinds`, or the same ValueError message."""
    try:
        want = want_fn(t)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            got_fn(t)
        assert str(info.value) == str(exc)
        return
    got = got_fn(t)
    assert type(got) in kinds and got == want, (t, got, want)


class TestLookupsMatchNumpyFormula:
    """Node lookups against np.searchsorted over the node array."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(1e-4, 3.0), min_size=1, max_size=40))
    def test_node_lookups(self, deltas):
        ts = TenorStructure(np.concatenate([[0.0], np.cumsum(deltas)]))
        nodes = ts.nodes
        times = [-math.inf, math.inf, -1e-300, np.nextafter(nodes[-1], 99.0),
                 nodes[-1] + 1.0]
        for a, b in zip(nodes, nodes[1:]):
            times += [a, 0.5 * (a + b), np.nextafter(a, b), np.nextafter(b, a)]
        times.append(nodes[-1])
        for t in [float(t) for t in times] + [np.float64(t) for t in times]:
            _same_result(ts.node_index, lambda t: _numpy_node_index(nodes, t),
                         t, (int,))
            _same_result(ts.is_node, lambda t: _numpy_is_node(nodes, t),
                         t, (bool, np.bool_))
            _same_result(ts.q_index, lambda t: _numpy_q_index(nodes, t),
                         t, (int,))

    def test_nan(self):
        ts = TenorStructure(np.array([0.0, 0.5, 1.0]))
        assert not ts.is_node(math.nan)
        with pytest.raises(ValueError, match="time nan is not a tenor node"):
            ts.node_index(math.nan)
        # NaN lies outside the grid, where np.searchsorted put it one past
        # the last node.
        with pytest.raises(ValueError,
                           match=r"time nan outside the grid \[0, 1.0\]"):
            ts.q_index(math.nan)
