"""Fixed tenor grid shared by curves, dynamics, and the simulation engine.

The model lives on a finite set of dates 0 = T_0 < T_1 < ... < T_N given as
year fractions.  Bucket m is the period [T_m, T_{m+1}] with accrual factor
delta_m = T_{m+1} - T_m; a grid with N+1 nodes has N buckets.  The index
function q(t) = min{n : T_n >= t} locates the first node not before t, so
q(T_n) = n exactly and q maps the half-open interval (T_{n-1}, T_n] to n.
No tolerance snapping is applied: callers are expected to pass node times
taken from the grid itself, not re-derived by accumulation.  Node lookups
bisect a float list of the nodes, kept beside the public `nodes` array.

Calendar conventions (day counts, business-day rolls) are out of scope;
they belong at the ingestion boundary.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np


@dataclass
class TenorStructure:
    """Strictly increasing grid of year-fraction nodes starting at zero."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("tenor structure needs at least two nodes (one bucket)")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("tenor nodes must be finite")
        if nodes[0] != 0.0:
            raise ValueError(f"first tenor node must be 0, got {nodes[0]}")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("tenor nodes must be strictly increasing")
        self.nodes = nodes
        self.deltas = np.diff(nodes)
        self._nodes = nodes.tolist()

    @property
    def n_buckets(self) -> int:
        return self.nodes.size - 1

    def q_index(self, t: float) -> int:
        """Smallest n with T_n >= t.

        q(0) = 0, q(T_n) = n, and q(t) = n for t in (T_{n-1}, T_n].  NaN
        lies outside the grid.
        """
        if not 0.0 <= t <= self._nodes[-1]:
            raise ValueError(f"time {t} outside the grid [0, {self._nodes[-1]}]")
        return bisect_left(self._nodes, t)

    def node_index(self, t: float) -> int:
        """Index of the node exactly equal to t; error if t is off-grid."""
        idx = bisect_left(self._nodes, t)
        if idx == len(self._nodes) or self._nodes[idx] != t:
            raise ValueError(f"time {t} is not a tenor node")
        return idx

    def is_node(self, t: float) -> bool:
        idx = bisect_left(self._nodes, t)
        return idx < len(self._nodes) and self._nodes[idx] == t
