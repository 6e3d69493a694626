"""Shared model builders for the test suite."""

import sys
from pathlib import Path

import numpy as np
import pytest

# colmm from PYTHONPATH, else from this checkout's src/, so a run with
# PYTHONPATH naming another tree tests that tree.
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
from colmm import (  # noqa: E402
    CurveSet,
    DiscountCurve,
    SpreadCurve,
    TenorStructure,
)


@pytest.fixture
def ts8():
    """Eight semiannual buckets out to 4y."""
    return TenorStructure(np.linspace(0.0, 4.0, 9))


@pytest.fixture
def ts4():
    """Four semiannual buckets out to 2y."""
    return TenorStructure(np.linspace(0.0, 2.0, 5))


def flat_curve(currency, rate, nodes):
    nodes = np.asarray(nodes, dtype=float)
    return DiscountCurve(currency, nodes, np.exp(-rate * nodes))


def flat_spread(currency, collateral, spread, nodes):
    nodes = np.asarray(nodes, dtype=float)
    return SpreadCurve(currency, collateral, nodes, np.exp(-spread * nodes))


@pytest.fixture
def two_ccy_curves(ts4):
    """USD 2%, EUR 1%, 20bp EUR/USD basis, spot 100 USD per EUR."""
    nodes = ts4.nodes
    return CurveSet(
        discounts={"USD": flat_curve("USD", 0.02, nodes),
                   "EUR": flat_curve("EUR", 0.01, nodes)},
        spreads={("EUR", "USD"): flat_spread("EUR", "USD", 0.002, nodes)},
        spot_fx={("USD", "EUR"): 100.0},
    )
