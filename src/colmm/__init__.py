"""Multi-currency collateralized market model on a fixed tenor grid.

Discrete forward collateral rates, funding spreads, LIBOR-OIS spreads,
FX and equity forwards evolve under one base-currency measure; curve
bootstrapping, martingale diagnostics, and analytic/Monte Carlo pricers
sit on top.
"""

from .curves import (
    CurveSet,
    DiscountCurve,
    EquityForwardCurve,
    SpreadCurve,
    SpreadFixings,
    bootstrap_discount_curve,
    bootstrap_spread_curve,
    forward_rates,
    ois_par_rate,
)
from .dynamics import (
    ModelTables,
    PathState,
    VolatilitySpec,
    evolve_step,
)
from .engine import (
    BucketRead,
    FxOption,
    GridPayoff,
    Model,
    PriceEstimate,
    SimulationConfig,
    gaussian_increments,
    simulate_many,
)
from .errors import CalibrationError, ConfigurationError, InputError
from .market_data import (
    build_curve_set,
    build_volatility,
    load_curve_set,
    load_vol_config,
    parse_instruments,
    parse_market_csv,
    repricing_residuals,
    save_curve_set,
)
from .pricers import (
    FxForwardSpec,
    FxOptionSpec,
    collateralized_zcb,
    equity_forward,
    forward_fx_total_stdev,
    fx_forward,
    fx_option_black,
)
from .tenor import TenorStructure

__version__ = "0.1.0"

__all__ = [
    "BucketRead",
    "CalibrationError",
    "ConfigurationError",
    "CurveSet",
    "DiscountCurve",
    "EquityForwardCurve",
    "FxForwardSpec",
    "FxOption",
    "FxOptionSpec",
    "GridPayoff",
    "InputError",
    "Model",
    "ModelTables",
    "PathState",
    "PriceEstimate",
    "SimulationConfig",
    "SpreadCurve",
    "SpreadFixings",
    "TenorStructure",
    "VolatilitySpec",
    "bootstrap_discount_curve",
    "bootstrap_spread_curve",
    "build_curve_set",
    "build_volatility",
    "collateralized_zcb",
    "equity_forward",
    "evolve_step",
    "forward_fx_total_stdev",
    "forward_rates",
    "fx_forward",
    "fx_option_black",
    "gaussian_increments",
    "load_curve_set",
    "load_vol_config",
    "ois_par_rate",
    "parse_instruments",
    "parse_market_csv",
    "repricing_residuals",
    "save_curve_set",
    "simulate_many",
]
