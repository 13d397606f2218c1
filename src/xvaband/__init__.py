"""Bilateral XVA band pricer for European claims.

Prices the seller's and buyer's total valuation adjustment under
asymmetric funding, repo, and collateral rates with bilateral default
risk, by solving the associated semilinear PDE with a Crank-Nicolson
scheme.  A recombining-tree BSDE solver provides an independent
cross-check.  Everything runs on numpy and scipy.
"""

from .benchmark import benchmark_surface, bs_closed_form
from .config import (
    ArbitrageViolationError,
    ClaimSpec,
    DEFAULT_MARKET,
    MarketConfig,
    apply_overrides,
    load_market_config,
    validate_no_arbitrage,
)
from .grid import GridSpec, SolverConfig, Surface, build_grid
from .oracle import TreeSpec, tree_bsde_price
from .pde import active_backend
from .sweep import SweepAxis, SweepSpec, run_sweep, write_csv
from .xva import (
    HedgeSnapshot,
    XvaReport,
    compute_xva,
    funding_account_0,
    hedge_at,
    solve_trade,
)

__version__ = "0.1.0"

__all__ = [
    "ArbitrageViolationError",
    "ClaimSpec",
    "DEFAULT_MARKET",
    "GridSpec",
    "HedgeSnapshot",
    "MarketConfig",
    "SolverConfig",
    "Surface",
    "SweepAxis",
    "SweepSpec",
    "TreeSpec",
    "XvaReport",
    "active_backend",
    "apply_overrides",
    "benchmark_surface",
    "bs_closed_form",
    "build_grid",
    "compute_xva",
    "funding_account_0",
    "hedge_at",
    "load_market_config",
    "run_sweep",
    "solve_trade",
    "tree_bsde_price",
    "validate_no_arbitrage",
    "write_csv",
]
