"""Bilateral XVA band pricer for European claims.

Prices the seller's and buyer's total valuation adjustment under
asymmetric funding, repo, and collateral rates with bilateral default
risk, by solving the associated semilinear PDE with a Crank-Nicolson
scheme.  A recombining-tree BSDE solver provides an independent
cross-check.  Everything runs on numpy and scipy.
"""

from .benchmark import (
    BenchmarkSurface,
    benchmark_surface,
    bs_closed_form,
    closeout_C,
    closeout_I,
    collateral,
)
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
from .kernels import active_backend
from .oracle import TreeSpec, symmetric_case_residual, tree_bsde_price
from .pde import solve_semilinear
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
    "BenchmarkSurface",
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
    "closeout_C",
    "closeout_I",
    "collateral",
    "compute_xva",
    "funding_account_0",
    "hedge_at",
    "load_market_config",
    "run_sweep",
    "solve_semilinear",
    "solve_trade",
    "symmetric_case_residual",
    "tree_bsde_price",
    "validate_no_arbitrage",
    "write_csv",
]
