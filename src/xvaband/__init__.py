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
    CreditP,
    DEFAULT_MARKET,
    MarketConfig,
    apply_overrides,
    credit_under_p,
    intensity_p_to_q,
    intensity_q_to_p,
    load_market_config,
    validate_no_arbitrage,
)
from .driver import DriverInputs, f_buyer, f_seller, rate_coll, rate_fund, rate_repo
from .grid import GridSpec, SolverConfig, Surface, build_grid
from .kernels import active_backend
from .oracle import TreeSpec, symmetric_case_residual, tree_bsde_price
from .pde import PicardConvergenceError, solve_semilinear
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
    "CreditP",
    "DEFAULT_MARKET",
    "DriverInputs",
    "GridSpec",
    "HedgeSnapshot",
    "MarketConfig",
    "PicardConvergenceError",
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
    "credit_under_p",
    "f_buyer",
    "f_seller",
    "funding_account_0",
    "hedge_at",
    "intensity_p_to_q",
    "intensity_q_to_p",
    "load_market_config",
    "rate_coll",
    "rate_fund",
    "rate_repo",
    "run_sweep",
    "solve_semilinear",
    "solve_trade",
    "symmetric_case_residual",
    "tree_bsde_price",
    "validate_no_arbitrage",
    "write_csv",
]
