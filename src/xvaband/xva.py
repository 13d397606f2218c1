"""Valuation adjustments, replication weights, and the funding account.

The adjusted values of the two sides bracket a no-arbitrage band around
the default-free reference: the seller's total adjustment is
``xva_sell = v_sell_0 - v_hat_0``, the buyer's is ``xva_buy = v_buy_0 -
v_hat_0``, and ``band_width = xva_sell - xva_buy >= 0``.  The time-0
funding account reported for either side is the cash left after buying
the two default-protection bond legs and posting collateral,

    funding_0 = theta_I(v_hat_0) + theta_C(v_hat_0) - v_0 - alpha*v_hat_0,

which is also the argument the driver prices at the asymmetric funding
rates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .benchmark import benchmark_surface, closeout_C, closeout_I, collateral
from .config import ClaimSpec, MarketConfig, reporting_spot
from .grid import GridSpec, SolverConfig, Surface, build_grid
from .pde import solve_semilinear

__all__ = [
    "XvaReport",
    "HedgeSnapshot",
    "TradeSolution",
    "solve_trade",
    "compute_xva",
    "hedge_at",
    "funding_account_0",
]


@dataclass(frozen=True)
class XvaReport:
    """Time-0 valuation summary at one spot."""

    spot: float
    v_hat_0: float
    v_sell_0: float
    v_buy_0: float
    xva_sell: float
    xva_buy: float
    xva_sell_rel: float
    xva_buy_rel: float
    band_width: float
    funding_sell_0: float
    funding_buy_0: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class HedgeSnapshot:
    """Replication portfolio weights and exposures at one point (t, spot).

    xi is the stock position, xi_I / xi_C the own and counterparty bond
    positions, z the volatility-scaled delta exposure, z_I / z_C the
    default jump exposures, and funding_value the unsecured cash balance,
    :func:`funding_account_0` of the side's value at (t, spot).
    """

    t: float
    spot: float
    xi: float
    xi_I: float
    xi_C: float
    z: float
    z_I: float
    z_C: float
    funding_value: float

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class TradeSolution:
    """The market, both wealth surfaces and the shared reference surface."""

    cfg: MarketConfig
    benchmark: Surface
    seller: Surface
    buyer: Surface


def solve_trade(
    claim: ClaimSpec,
    cfg: MarketConfig,
    grid: GridSpec | None = None,
    solver: SolverConfig | None = None,
    allow_arbitrage: bool = False,
    benchmark: Surface | None = None,
) -> TradeSolution:
    """Solve reference, seller, and buyer surfaces on one shared grid."""
    grid = grid or build_grid(claim, cfg)
    solver = solver or SolverConfig()
    bench = benchmark or benchmark_surface(grid, claim, cfg, solver)
    seller = solve_semilinear(claim, cfg, grid, solver, side="seller",
                              benchmark=bench, allow_arbitrage=allow_arbitrage)
    buyer = solve_semilinear(claim, cfg, grid, solver, side="buyer",
                             benchmark=bench, allow_arbitrage=allow_arbitrage)
    return TradeSolution(cfg=cfg, benchmark=bench, seller=seller, buyer=buyer)


def funding_account_0(v_0: float, v_hat_0: float, cfg: MarketConfig) -> float:
    """Time-0 unsecured funding balance of either side's replication of ``v_0``."""
    th_i = closeout_I(v_hat_0, cfg.alpha, cfg.L_I)
    th_c = closeout_C(v_hat_0, cfg.alpha, cfg.L_C)
    return th_i + th_c - v_0 - collateral(v_hat_0, cfg.alpha)


def _relative(adjustment: float, reference: float) -> float:
    if abs(reference) > 1e-12:
        return adjustment / reference
    if abs(adjustment) <= 1e-12:
        return 0.0
    raise ValueError(
        f"relative adjustment undefined: reference {reference} ~ 0 "
        f"but adjustment {adjustment} is not"
    )


def report_from_solution(sol: TradeSolution, spot: float) -> XvaReport:
    """Evaluate the time-0 summary of a solved trade at one spot."""
    v_hat = sol.benchmark.value_at(0.0, spot)
    v_sell = sol.seller.value_at(0.0, spot)
    v_buy = sol.buyer.value_at(0.0, spot)
    xva_sell = v_sell - v_hat
    xva_buy = v_buy - v_hat
    return XvaReport(
        spot=spot,
        v_hat_0=v_hat,
        v_sell_0=v_sell,
        v_buy_0=v_buy,
        xva_sell=xva_sell,
        xva_buy=xva_buy,
        xva_sell_rel=_relative(xva_sell, v_hat),
        xva_buy_rel=_relative(xva_buy, v_hat),
        band_width=xva_sell - xva_buy,
        funding_sell_0=funding_account_0(v_sell, v_hat, sol.cfg),
        funding_buy_0=funding_account_0(v_buy, v_hat, sol.cfg),
    )


def compute_xva(
    claim: ClaimSpec,
    cfg: MarketConfig,
    grid: GridSpec | None = None,
    solver: SolverConfig | None = None,
    spot: float | None = None,
    allow_arbitrage: bool = False,
) -> XvaReport:
    """Time-0 adjustments of both sides at one spot (default: the strike)."""
    sol = solve_trade(claim, cfg, grid, solver, allow_arbitrage=allow_arbitrage)
    return report_from_solution(sol, reporting_spot(claim, spot))


def hedge_at(
    surface: Surface,
    benchmark: Surface,
    cfg: MarketConfig,
    t: float,
    spot: float,
) -> HedgeSnapshot:
    """Replication weights of one side's solved surface at (t, spot).

    The bond positions amortise the default jump exposures at the risky
    growth rate r_D + h_Q of the respective zero-recovery bond.
    """
    if surface.grid != benchmark.grid:
        raise ValueError("surface and benchmark live on different grids")
    w = surface.value_at(t, spot)
    wx = surface.slope_at(t, spot)
    wh = benchmark.value_at(t, spot)
    th_i = closeout_I(wh, cfg.alpha, cfg.L_I)
    th_c = closeout_C(wh, cfg.alpha, cfg.L_C)
    tau = surface.grid.maturity - t
    z_i = th_i - w
    z_c = th_c - w
    return HedgeSnapshot(
        t=t,
        spot=spot,
        xi=wx / spot,
        xi_I=(w - th_i) * math.exp((cfg.r_D + cfg.h_I_Q) * tau),
        xi_C=(w - th_c) * math.exp((cfg.r_D + cfg.h_C_Q) * tau),
        z=cfg.sigma * wx,
        z_I=z_i,
        z_C=z_c,
        funding_value=funding_account_0(w, wh, cfg),
    )
