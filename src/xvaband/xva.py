"""Valuation adjustments, replication weights, and the funding account.

The adjusted values of the two sides bracket a no-arbitrage band around
the default-free reference: the seller's total adjustment is
``xva_sell = v_sell_0 - v_hat_0``, the buyer's is ``xva_buy = v_buy_0 -
v_hat_0``, and ``band_width = xva_sell - xva_buy >= 0``.  The time-0
funding account reported for either side is the cash left after buying
the two default-protection bond legs and posting collateral,

    funding_0 = Y(v_hat_0) - v_0,   Y = theta_I + theta_C - alpha*v_hat,

which is also the argument the driver prices at the asymmetric funding
rates; ``Y`` comes from :func:`xvaband.driver.financing_level` and the
hedge's close-outs from :func:`xvaband.driver.closeouts`, the solvers'
split form.  :func:`solve_trade` takes the reference from the caller's map
or marches it, and then both sides in one march on its lattice
(:func:`xvaband.pde.solve_sides`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .benchmark import benchmark_surface
from .config import ClaimSpec, MarketConfig
from .driver import closeouts, financing_level, level_coefficients
from .grid import GridSpec, SolverConfig, Surface, build_grid, reporting_spot
from .pde import solve_sides

__all__ = [
    "XvaReport",
    "HedgeSnapshot",
    "TradeSolution",
    "solve_trade",
    "compute_xva",
    "report_from_solution",
    "hedge_at",
    "funding_account_0",
]


@dataclass(frozen=True)
class XvaReport:
    """Time-0 valuation summary at one spot; a relative adjustment is None
    where the reference vanishes and the adjustment does not."""

    spot: float
    v_hat_0: float
    v_sell_0: float
    v_buy_0: float
    xva_sell: float
    xva_buy: float
    xva_sell_rel: float | None
    xva_buy_rel: float | None
    band_width: float
    funding_sell_0: float
    funding_buy_0: float

    def to_dict(self) -> dict[str, float | None]:
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
    references: dict | None = None,
) -> TradeSolution:
    """Solve reference, seller, and buyer surfaces on one shared grid; the
    two sides march side by side from the reference's terminal row.

    ``references`` is a map the caller keeps (say, one per sweep) of the
    reference surfaces solved so far, keyed by everything
    :func:`~xvaband.benchmark.benchmark_surface` reads: the grid, the claim,
    the solver and the market's ``r_D`` and ``sigma``.  A miss marches the
    reference and stores it, so trades that share the key share one march.
    """
    grid = grid or build_grid(claim, cfg)
    solver = solver or SolverConfig()
    references = {} if references is None else references
    key = (grid, claim, solver, cfg.r_D, cfg.sigma)
    if key not in references:
        references[key] = benchmark_surface(grid, claim, cfg, solver)
    bench = references[key]
    seller, buyer = solve_sides(cfg, bench, allow_arbitrage=allow_arbitrage)
    return TradeSolution(cfg=cfg, benchmark=bench, seller=seller, buyer=buyer)


def funding_account_0(v_0: float, v_hat_0: float, cfg: MarketConfig) -> float:
    """Time-0 unsecured funding balance of either side's replication of ``v_0``:
    ``Y(v_hat_0) - v_0``.  ``Y`` is the same for both sides, so the seller's
    coefficients serve the buyer too."""
    y, _ = financing_level(level_coefficients(cfg, +1), v_hat_0)
    return float(y) - v_0


def _relative(adjustment: float, reference: float) -> float | None:
    """``adjustment / reference``; 0 where both vanish, and None (a JSON
    null, a blank sweep cell) where only the reference does."""
    if abs(reference) > 1e-12:
        return adjustment / reference
    if abs(adjustment) <= 1e-12:
        return 0.0
    return None


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
    """Time-0 adjustments of both sides at one spot (default: the strike),
    which must lie on the lattice; it is checked before any march."""
    grid = grid or build_grid(claim, cfg)
    spot = reporting_spot(claim, grid, spot)
    sol = solve_trade(claim, cfg, grid, solver, allow_arbitrage=allow_arbitrage)
    return report_from_solution(sol, spot)


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
    th_i, th_c = (float(th) for th in closeouts(cfg, wh))
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


# Only the frozen perfbench tracer looks this name up, and nothing calls it;
# the binding goes with ROADMAP item 7.
solve_semilinear = solve_sides
