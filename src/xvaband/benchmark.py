"""Default-free reference value: Black-Scholes in closed form and on the lattice.

The reference value discounts the terminal payoff at the domestic rate
under the risk-neutral dynamics dS/S = r_D dt + sigma dW, i.e. it solves

    w_t + (r_D - sigma^2/2) w_x + (sigma^2/2) w_xx - r_D w = 0

in log space.  It is the mark used for collateral calls and default
close-out (:func:`xvaband.driver.closeouts`).

:func:`benchmark_surface` marches the reference with the semilinear
solve's march, so its :class:`xvaband.grid.Surface` holds v_hat at every
level that solve reads, the Rannacher half level included, and fixes
that solve's lattice.
"""

from __future__ import annotations

import math

from scipy.special import ndtr

from .config import ClaimSpec, MarketConfig
from .grid import GridSpec, SolverConfig, Surface
from .pde import march_schedule, terminal_slice

__all__ = [
    "bs_closed_form",
    "benchmark_surface",
]


def bs_closed_form(t: float, s: float, claim: ClaimSpec, r: float, sigma: float) -> float:
    """Black-Scholes value of a vanilla call/put at (t, spot).

    Phi is :func:`scipy.special.ndtr`, the function
    ``scipy.stats.norm.cdf`` evaluates, so the value is bitwise the
    ``norm.cdf`` formula's.  Custom payoffs are rejected; degenerate
    sigma*sqrt(T - t) collapses to the discounted intrinsic on the forward.
    """
    if claim.kind not in ("call", "put"):
        raise ValueError(f"closed form requires a call or put, got {claim.kind!r}")
    if s <= 0.0:
        raise ValueError(f"spot must be positive, got {s}")
    if not 0.0 <= t <= claim.maturity:
        raise ValueError(f"t = {t} outside [0, {claim.maturity}]")
    k = claim.strike
    tau = claim.maturity - t
    if tau == 0.0:
        return float(claim.payoff(s))
    vol = sigma * math.sqrt(tau)
    df = math.exp(-r * tau)
    if vol < 1e-8:
        fwd = s / df
        intrinsic = max(fwd - k, 0.0) if claim.kind == "call" else max(k - fwd, 0.0)
        return df * intrinsic
    d1 = (math.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / vol
    d2 = d1 - vol
    if claim.kind == "call":
        return float(s * ndtr(d1) - k * df * ndtr(d2))
    return float(k * df * ndtr(-d2) - s * ndtr(-d1))


def benchmark_surface(
    grid: GridSpec,
    claim: ClaimSpec,
    cfg: MarketConfig,
    solver: SolverConfig | None = None,
) -> Surface:
    """Solve the default-free reference PDE on the shared schedule.

    Uses the same stepper, schedule, and boundary policy as the semilinear
    solve so that in the symmetric-rate zero-loss limit the two solves
    coincide on the lattice up to rounding.  The wealth solves on the
    result (:func:`xvaband.pde.solve_sides`) reuse its ``grid`` and
    ``solver``.
    """
    solver = solver or SolverConfig()
    a = cfg.r_D - 0.5 * cfg.sigma * cfg.sigma
    (surf,) = march_schedule(
        terminal_slice(claim, grid), grid, solver,
        a_eff=a, b=0.5 * cfg.sigma * cfg.sigma, kappa=cfg.r_D, terms=None,
    )
    return surf
