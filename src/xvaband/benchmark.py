"""Default-free reference value: Black-Scholes in closed form and on the lattice.

The reference value discounts the terminal payoff at the domestic rate
under the risk-neutral dynamics dS/S = r_D dt + sigma dW, i.e. it solves

    w_t + (r_D - sigma^2/2) w_x + (sigma^2/2) w_xx - r_D w = 0

in log space.  It is the mark used for collateral calls and default
close-out (:func:`xvaband.driver.closeouts`).

:func:`benchmark_surface` marches the reference from the claim's payoff on
the PDE lattice (:func:`terminal_row`, the one place the two meet) with the
semilinear solve's march, so its :class:`xvaband.grid.Surface` holds v_hat
at every level that solve reads, the Rannacher half level included, and
fixes that solve's lattice and terminal row.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ClaimSpec, MarketConfig, _require_finite, _require_positive
from .driver import equation_coefficients
from .grid import GridSpec, SolverConfig, Surface
from .pde import march_schedule

__all__ = [
    "bs_closed_form",
    "benchmark_surface",
    "terminal_row",
]


def bs_closed_form(t: float, s: float, claim: ClaimSpec, r: float, sigma: float) -> float:
    """Black-Scholes value of a vanilla call/put at (t, spot).

    Custom payoffs, a spot or sigma that is not positive and finite, a
    non-finite r and a t outside [0, T] are rejected.  The one special case
    is sigma*sqrt(T - t) < 1e-8, t = T included: the value is then the
    discounted payoff of the forward, ``df * payoff(spot / df)``, which at
    t = T is the payoff itself.  Otherwise Phi is
    :func:`scipy.special.ndtr`, the function ``scipy.stats.norm.cdf``
    evaluates, so the value is bitwise the ``norm.cdf`` formula's; it is
    imported on the first call that reaches it.
    """
    if claim.kind not in ("call", "put"):
        raise ValueError(f"closed form requires a call or put, got {claim.kind!r}")
    _require_positive("spot", s)
    _require_finite("r", r)
    _require_positive("sigma", sigma)
    _require_finite("t", t)
    if not 0.0 <= t <= claim.maturity:
        raise ValueError(f"t outside [0, {claim.maturity}], got {t}")
    k = claim.strike
    tau = claim.maturity - t
    vol = sigma * math.sqrt(tau)
    df = math.exp(-r * tau)
    if vol < 1e-8:
        return df * claim.payoff(s / df)
    # imported here: no solve calls Phi, so `import xvaband` skips scipy.special
    from scipy.special import ndtr

    d1 = (math.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / vol
    d2 = d1 - vol
    if claim.kind == "call":
        return float(s * ndtr(d1) - k * df * ndtr(d2))
    return float(k * df * ndtr(-d2) - s * ndtr(-d1))


def terminal_row(grid: GridSpec, claim: ClaimSpec) -> np.ndarray:
    """``claim``'s payoff on ``grid``'s nodes, the terminal row of its
    reference and of both sides; the maturities must agree."""
    if abs(claim.maturity - grid.maturity) > 1e-12:
        raise ValueError(f"claim maturity {claim.maturity} != grid maturity {grid.maturity}")
    return claim.payoff(np.exp(grid.x_nodes()))


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
    result (:func:`xvaband.pde.solve_sides`) reuse its ``grid``, its
    ``solver`` and its terminal row, the claim's payoff on the nodes.
    """
    w_terminal = terminal_row(grid, claim)
    solver = solver or SolverConfig()
    eq = equation_coefficients(cfg)
    (surf,) = march_schedule(
        w_terminal, grid, solver,
        a_eff=eq.drift, b=eq.b, kappa=cfg.r_D, terms=None,
    )
    return surf
