"""Independent cross-checks: binomial-tree BSDE solver, symmetric residual.

The tree discretises the same risk-neutral log dynamics on a recombining
lattice with increments (r_D - sigma^2/2) dt +/- sigma sqrt(dt) and equal
branch weights.  The default-free reference rolls back by plain
discounting; the adjusted value solves, at each node, the scalar implicit
relation

    V = E[V'] + dt * ( f(V, Z, theta_I - V, theta_C - V; v_hat)
                       - (h_I + h_C) V + h_I theta_I + h_C theta_C ),

with Z = (V_up - V_down) / (2 sqrt(dt)), by fixed-point iteration.  This
shares no spatial discretisation, no boundary policy, and no time stepper
with the PDE path, which makes it a genuinely independent price check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .benchmark import benchmark_surface, closeout_C, closeout_I
from .config import ClaimSpec, MarketConfig
from .driver import driver_value
from .grid import GridSpec, SolverConfig
from .pde import solve_semilinear

__all__ = ["TreeSpec", "tree_bsde_price", "symmetric_case_residual"]


@dataclass(frozen=True)
class TreeSpec:
    """Recombining-tree discretisation of one claim under one market."""

    n_steps: int
    claim: ClaimSpec
    cfg: MarketConfig
    spot: float = 1.0

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not math.isfinite(self.spot) or self.spot <= 0.0:
            raise ValueError(f"spot must be positive, got {self.spot}")


def _tree_reference(v, vh, dt, sq_dt, cfg: MarketConfig, side: int,
                    tol: float, max_iter: int) -> tuple[float, float]:
    disc = math.exp(-cfg.r_D * dt)
    kill = cfg.h_I_Q + cfg.h_C_Q
    n = v.size - 1
    for k in range(n - 1, -1, -1):
        hi = v[1:k + 2]
        lo = v[0:k + 1]
        e = 0.5 * (hi + lo)
        z = (hi - lo) / (2.0 * sq_dt)
        wh = disc * 0.5 * (vh[1:k + 2] + vh[0:k + 1])
        th_i = closeout_I(wh, cfg.alpha, cfg.L_I)
        th_c = closeout_C(wh, cfg.alpha, cfg.L_C)
        src = cfg.h_I_Q * th_i + cfg.h_C_Q * th_c
        # tol is relative once the level's values exceed 1: at 2000 steps the
        # top nodes of a sigma = 0.3 call reach ~6e5, where one float step
        # is ~1e-10
        atol = tol * max(1.0, float(np.abs(e).max()))
        x = e.copy()
        for _ in range(max_iter):
            f = driver_value(side, x, z, th_i - x, th_c - x, wh, cfg)
            # Same intensity-adjusted financing of the default legs as the
            # PDE source (see pde.SemilinearTerms).
            f = f + cfg.h_I_Q * (th_i - x) + cfg.h_C_Q * (th_c - x)
            x_new = e + dt * (f - kill * x + src)
            d = float(np.max(np.abs(x_new - x)))
            x = x_new
            if d < atol:
                break
        else:
            raise RuntimeError(
                f"tree fixed point did not converge at level {k} (update {d:.3e})"
            )
        v[0:k + 1] = x
        vh[0:k + 1] = wh
    return float(v[0]), float(vh[0])


def tree_bsde_price(
    spec: TreeSpec,
    side: str = "seller",
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Time-0 adjusted value of one side on the recombining tree.

    Each node's fixed point stops once its update is below ``tol`` times
    the larger of 1 and the level's largest expected value.
    """
    if side not in ("seller", "buyer"):
        raise ValueError(f"side must be 'seller' or 'buyer', got {side!r}")
    cfg = spec.cfg
    n = spec.n_steps
    dt = spec.claim.maturity / n
    sq_dt = math.sqrt(dt)
    drift = (cfg.r_D - 0.5 * cfg.sigma * cfg.sigma) * dt
    j = np.arange(n + 1)
    x_t = math.log(spec.spot) + n * drift + cfg.sigma * sq_dt * (2.0 * j - n)
    v_t = np.asarray(spec.claim.payoff(np.exp(x_t)), dtype=float)
    side_flag = +1 if side == "seller" else -1

    v0, _ = _tree_reference(v_t.copy(), v_t.copy(), dt, sq_dt, cfg, side_flag,
                            tol, max_iter)
    return v0


def symmetric_case_residual(
    claim: ClaimSpec,
    cfg: MarketConfig,
    grid: GridSpec,
    solver: SolverConfig | None = None,
) -> float:
    """Max lattice distance between adjusted and reference surfaces when
    every financing rate collapses to r_D and close-out losses vanish.

    In that limit the adjusted equation reduces to the reference equation,
    so the residual measures pure solver noise.  Configs outside the limit
    are rejected.
    """
    sym = (
        cfg.r_f_plus == cfg.r_D == cfg.r_f_minus
        and cfg.r_r_plus == cfg.r_D == cfg.r_r_minus
        and cfg.r_c_plus == cfg.r_D == cfg.r_c_minus
        and cfg.L_I == 0.0 == cfg.L_C
    )
    if not sym:
        raise ValueError(
            "symmetric-case residual requires all financing rates equal to r_D "
            "and zero close-out losses"
        )
    solver = solver or SolverConfig()
    bench = benchmark_surface(grid, claim, cfg, solver)
    sell = solve_semilinear(claim, cfg, grid, solver, side="seller", benchmark=bench)
    return float(np.max(np.abs(sell.values - bench.values)))
