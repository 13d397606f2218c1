"""Independent cross-check: the binomial-tree BSDE solver.

The tree discretises the same risk-neutral log dynamics on a recombining
lattice with increments (r_D - sigma^2/2) dt +/- sigma sqrt(dt) and equal
branch weights.  The default-free reference rolls back by plain
discounting; the adjusted value solves, at each node, the scalar implicit
relation

    V = E[V'] + dt * ( f(V, Z, theta_I - V, theta_C - V; v_hat)
                       + h_I (theta_I - V) + h_C (theta_C - V)
                       - (h_I + h_C) V + h_I theta_I + h_C theta_C ),

with f the driver of :mod:`xvaband.driver` and Z = (V_up - V_down) /
(2 sqrt(dt)).  Z and v_hat come from the level above, so in the level form
of that module only the funding kink depends on the unknown x = V.  For
side s = +1 (seller) or -1 (buyer), with Y and const_s from
:func:`xvaband.driver.financing_level` (each a linear form in the positive
and negative parts of the level's v_hat, with the side's
:func:`xvaband.driver.level_coefficients` taken once per price: the one
level form the PDE march uses too), the relation reads

    A x + s c (s (Y - x))^+ = B,
    A = 1 + dt (h_I + h_C + (h_I + h_C + 2 r_D - r_f-)),
    c = dt (r_f+ - r_f-),
    B = E[V'] + dt (const_s - m Z / sigma - s s_repo |Z| / sigma),

with (m, s_repo) the repo split of :func:`xvaband.driver.repo_drift_split`.
The left side is piecewise linear in x with slopes A and A - c, so when
min(A, A - c) > 0 it has exactly one root: x = B / A where s (B - A Y) >= 0
(the funding kink is off) and x = (B - c Y) / (A - c) elsewhere.  Each
level is solved in closed form, with no iteration; a market with
min(A, A - c) <= 0 is rejected.  This shares no spatial discretisation,
no boundary policy, and no time stepper with the PDE path, which makes it
a genuinely independent price check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ClaimSpec, MarketConfig
from .driver import (
    financing_level,
    funding_spread,
    level_coefficients,
    linear_rate,
    repo_drift_split,
)

__all__ = ["TreeSpec", "tree_bsde_price"]


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


def _solve_level(e, z, wh, dt: float, cfg: MarketConfig, side: int,
                 coefficients: tuple, a: float, c: float,
                 repo: tuple[float, float]) -> np.ndarray:
    """Node values of one level from E[V'], Z and v_hat, by the branch solve;
    ``coefficients`` are the side's :func:`level_coefficients`, ``a`` and
    ``c`` the node equation's A and c, and ``repo`` the
    :func:`repo_drift_split` (m, s_repo), all taken once per price.

    Assumes min(A, A - c) > 0 (checked by :func:`tree_bsde_price`).
    """
    m, s_repo = repo
    y, b = financing_level(coefficients, wh)
    b -= (m * z + (side * s_repo) * np.abs(z)) / cfg.sigma
    b *= dt
    b += e
    a_y = a * y
    kink_off = b >= a_y if side > 0 else b <= a_y
    return np.where(kink_off, b / a, (b - c * y) / (a - c))


def tree_bsde_price(spec: TreeSpec, side: str = "seller") -> float:
    """Time-0 adjusted value of one side on the recombining tree.

    Raises ``ValueError`` when the node equation is ill-posed, i.e. when
    min(A, A - c) <= 0 (see the module docstring): then a node may have
    two roots or none.
    """
    if side not in ("seller", "buyer"):
        raise ValueError(f"side must be 'seller' or 'buyer', got {side!r}")
    cfg = spec.cfg
    n = spec.n_steps
    dt = spec.claim.maturity / n
    a = 1.0 + dt * (cfg.h_I_Q + cfg.h_C_Q + linear_rate(cfg))
    c = dt * funding_spread(cfg)
    if min(a, a - c) <= 0.0:
        # A and c are the same on every level, so the first level solved fails
        raise ValueError(
            f"tree node equation is ill-posed for the {side} at level {n - 1}: "
            f"A = {a:.6g}, A - c = {a - c:.6g} (both must be positive; "
            "refine n_steps)"
        )
    sq_dt = math.sqrt(dt)
    drift = (cfg.r_D - 0.5 * cfg.sigma * cfg.sigma) * dt
    j = np.arange(n + 1)
    x_t = math.log(spec.spot) + n * drift + cfg.sigma * sq_dt * (2.0 * j - n)
    v = np.array(spec.claim.payoff(np.exp(x_t)), dtype=float)
    s = +1 if side == "seller" else -1
    coefficients = level_coefficients(cfg, s)
    repo = repo_drift_split(cfg)
    half_disc = 0.5 * math.exp(-cfg.r_D * dt)
    vh = v.copy()
    for k in range(n - 1, -1, -1):
        hi = v[1:k + 2]
        lo = v[0:k + 1]
        e = 0.5 * (hi + lo)
        z = (hi - lo) / (2.0 * sq_dt)
        wh = half_disc * (vh[1:k + 2] + vh[0:k + 1])
        v[0:k + 1] = _solve_level(e, z, wh, dt, cfg, s, coefficients, a, c, repo)
        vh[0:k + 1] = wh
    return float(v[0])
