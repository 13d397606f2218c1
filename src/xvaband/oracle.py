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
min(A, A - c) <= 0 is rejected.

The rollback is truncated at 10 sigma sqrt(T) from the centre line: level k
solves only the nodes j with |2j - k| <= ceil(10 sqrt(n)), n the step
count.  Nodes outside that window keep the values the level above wrote,
which the window's edge nodes read as their missing children; they weigh
below about e^-50 on the root, and a tree of n <= 100 steps is not
truncated at all.  This boundary shares nothing with the PDE's
zero-curvature closure.

The reference never reads V, so it rolls back a block of 16 levels ahead
of V, each level's window into one row of a 2-D buffer; Y, const_s, A Y
and c Y then come from one pass over the block, and each level's own loop
keeps only what needs V: E[V'], Z, B and the branch choice.  Every
operation stays elementwise and in the level-by-level order, so the
prices are bitwise those of a level-at-a-time rollback.

The tree shares no spatial discretisation, no boundary policy, and no
time stepper with the PDE path, which makes it a genuinely independent
price check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ClaimSpec, MarketConfig, _require_count, _require_number
from .driver import (
    financing_level,
    funding_spread,
    level_coefficients,
    linear_rate,
    repo_drift_split,
)

__all__ = ["TreeSpec", "tree_bsde_price"]

# half-width of the rolled-back window, in units of sigma sqrt(T)
_WINDOW_SIGMAS = 10.0
# levels whose reference terms are taken together, in one 2-D pass
_BLOCK_LEVELS = 16


@dataclass(frozen=True)
class TreeSpec:
    """Recombining-tree discretisation of one claim under one market."""

    n_steps: int
    claim: ClaimSpec
    cfg: MarketConfig
    spot: float = 1.0

    def __post_init__(self) -> None:
        _require_count("n_steps", self.n_steps)
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        _require_number("spot", self.spot)
        if not math.isfinite(self.spot) or self.spot <= 0.0:
            raise ValueError(f"spot must be positive, got {self.spot}")


def _solve_level(e, z, const, a_y, c_y, dt: float, cfg: MarketConfig,
                 side: int, a: float, c: float,
                 repo: tuple[float, float]) -> np.ndarray:
    """Node values of one level from E[V'], Z and the level's reference
    rows, by the branch solve: ``const`` is const_s of
    :func:`financing_level` (overwritten with B), ``a_y`` and ``c_y`` are
    A Y and c Y, ``a`` and ``c`` the node equation's A and c, and ``repo``
    the :func:`repo_drift_split` (m, s_repo), all taken once per price.

    Assumes min(A, A - c) > 0 (checked by :func:`tree_bsde_price`).
    """
    m, s_repo = repo
    b = const
    b -= (m * z + (side * s_repo) * np.abs(z)) / cfg.sigma
    b *= dt
    b += e
    kink_off = b >= a_y if side > 0 else b <= a_y
    x = b - c_y
    x /= a - c
    np.divide(b, a, out=x, where=kink_off)
    return x


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
    two_sq_dt = 2.0 * sq_dt
    vh = v.copy()
    # the window's half-width in units of sigma sqrt(dt), the spacing of 2j - k
    w = math.ceil(_WINDOW_SIGMAS * math.sqrt(n))
    # zeroed once: a row's nodes past its level's window hold finite stale
    # values, which the block's financing pass reads but no level uses
    wh_rows = np.zeros((_BLOCK_LEVELS, min(n, w) + 1))
    for top in range(n - 1, -1, -_BLOCK_LEVELS):
        # roll the reference through the block, one level's window per row
        windows = []
        for i, k in enumerate(range(top, max(top - _BLOCK_LEVELS, -1), -1)):
            j0 = max(0, -((w - k) // 2))  # ceil((k - w) / 2)
            j1 = min(k, (k + w) // 2)
            wh = wh_rows[i, :j1 - j0 + 1]
            np.add(vh[j0 + 1:j1 + 2], vh[j0:j1 + 1], out=wh)
            wh *= half_disc
            vh[j0:j1 + 1] = wh
            windows.append((j0, j1))
        y, const = financing_level(coefficients, wh_rows[:len(windows)])
        a_y = a * y
        c_y = c * y
        for i, (j0, j1) in enumerate(windows):
            hi = v[j0 + 1:j1 + 2]
            lo = v[j0:j1 + 1]
            e = hi + lo
            e *= 0.5
            z = hi - lo
            z /= two_sq_dt
            row = slice(0, j1 - j0 + 1)
            v[j0:j1 + 1] = _solve_level(e, z, const[i, row], a_y[i, row],
                                        c_y[i, row], dt, cfg, s, a, c, repo)
    return float(v[0])
