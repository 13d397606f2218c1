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
    A = 1 + dt kappa,   c = dt (r_f+ - r_f-),
    B = E[V'] + dt (const_s - m Z / sigma - s s_repo |Z| / sigma),

with kappa, the spread and the repo split (m, s_repo) from
:func:`xvaband.driver.equation_coefficients`, taken once per price.

Three-point stencil.  E[V'] and Z are linear in (V_up, V_down), so with
d = V_up - V_down, mu = dt m / (2 sqrt(dt) sigma) and nu = dt s s_repo /
(2 sqrt(dt) sigma),

    B = dt const_s + V_down + (1/2 - mu) d - nu |d|,
    (1/2 - mu) d - nu |d| = min((1/2 - mu - nu) d, (1/2 - mu + nu) d)

for nu >= 0, and the max of the two for nu < 0.

Min/max root.  When s c >= 0 the left side of the relation is the max of
the two lines A x and (A - c) x + c Y, and when s c < 0 it is their min.
Both lines increase when min(A, A - c) > 0, and then the relation has
exactly one root, the min (or the max) of the two lines' roots:

    x = min(B / A, (B - c Y) / (A - c))   (max when s c < 0).

Each level is solved in closed form, with no iteration and no branch
mask; a market with min(A, A - c) <= 0 is rejected.

The rollback is truncated at 10 sigma sqrt(T) from the centre line: level k
solves only the nodes j with |2j - k| <= ceil(10 sqrt(n)), n the step
count.  Nodes outside that window keep the values the level above wrote,
which the window's edge nodes read as their missing children; they weigh
below about e^-50 on the root, and a tree of n <= 100 steps is not
truncated at all.  This boundary shares nothing with the PDE's
zero-curvature closure.

The reference never reads V, so it rolls back a block of 16 levels ahead
of V, each level's window into one row of a 2-D buffer; Y and const_s come
from one pass over the block, which scales them to c Y and dt const_s in
place.  Each level's own work is then the ten numpy calls of
:func:`_solve_level`, which write straight into the level's nodes.  Every
operation stays elementwise and in the level-by-level order, so the
prices are bitwise those of a level-at-a-time rollback.

The tree shares no spatial discretisation, no boundary policy, and no
time stepper with the PDE path, which makes it a genuinely independent
price check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ClaimSpec, MarketConfig, _require_count, _require_positive, _side_sign
from .driver import equation_coefficients, financing_level, level_coefficients

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
        _require_positive("spot", self.spot)


class _LevelForm(NamedTuple):
    """One side's node equation at one step length, taken once per price
    (see the module docstring)."""

    w_minus: float  # 1/2 - mu - nu, the weight of d on one stencil line
    w_plus: float   # 1/2 - mu + nu, on the other
    stencil: np.ufunc  # np.minimum where nu >= 0, else np.maximum
    a: float
    a_c: float      # A - c
    c: float
    root: np.ufunc  # np.minimum where s c >= 0, else np.maximum


def _level_form(eq, sigma: float, side: int, dt: float) -> _LevelForm:
    """The stencil weights, A, c and the two min/max choices of side
    ``side`` (+1 seller, -1 buyer) at step length ``dt``, in a market of
    :func:`~xvaband.driver.equation_coefficients` ``eq`` and volatility ``sigma``."""
    a = 1.0 + dt * eq.kappa
    c = dt * eq.spread
    per_d = dt / (2.0 * math.sqrt(dt) * sigma)
    mu = per_d * eq.m
    nu = per_d * (side * eq.s_repo)
    return _LevelForm(
        w_minus=0.5 - mu - nu,
        w_plus=0.5 - mu + nu,
        stencil=np.minimum if nu >= 0.0 else np.maximum,
        a=a,
        a_c=a - c,
        c=c,
        root=np.minimum if side * c >= 0.0 else np.maximum,
    )


def _solve_level(lo: np.ndarray, hi: np.ndarray, dt_const: np.ndarray,
                 c_y: np.ndarray, form: _LevelForm) -> None:
    """Overwrite ``lo`` (each node's V_down) with the level's node values.

    ``hi`` holds each node's V_up (in the rollback, ``lo`` shifted by one
    node), ``dt_const`` and ``c_y`` the level's dt const_s and c Y rows:
    B is the three-point stencil of the module docstring and x its min/max
    root, in ten numpy calls that write x straight into ``lo``.  Assumes min(A, A - c) > 0 (checked
    by :func:`tree_bsde_price`).
    """
    w_minus, w_plus, stencil, a, a_c, _, root = form
    d = hi - lo
    t = d * w_minus
    d *= w_plus
    stencil(t, d, out=d)
    d += dt_const
    lo += d  # B
    np.divide(lo, a, out=t)
    lo -= c_y
    lo /= a_c
    root(lo, t, out=lo)


def tree_bsde_price(spec: TreeSpec, side: str = "seller") -> float:
    """Time-0 adjusted value of one side on the recombining tree.

    Raises ``ValueError`` when the node equation is ill-posed, i.e. when
    min(A, A - c) <= 0 (see the module docstring): then a node may have
    two roots or none.
    """
    s = _side_sign(side)
    cfg = spec.cfg
    n = spec.n_steps
    dt = spec.claim.maturity / n
    eq = equation_coefficients(cfg)
    form = _level_form(eq, cfg.sigma, s, dt)
    if min(form.a, form.a_c) <= 0.0:
        # A and c are the same on every level, so the first level solved fails
        raise ValueError(
            f"tree node equation is ill-posed for the {side} at level {n - 1}: "
            f"A = {form.a:.6g}, A - c = {form.a_c:.6g} (both must be positive; "
            "refine n_steps)"
        )
    sq_dt = math.sqrt(dt)
    drift = eq.drift * dt
    j = np.arange(n + 1)
    x_t = math.log(spec.spot) + n * drift + cfg.sigma * sq_dt * (2.0 * j - n)
    v = np.array(spec.claim.payoff(np.exp(x_t)), dtype=float)
    coefficients = level_coefficients(cfg, s)
    half_disc = 0.5 * math.exp(-cfg.r_D * dt)
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
        c_y, dt_const = financing_level(coefficients, wh_rows[:len(windows)])
        c_y *= form.c
        dt_const *= dt
        for i, (j0, j1) in enumerate(windows):
            row = slice(0, j1 - j0 + 1)
            _solve_level(v[j0:j1 + 1], v[j0 + 1:j1 + 2], dt_const[i, row],
                         c_y[i, row], form)
    return float(v[0])
