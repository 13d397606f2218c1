"""Asymmetric financing rates and the nonlinear drivers of the hedger's wealth.

The seller's driver aggregates the running financing costs of a replicating
portfolio: unsecured funding on the cash account (different rates for long
and short balances), repo financing of the stock leg, remuneration of the
collateral account, and the domestic-rate carry of the two default-risky
bond positions.  With ``y = v + z_I + z_C - alpha*v_hat`` the funding
balance and ``c = alpha*v_hat`` the collateral account,

    f_seller = -( r_f_plus*y^+ - r_f_minus*y^-
                  + ((r_D - r_r_minus)*z^+ - (r_D - r_r_plus)*z^-)/sigma
                  - r_D*z_I - r_D*z_C
                  + r_c_plus*c^+ - r_c_minus*c^- )

and the buyer's driver is the reflection ``f_buyer(v, z, z_I, z_C; v_hat)
= -f_seller(-v, -z, -z_I, -z_C; -v_hat)``.  Both are piecewise linear,
hence globally Lipschitz, and coincide when all plus/minus rate pairs are
symmetric.  :func:`driver_value` evaluates either side on arrays.

Level form.  Both solvers (the PDE march and the tree oracle) price the
driver together with the intensity-adjusted carry ``h_I z_I + h_C z_C``
of the default legs and the settlement inflow ``h_I theta_I + h_C
theta_C``, where the jump exposures are ``z_j = theta_j - v`` for the
close-outs theta_I, theta_C of v_hat.  For side ``s = +1`` (seller) or
``-1`` (buyer) write each charge as ``s X(s u)``, with

    F(u) = r_f+ u^+ - r_f- u^- = r_f- u + (r_f+ - r_f-) u^+,
    R(u) = ((r_D - r_r-) u^+ - (r_D - r_r+) u^-) / sigma,
    C(u) = r_c+ u^+ - r_c- u^-,

so that ``f_s = -s F(s y) - s R(s z) + r_D (z_I + z_C) - s C(s alpha
v_hat)``.  With ``theta = theta_I + theta_C`` and ``Y = theta - alpha
v_hat`` the funding balance is ``y = Y - v``, and the sum is

    const_s - (h_I + h_C + 2 r_D - r_f-) v - s (r_f+ - r_f-) (s (Y - v))^+
    - s R(s z),

    const_s = 2 (h_I theta_I + h_C theta_C) + r_D theta
              - s C(s alpha v_hat) - r_f- Y.

Only v_hat enters ``Y`` and ``const_s`` (:func:`financing_level`); the
side enters ``const_s`` through the collateral rates alone.  The linear
rate (:func:`linear_rate`) and the funding spread (:func:`funding_spread`)
are the same for both sides, and ``s R(s z) = m z/sigma + s s_repo
|z|/sigma`` with ``(m, s_repo)`` from :func:`repo_drift_split`.

Split form.  Each of theta_I, theta_C and alpha v_hat is linear on each
sign of v_hat (``alpha`` lies in [0, 1], so ``alpha v_hat`` has the sign of
v_hat), so with ``p = max(v_hat, 0)`` and ``n = v_hat - p``,

    k_I = 1 - L_I (1 - alpha),   k_C = 1 - L_C (1 - alpha),
    theta_I = k_I p + n,         theta_C = p + k_C n,
    s C(s alpha v_hat) = alpha (r_pos p + r_neg n),

where ``(r_pos, r_neg)`` is ``(r_c+, r_c-)`` for the seller and ``(r_c-,
r_c+)`` for the buyer.  Both level terms are then one linear form in
``(p, n)``:

    Y       = y_p p + y_n n,   y_p = 1 + k_I - alpha,   y_n = 1 + k_C - alpha,
    const_s = c_p p + c_n n,
    c_p = 2 h_I k_I + 2 h_C + r_D (1 + k_I) - alpha r_pos - r_f- y_p,
    c_n = 2 h_I + 2 h_C k_C + r_D (1 + k_C) - alpha r_neg - r_f- y_n.

:func:`financing_level` evaluates these two forms, eight array passes
per level against about 25 for the close-outs term by term.
"""

from __future__ import annotations

import numpy as np

from .config import MarketConfig

__all__ = [
    "driver_value",
    "financing_level",
    "funding_spread",
    "linear_rate",
    "repo_drift_split",
]


def driver_value(side: int, v, z, z_i, z_c, v_hat, cfg: MarketConfig):
    """Array-friendly driver for either side: side=+1 seller, -1 buyer."""
    if side < 0:
        return -driver_value(
            +1, np.negative(v), np.negative(z), np.negative(z_i), np.negative(z_c),
            np.negative(v_hat), cfg,
        )
    y = v + z_i + z_c - cfg.alpha * v_hat
    c = cfg.alpha * v_hat
    fund = cfg.r_f_plus * np.maximum(y, 0.0) - cfg.r_f_minus * np.maximum(-y, 0.0)
    repo = (
        (cfg.r_D - cfg.r_r_minus) * np.maximum(z, 0.0)
        - (cfg.r_D - cfg.r_r_plus) * np.maximum(-z, 0.0)
    ) / cfg.sigma
    coll = cfg.r_c_plus * np.maximum(c, 0.0) - cfg.r_c_minus * np.maximum(-c, 0.0)
    return -(fund + repo - cfg.r_D * z_i - cfg.r_D * z_c + coll)


def repo_drift_split(cfg: MarketConfig) -> tuple[float, float]:
    """Split the repo term of the driver into linear and kink parts.

    In terms of the log-space slope ``w_x = z / sigma`` the repo charge is
    ``m*w_x + s*|w_x|`` with ``m = (2 r_D - r_r_plus - r_r_minus)/2`` and
    ``s = (r_r_plus - r_r_minus)/2``.  The linear part is folded into the
    PDE convection coefficient, so the march's operator carries it; the
    kink part (zero for symmetric repo rates) stays in the nonlinear driver,
    where the branch solve freezes its sign.
    """
    m = 0.5 * (2.0 * cfg.r_D - cfg.r_r_plus - cfg.r_r_minus)
    s = 0.5 * (cfg.r_r_plus - cfg.r_r_minus)
    return m, s


def linear_rate(cfg: MarketConfig) -> float:
    """Rate ``h_I + h_C + 2 r_D - r_f-`` at which the level form discounts v."""
    return cfg.h_I_Q + cfg.h_C_Q + 2.0 * cfg.r_D - cfg.r_f_minus


def funding_spread(cfg: MarketConfig) -> float:
    """Slope ``r_f+ - r_f-`` of the funding kink of the level form."""
    return cfg.r_f_plus - cfg.r_f_minus


def financing_level(side: int, cfg: MarketConfig,
                    v_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Y, const_s)`` of the level form for the reference values ``v_hat``.

    ``Y = theta_I + theta_C - alpha v_hat`` is the funding balance at
    v = 0 and ``const_s`` the part of the level form that does not depend
    on v or z; side=+1 seller, -1 buyer.  Both come from the split form of
    the module docstring and are fresh arrays the caller may overwrite.
    """
    a = cfg.alpha
    k_i = 1.0 - cfg.L_I * (1.0 - a)
    k_c = 1.0 - cfg.L_C * (1.0 - a)
    y_p = 1.0 + k_i - a
    y_n = 1.0 + k_c - a
    r_pos, r_neg = ((cfg.r_c_plus, cfg.r_c_minus) if side > 0
                    else (cfg.r_c_minus, cfg.r_c_plus))
    c_p = (2.0 * cfg.h_I_Q * k_i + 2.0 * cfg.h_C_Q + cfg.r_D * (1.0 + k_i)
           - a * r_pos - cfg.r_f_minus * y_p)
    c_n = (2.0 * cfg.h_I_Q + 2.0 * cfg.h_C_Q * k_c + cfg.r_D * (1.0 + k_c)
           - a * r_neg - cfg.r_f_minus * y_n)
    p = np.maximum(v_hat, 0.0)
    n = v_hat - p
    y_level = y_p * p
    y_level += y_n * n
    const = c_p * p
    n *= c_n
    const += n
    return y_level, const
