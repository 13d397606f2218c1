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
symmetric.  This module is the package's one home of the driver, its
close-outs and its collateral, all in the split form below.

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
side enters ``const_s`` through the collateral rates alone.  The rest is
the same for both sides, with ``s R(s z) = m z/sigma + s s_repo |z|/sigma``:
:func:`equation_coefficients` holds its rates once per market, the one
record of them that the PDE march, the reference and the tree read.

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

:func:`level_coefficients` computes the coefficients once per market and
side, and :func:`financing_level` applies them to a level's ``(p, n)``:
eight array passes per level against about 25 for the close-outs term by
term.  ``Y`` is the same for both sides, so the march's stacked row
(:class:`xvaband.pde.SemilinearTerms`) takes both from one call with each
side's ``c_p`` and ``c_n`` repeated over its block.  The reports read the
same split form: the funding account is ``Y - v`` and the hedge's jump
exposures are ``theta_j - v`` with theta_I, theta_C from :func:`closeouts`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import MarketConfig

__all__ = [
    "closeouts",
    "equation_coefficients",
    "financing_level",
    "level_coefficients",
]


class EquationCoefficients(NamedTuple):
    """The market's coefficients of the equations in log space."""

    b: float       # sigma^2/2, the diffusion
    drift: float   # r_D - b, the reference's convection
    m: float       # (2 r_D - r_r+ - r_r-)/2, the linear repo part, in the convection
    s_repo: float  # (r_r+ - r_r-)/2, the repo kink
    kappa: float   # h_I + h_C + (h_I + h_C + 2 r_D - r_f-), the wealth's discount rate
    spread: float  # r_f+ - r_f-, the slope of the funding kink


def equation_coefficients(cfg: MarketConfig) -> EquationCoefficients:
    """The :class:`EquationCoefficients` of the market ``cfg``."""
    b = 0.5 * cfg.sigma * cfg.sigma
    h = cfg.h_I_Q + cfg.h_C_Q
    return EquationCoefficients(
        b=b, drift=cfg.r_D - b,
        m=0.5 * (2.0 * cfg.r_D - cfg.r_r_plus - cfg.r_r_minus),
        s_repo=0.5 * (cfg.r_r_plus - cfg.r_r_minus),
        kappa=h + (h + 2.0 * cfg.r_D - cfg.r_f_minus), spread=cfg.r_f_plus - cfg.r_f_minus)


def _loss_factors(cfg: MarketConfig) -> tuple[float, float]:
    """``(k_I, k_C)``: theta_I is ``k_I v_hat`` where v_hat > 0 and theta_C
    is ``k_C v_hat`` where v_hat < 0; either close-out is v_hat elsewhere."""
    a = cfg.alpha
    return 1.0 - cfg.L_I * (1.0 - a), 1.0 - cfg.L_C * (1.0 - a)


def closeouts(cfg: MarketConfig, v_hat):
    """``(theta_I, theta_C)`` of the reference value(s) ``v_hat`` in split
    form: the own close-out ``v_hat - L_I ((1 - alpha) v_hat)^+`` and the
    counterparty's ``v_hat + L_C ((1 - alpha) v_hat)^-``, which bracket it."""
    k_i, k_c = _loss_factors(cfg)
    p = np.maximum(v_hat, 0.0)
    n = v_hat - p
    return k_i * p + n, p + k_c * n


def level_coefficients(cfg: MarketConfig, side: int) -> tuple[float, float, float, float]:
    """``(y_p, y_n, c_p, c_n)``, the split form's coefficients of ``Y`` and
    ``const_s`` for side=+1 (seller) or -1 (buyer).

    ``y_p`` and ``y_n`` are the same for both sides; the side picks the
    collateral rates of ``c_p`` and ``c_n``.
    """
    a = cfg.alpha
    k_i, k_c = _loss_factors(cfg)
    y_p = 1.0 + k_i - a
    y_n = 1.0 + k_c - a
    r_pos, r_neg = ((cfg.r_c_plus, cfg.r_c_minus) if side > 0
                    else (cfg.r_c_minus, cfg.r_c_plus))
    c_p = (2.0 * cfg.h_I_Q * k_i + 2.0 * cfg.h_C_Q + cfg.r_D * (1.0 + k_i)
           - a * r_pos - cfg.r_f_minus * y_p)
    c_n = (2.0 * cfg.h_I_Q + 2.0 * cfg.h_C_Q * k_c + cfg.r_D * (1.0 + k_c)
           - a * r_neg - cfg.r_f_minus * y_n)
    return y_p, y_n, c_p, c_n


def financing_level(coefficients: tuple,
                    v_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Y, const_s)`` of the level form for the reference values ``v_hat``,
    from :func:`level_coefficients` (``c_p``, ``c_n`` may be one per node).

    ``Y = theta_I + theta_C - alpha v_hat`` is the funding balance at
    v = 0 and ``const_s`` the part of the level form that does not depend
    on v or z.  Both are fresh arrays the caller may overwrite.
    """
    y_p, y_n, c_p, c_n = coefficients
    p = np.maximum(v_hat, 0.0)
    n = v_hat - p
    y_level = y_p * p
    y_level += y_n * n
    const = c_p * p
    n *= c_n
    const += n
    return y_level, const
