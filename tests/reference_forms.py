"""Term-by-term forms of the financing driver and the close-outs, as the
paper writes them, and both sides' closed form under a linear driver.

The package computes these only in the split form of
:mod:`xvaband.driver`; the tests check that form against these, and the
README's seller-buyer gap identity is stated in ``driver_value``.
"""

import math

import numpy as np
from scipy.integrate import quad

from xvaband import ClaimSpec, bs_closed_form
from xvaband.driver import equation_coefficients, level_coefficients


def closeout_I(v_hat, alpha: float, l_i: float):
    """Settlement value on own default: haircut the uncollateralised claim."""
    e = (1.0 - alpha) * np.asarray(v_hat, dtype=float)
    out = v_hat - l_i * np.maximum(e, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def closeout_C(v_hat, alpha: float, l_c: float):
    """Settlement value on counterparty default."""
    e = (1.0 - alpha) * np.asarray(v_hat, dtype=float)
    out = v_hat + l_c * np.maximum(-e, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def driver_value(side: int, v, z, z_i, z_c, v_hat, cfg):
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


def _black_scholes_0(claim, x: float, r: float, sigma: float) -> float:
    """v_hat(0, x); a custom payoff is a bond, a forward and calls on its
    inner knots, one per change of slope."""
    if claim.kind != "custom":
        return bs_closed_form(0.0, x, claim, r, sigma)
    ks, vs = np.array(claim.knots).T
    slopes = np.diff(vs) / np.diff(ks) if ks.size > 1 else np.zeros(1)
    value = math.exp(-r * claim.maturity) * (vs[0] - slopes[0] * ks[0]) + slopes[0] * x
    for k, kink in zip(ks[1:-1], np.diff(slopes)):
        call = ClaimSpec.call(strike=float(k), maturity=claim.maturity)
        value += kink * bs_closed_form(0.0, x, call, r, sigma)
    return float(value)


def linear_driver_value(claim, cfg, spot: float, side: str) -> float:
    """Time-0 value of ``side`` ("seller" or "buyer") when r_f+ = r_f- and
    r_r+ = r_r- and the payoff is >= 0, by quadrature; no lattice is involved.

    Both kinks vanish and v_hat >= 0, so the wealth equation is linear:
    drift r_r, discount kappa (:func:`equation_coefficients`) and source
    c_p v_hat, with c_p the side's (:func:`level_coefficients`).
    Feynman-Kac gives

        v = e^{-kappa T} E[g(S_T)] + c_p int_0^T e^{-kappa t} E[v_hat(t, S_t)] dt,

    where the stock drifts at r_r up to t and at r_D after it, so
    E[v_hat(t, S_t)] = e^{r_D t} v_hat(0, spot e^{(r_r - r_D) t}); at t = T
    this is E[g(S_T)].
    """
    assert cfg.r_f_plus == cfg.r_f_minus and cfg.r_r_plus == cfg.r_r_minus
    r_d, r_r, T = cfg.r_D, cfg.r_r_plus, claim.maturity
    kappa = equation_coefficients(cfg).kappa
    c_p = float(level_coefficients(cfg, {"seller": 1, "buyer": -1}[side])[2])

    def mean_v_hat(t):
        s_t = spot * math.exp((r_r - r_d) * t)
        return math.exp(r_d * t) * _black_scholes_0(claim, s_t, r_d, cfg.sigma)

    integral, _ = quad(lambda t: math.exp(-kappa * t) * mean_v_hat(t), 0.0, T,
                       epsabs=1e-13, epsrel=1e-12)
    return math.exp(-kappa * T) * mean_v_hat(T) + c_p * integral
