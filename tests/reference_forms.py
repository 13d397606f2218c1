"""Term-by-term forms of the financing driver and the close-outs, as the
paper writes them.

The package computes these only in the split form of
:mod:`xvaband.driver`; the tests check that form against these, and the
README's seller-buyer gap identity is stated in ``driver_value``.
"""

import numpy as np


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
