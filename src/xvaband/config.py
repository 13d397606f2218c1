"""Market, claim, and credit parameter records with no-arbitrage validation.

The market carries one flat volatility and a family of flat rates: the
domestic short rate ``r_D``, asymmetric unsecured funding rates
(``r_f_plus`` earned on long cash, ``r_f_minus`` paid on short cash),
asymmetric repo rates for financing the stock leg, asymmetric rates on
posted/received collateral, the two risky bond yields ``r_I`` / ``r_C``,
risk-neutral default intensities ``h_I_Q`` / ``h_C_Q``, loss fractions
applied at close-out, and the collateralisation fraction ``alpha``.

Absence of arbitrage in the hedging market requires the rate ordering

    r_r_plus <= r_f_plus <= r_r_minus,      r_f_plus <= r_f_minus,
    max(r_f_plus, r_D) <  r_I + h_I_P,      max(r_f_plus, r_D) < r_C + h_C_P,
    max(r_c_plus, r_c_minus) <= r_f_minus <= min(r_I + h_I_P, r_C + h_C_P),

where ``h_i_P = h_i_Q - (r_i - r_D)`` are the real-world intensities
implied by the bond yields.  ``validate_no_arbitrage`` reports every
violated inequality instead of stopping at the first.  Every numeric input
of the package is checked by the ``_require_*`` functions here, which name
the field and the value that failed.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

__all__ = [
    "MarketConfig",
    "ClaimSpec",
    "ArbitrageViolationError",
    "DEFAULT_MARKET",
    "validate_no_arbitrage",
    "load_market_config",
    "market_config_from_dict",
    "apply_overrides",
]


def _require_count(name: str, v, minimum: int = 1) -> None:
    """Raise ``TypeError`` unless ``v`` is an integer: a Python or numpy int,
    but not a bool (which would count as 0 or 1) and not an integral float;
    ``ValueError`` if it is below ``minimum``."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool):
        raise TypeError(f"{name} must be an integer, got {v!r}")
    if v < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {v}")


def _require_number(name: str, v) -> float:
    """``v`` as a float; ``TypeError`` unless it is an int or a float (numpy's
    float64 included), but not a bool (which would count as 0 or 1)."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise TypeError(f"{name} must be a number, got {v!r}")
    return float(v)


def _require_finite(name: str, v) -> None:
    """:func:`_require_number`, then ``ValueError`` for a NaN or an infinity."""
    _require_number(name, v)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v}")


def _require_positive(name: str, v) -> None:
    """:func:`_require_finite`, then ``ValueError`` unless ``v > 0``."""
    _require_finite(name, v)
    if v <= 0.0:
        raise ValueError(f"{name} must be positive, got {v}")


def _side_sign(side: str) -> int:
    """+1 for ``"seller"``, -1 for ``"buyer"``; any other side raises."""
    if side not in ("seller", "buyer"):
        raise ValueError(f"side must be 'seller' or 'buyer', got {side!r}")
    return 1 if side == "seller" else -1


@dataclass(frozen=True)
class MarketConfig:
    """Flat market parameters (rates per year, sigma per sqrt-year)."""

    sigma: float
    r_D: float
    r_f_plus: float
    r_f_minus: float
    r_r_plus: float
    r_r_minus: float
    r_c_plus: float
    r_c_minus: float
    r_I: float
    r_C: float
    h_I_Q: float
    h_C_Q: float
    L_I: float
    L_C: float
    alpha: float

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_finite(f.name, getattr(self, f.name))
            # frozen: store the checked value as a Python float, not a numpy scalar
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        _require_positive("sigma", self.sigma)
        for name, v in (("h_I_Q", self.h_I_Q), ("h_C_Q", self.h_C_Q)):
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        for name, v in (("L_I", self.L_I), ("L_C", self.L_C), ("alpha", self.alpha)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


#: Desk default parameter set used by the canned tables and the CLI.
DEFAULT_MARKET = MarketConfig(
    sigma=0.2,
    r_D=0.01,
    r_f_plus=0.05,
    r_f_minus=0.08,
    r_r_plus=0.05,
    r_r_minus=0.05,
    r_c_plus=0.01,
    r_c_minus=0.01,
    r_I=0.03,
    r_C=0.04,
    h_I_Q=0.2,
    h_C_Q=0.15,
    L_I=0.5,
    L_C=0.5,
    alpha=0.9,
)


@dataclass(frozen=True)
class ClaimSpec:
    """European claim: vanilla call/put, or a piecewise-linear custom payoff.

    Custom payoffs are given as ``knots`` of (spot, value) pairs with
    strictly increasing spots; the payoff is linearly interpolated between
    knots and linearly extrapolated beyond the end segments (a single knot
    means a constant payoff).  A call or a put takes no knots.
    """

    kind: str
    strike: float | None = None
    maturity: float = 1.0
    knots: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("call", "put", "custom"):
            raise ValueError(f"kind must be call, put, or custom, got {self.kind!r}")
        _require_positive("maturity", self.maturity)
        if self.strike is not None:
            _require_positive("strike", self.strike)
        elif self.kind != "custom":
            raise ValueError(f"{self.kind} claim needs a positive strike")
        if self.kind != "custom" and self.knots is not None:
            raise ValueError(f"knots apply to custom claims only, a {self.kind} "
                             f"got knots={self.knots!r}")
        if self.kind == "custom":
            if not self.knots:
                raise ValueError("custom claim needs at least one payoff knot")
            for spot, value in self.knots:
                _require_positive("payoff knot spot", spot)
                _require_finite("payoff knot value", value)
            # frozen: store the checked knots as float pairs
            object.__setattr__(self, "knots", tuple(
                (float(spot), float(value)) for spot, value in self.knots))
            ss = [k[0] for k in self.knots]
            if any(b <= a for a, b in zip(ss, ss[1:])):
                raise ValueError(f"payoff knot spots must be strictly increasing, got {ss}")

    @classmethod
    def call(cls, strike: float, maturity: float) -> "ClaimSpec":
        return cls(kind="call", strike=strike, maturity=maturity)

    @classmethod
    def put(cls, strike: float, maturity: float) -> "ClaimSpec":
        return cls(kind="put", strike=strike, maturity=maturity)

    @classmethod
    def custom(cls, knots, maturity: float) -> "ClaimSpec":
        return cls(kind="custom", maturity=maturity, knots=tuple(knots))

    @property
    def log_center(self) -> float:
        """ln of the spot the claim is centred on: the strike, else (a custom
        claim without one) the geometric mid-knot."""
        if self.strike is not None:
            return math.log(self.strike)
        return 0.5 * (math.log(self.knots[0][0]) + math.log(self.knots[-1][0]))

    def payoff(self, s):
        """Terminal payoff evaluated at spot(s); accepts scalars or arrays."""
        s = np.asarray(s, dtype=float)
        if self.kind == "call":
            out = np.maximum(s - self.strike, 0.0)
        elif self.kind == "put":
            out = np.maximum(self.strike - s, 0.0)
        else:
            ks = np.array([k[0] for k in self.knots])
            vs = np.array([k[1] for k in self.knots])
            out = np.interp(s, ks, vs)
            if ks.size >= 2:
                # np.interp clamps; extend the end segments linearly instead
                lo = s < ks[0]
                hi = s > ks[-1]
                if lo.any():
                    slope = (vs[1] - vs[0]) / (ks[1] - ks[0])
                    out = np.where(lo, vs[0] + slope * (s - ks[0]), out)
                if hi.any():
                    slope = (vs[-1] - vs[-2]) / (ks[-1] - ks[-2])
                    out = np.where(hi, vs[-1] + slope * (s - ks[-1]), out)
        if out.ndim == 0:
            return float(out)
        return out


class ArbitrageViolationError(ValueError):
    """Raised when a market config admits arbitrage in the hedging market."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("arbitrage in hedging market: " + "; ".join(violations))


def validate_no_arbitrage(cfg: MarketConfig) -> list[str]:
    """Return one descriptor per violated no-arbitrage inequality.

    An empty list means the rate configuration is arbitrage-free.  Strict
    inequalities are required against the risky bond returns; the others
    tolerate equality.
    """
    # raw formula: negativity is reported here rather than raised
    h_I_P = cfg.h_I_Q - (cfg.r_I - cfg.r_D)
    h_C_P = cfg.h_C_Q - (cfg.r_C - cfg.r_D)
    ret_I = cfg.r_I + h_I_P
    ret_C = cfg.r_C + h_C_P
    lend = max(cfg.r_f_plus, cfg.r_D)
    # (label, lhs, rhs, strict): the rule reads lhs < rhs if strict, else lhs <= rhs
    rules = (
        ("h_I_P >= 0", 0.0, h_I_P, False),
        ("h_C_P >= 0", 0.0, h_C_P, False),
        ("r_r_plus <= r_f_plus", cfg.r_r_plus, cfg.r_f_plus, False),
        ("r_f_plus <= r_r_minus", cfg.r_f_plus, cfg.r_r_minus, False),
        ("r_f_plus <= r_f_minus", cfg.r_f_plus, cfg.r_f_minus, False),
        ("max(r_f_plus, r_D) < r_I + h_I_P", lend, ret_I, True),
        ("max(r_f_plus, r_D) < r_C + h_C_P", lend, ret_C, True),
        ("max(r_c_plus, r_c_minus) <= r_f_minus",
         max(cfg.r_c_plus, cfg.r_c_minus), cfg.r_f_minus, False),
        ("r_f_minus <= min(r_I + h_I_P, r_C + h_C_P)",
         cfg.r_f_minus, min(ret_I, ret_C), False),
    )
    return [f"{label} violated: {lhs} {'>=' if strict else '>'} {rhs}"
            for label, lhs, rhs, strict in rules if (lhs >= rhs if strict else lhs > rhs)]


def market_config_from_dict(raw: dict) -> MarketConfig:
    """Build a MarketConfig from a plain dict, rejecting unknown keys."""
    if not isinstance(raw, dict):
        raise ValueError(f"market config must be a JSON object, got {type(raw).__name__}")
    known = {f.name for f in fields(MarketConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown market config keys: {', '.join(unknown)}")
    missing = sorted(known - set(raw))
    if missing:
        raise ValueError(f"missing market config keys: {', '.join(missing)}")
    # field order, so that of two bad values the same one is named every run
    return MarketConfig(**{f.name: _require_number(f.name, raw[f.name])
                           for f in fields(MarketConfig)})


def load_market_config(path: str | Path) -> MarketConfig:
    """Load a MarketConfig from a JSON file whose keys match the field names."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except UnicodeDecodeError as err:
            raise ValueError(f"market config {path} is not UTF-8 text: {err}") from None
        except json.JSONDecodeError as err:
            raise ValueError(f"market config {path} is not valid JSON: {err}") from None
    return market_config_from_dict(raw)


def apply_overrides(cfg: MarketConfig, overrides: dict[str, float]) -> MarketConfig:
    """Return a copy of cfg with named fields replaced; unknown names raise."""
    known = {f.name for f in fields(MarketConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise ValueError(f"unknown market config fields: {', '.join(unknown)}")
    return replace(cfg, **{k: _require_number(k, v) for k, v in overrides.items()})
