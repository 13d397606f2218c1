"""Seeded inputs for the three workloads.

Every draw comes from a ``random.Random`` seeded with the workload name and
``--seed``, so one seed gives the same inputs on every machine.  The
program under test only ever sees the generated claims and markets.

Trades are stratified rather than drawn independently: trade ``i`` has
payoff kind ``KINDS[i % 3]`` and a high-intensity market exactly when
``i % HIGH_EVERY == HIGH_EVERY - 1``.  Every run of 15 consecutive trades
thus holds 5 calls, 5 puts, 5 piecewise-linear payoffs and 3 high-intensity
markets, whatever the seed, which keeps the op-time distribution (and so
its median) comparable between seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from xvaband import ClaimSpec, MarketConfig, bs_closed_form, validate_no_arbitrage

KINDS = ("call", "put", "custom")
HIGH_EVERY = 5  # one trade in five sits on a high-intensity market
CUSTOM_SHAPES = ("bull_spread", "straddle", "butterfly")

#: Claim and spot of the canned ``table1``/``table2`` sweeps.
TABLE_CLAIM = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
TABLE1_AXES = (("alpha", (0.0, 0.25, 0.75, 1.0)), ("r_f_minus", (0.08, 0.2)))
TABLE2_AXES = (("r_f_minus", (0.08, 0.1, 0.15, 0.2)),)
TABLE_COLUMNS = ("v_hat_0", "v_sell_0", "v_buy_0", "xva_sell", "xva_buy",
                 "funding_sell_0", "funding_buy_0")


@dataclass(frozen=True)
class Trade:
    """One claim on one market, reported at ``spot``."""

    claim: ClaimSpec
    cfg: MarketConfig
    spot: float
    shape: str  # "call", "put" or one of CUSTOM_SHAPES
    high_intensity: bool


def draw_market(rng: random.Random, high_intensity: bool = False) -> MarketConfig:
    """A market inside the no-arbitrage rate ordering.

    Normal draws keep both default intensities in [0.05, 0.3] per year;
    high-intensity draws put them in [15, 30], where the per-step Picard
    loop needs about twice the iterations (6 to 7 per step against 3).
    """
    lo, hi = (15.0, 30.0) if high_intensity else (0.05, 0.3)
    h_i = rng.uniform(lo, hi)
    h_c = rng.uniform(lo, hi)
    r_d = rng.uniform(0.0, 0.03)
    r_fp = r_d + rng.uniform(0.0, 0.04)
    # r_f_minus <= r_D + min(h_I_Q, h_C_Q) binds; keep clear of it so that
    # rounding in r_I + h_I_P cannot tip a draw over
    r_fm = min(r_fp + rng.uniform(0.0, 0.08), r_d + 0.9 * min(h_i, h_c))
    # the band xva_sell >= xva_buy also needs r_c_plus <= r_c_minus, which
    # validate_no_arbitrage does not check: with r_c_plus > r_c_minus the
    # collateral leg alone can invert the band
    r_c = sorted(rng.uniform(0.0, r_fm) for _ in range(2))
    cfg = MarketConfig(
        sigma=rng.uniform(0.15, 0.35),
        r_D=r_d,
        r_f_plus=r_fp,
        r_f_minus=r_fm,
        r_r_plus=r_fp - rng.uniform(0.0, 0.02),
        r_r_minus=r_fp + rng.uniform(0.0, 0.02),
        r_c_plus=r_c[0],
        r_c_minus=r_c[1],
        r_I=r_d + rng.uniform(0.0, min(h_i, 0.05)),
        r_C=r_d + rng.uniform(0.0, min(h_c, 0.05)),
        h_I_Q=h_i,
        h_C_Q=h_c,
        L_I=rng.uniform(0.3, 0.7),
        L_C=rng.uniform(0.3, 0.7),
        alpha=rng.uniform(0.0, 1.0),
    )
    violations = validate_no_arbitrage(cfg)
    if violations:  # the draw ranges above are meant to rule this out
        raise AssertionError(f"generated market admits arbitrage: {violations}")
    return cfg


def _custom_claim(rng: random.Random, shape: str, k: float, maturity: float) -> ClaimSpec:
    d = k * rng.uniform(0.1, 0.25)
    if shape == "bull_spread":
        knots = [(k - 2 * d, 0.0), (k - d, 0.0), (k + d, 2 * d), (k + 2 * d, 2 * d)]
    elif shape == "straddle":
        knots = [(k - d, d), (k, 0.0), (k + d, d)]
    else:
        knots = [(k - 2 * d, 0.0), (k - d, 0.0), (k, d), (k + d, 0.0), (k + 2 * d, 0.0)]
    return ClaimSpec.custom(knots, maturity=maturity)


def price_trades(seed: int, n: int) -> list[Trade]:
    """``n`` stratified trades: calls, puts and piecewise-linear payoffs."""
    rng = random.Random(f"price:{seed}")
    trades = []
    for i in range(n):
        high = i % HIGH_EVERY == HIGH_EVERY - 1
        cfg = draw_market(rng, high)
        k = rng.uniform(0.8, 1.25)
        maturity = rng.uniform(0.5, 2.0)
        kind = KINDS[i % len(KINDS)]
        if kind == "custom":
            shape = CUSTOM_SHAPES[(i // len(KINDS)) % len(CUSTOM_SHAPES)]
            claim = _custom_claim(rng, shape, k, maturity)
        else:
            shape = kind
            claim = ClaimSpec(kind=kind, strike=k, maturity=maturity)
        trades.append(Trade(claim, cfg, k, shape, high))
    return trades


def tree_trades(seed: int, n: int) -> list[Trade]:
    """``n`` stratified puts on normal-intensity markets, spot = strike.

    The tree's fixed point takes 3 iterations per level when sigma * sqrt(T)
    is small and 4 otherwise, so trade ``i`` draws its maturity from quarter
    ``i % 4`` of [0.5, 1.5] and its volatility from third ``(i // 4) % 3``
    of [0.15, 0.35].  Every run of 12 consecutive trades covers each cell
    once, whatever the seed.

    Puts only: at 2000 steps the top nodes of a call's tree reach values
    whose rounding step exceeds the oracle's absolute 1e-12 fixed-point
    tolerance once sigma * sqrt(T) passes about 0.2, and the oracle then
    raises instead of pricing.
    """
    rng = random.Random(f"tree:{seed}")
    trades = []
    for i in range(n):
        cfg = draw_market(rng)
        cfg = replace(cfg, sigma=0.15 + 0.2 * ((i // 4) % 3 + rng.random()) / 3)
        k = rng.uniform(0.8, 1.25)
        maturity = 0.5 + (i % 4 + rng.random()) / 4
        claim = ClaimSpec(kind="put", strike=k, maturity=maturity)
        trades.append(Trade(claim, cfg, k, "put", False))
    return trades


def sweep_base(seed: int) -> MarketConfig:
    """Base market of the canned tables; the table axes override alpha and
    r_f_minus, so only the other fields come from the seed."""
    return draw_market(random.Random(f"sweep:{seed}"))


def closed_form_reference(trade: Trade) -> float:
    """Default-free value at (0, spot) from Black-Scholes.

    A piecewise-linear payoff is a bond, a stock position and one call per
    interior knot, each priced in closed form.
    """
    claim, cfg = trade.claim, trade.cfg
    if claim.kind != "custom":
        return bs_closed_form(0.0, trade.spot, claim, cfg.r_D, cfg.sigma)
    ks = [k for k, _ in claim.knots]
    vs = [v for _, v in claim.knots]
    slopes = [(vs[i + 1] - vs[i]) / (ks[i + 1] - ks[i]) for i in range(len(ks) - 1)]
    value = (vs[0] - slopes[0] * ks[0]) * math.exp(-cfg.r_D * claim.maturity)
    value += slopes[0] * trade.spot
    for i in range(1, len(ks) - 1):
        call = ClaimSpec(kind="call", strike=ks[i], maturity=claim.maturity)
        value += (slopes[i] - slopes[i - 1]) * bs_closed_form(
            0.0, trade.spot, call, cfg.r_D, cfg.sigma)
    return value
