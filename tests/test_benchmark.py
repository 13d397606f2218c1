"""Closed forms, the reference surface, and the close-out and collateral
values of the driver's split form on the reference mark."""

import math
from dataclasses import replace

import numpy as np
import pytest

from xvaband import (
    ClaimSpec,
    DEFAULT_MARKET,
    benchmark_surface,
    bs_closed_form,
    build_grid,
)
from xvaband.driver import closeouts, financing_level, level_coefficients

# Closed-form values computed independently from the normal CDF with
# d1 = 0.15, d2 = -0.05 (spot = strike = 1, T = 1, r = 0.01, sigma = 0.2).
BS_CALL_ATM = 0.08433318690109609
BS_PUT_ATM = 0.07438302065026414


# --- Black-Scholes closed form -----------------------------------------------

def test_bs_call_reference_value(call_claim):
    v = bs_closed_form(0.0, 1.0, call_claim, 0.01, 0.2)
    assert v == pytest.approx(BS_CALL_ATM, abs=1e-12)
    assert v == pytest.approx(0.084334, abs=1e-6)


def test_bs_put_reference_value_and_parity(call_claim, put_claim):
    put = bs_closed_form(0.0, 1.0, put_claim, 0.01, 0.2)
    call = bs_closed_form(0.0, 1.0, call_claim, 0.01, 0.2)
    assert put == pytest.approx(BS_PUT_ATM, abs=1e-12)
    # call - put = S - K e^{-rT}
    assert call - put == pytest.approx(1.0 - math.exp(-0.01), abs=1e-12)


def test_bs_closed_form_is_bitwise_the_norm_cdf_formula():
    # Phi is scipy.special.ndtr; pin it to the scipy.stats.norm.cdf form
    # over strikes, times, vols and deep in/out-of-the-money spots.
    from scipy.stats import norm

    r, maturity = 0.01, 1.0
    spots = [float(s) for s in np.geomspace(0.2, 5.0, 41)]
    d1_seen = []
    for kind in ("call", "put"):
        for k in (0.5, 1.0, 1.5):
            claim = ClaimSpec(kind, strike=k, maturity=maturity)
            for t in (0.0, 0.5 * maturity, 0.99 * maturity):
                tau = maturity - t
                for sigma in (0.05, 0.2, 0.6):
                    vol = sigma * math.sqrt(tau)
                    df = math.exp(-r * tau)
                    for s in spots:
                        d1 = (math.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / vol
                        d2 = d1 - vol
                        if kind == "call":
                            old = float(s * norm.cdf(d1) - k * df * norm.cdf(d2))
                        else:
                            old = float(k * df * norm.cdf(-d2) - s * norm.cdf(-d1))
                        assert bs_closed_form(t, s, claim, r, sigma) == old, (kind, k, t, sigma, s)
                        d1_seen.append(d1)
    assert min(d1_seen) < -8.0 and max(d1_seen) > 8.0


def test_bs_terminal_is_payoff(call_claim):
    assert bs_closed_form(1.0, 1.37, call_claim, 0.01, 0.2) == pytest.approx(0.37)
    assert bs_closed_form(1.0, 0.8, call_claim, 0.01, 0.2) == 0.0


def test_bs_degenerate_volatility(call_claim):
    # sigma -> 0 collapses to the discounted intrinsic on the forward
    v = bs_closed_form(0.0, 1.0, call_claim, 0.01, 1e-12)
    assert v == pytest.approx(1.0 - math.exp(-0.01), abs=1e-12)


def test_bs_input_validation(call_claim):
    custom = ClaimSpec.custom([(1.0, 1.0)], maturity=1.0)
    with pytest.raises(ValueError, match="call or put"):
        bs_closed_form(0.0, 1.0, custom, 0.01, 0.2)
    with pytest.raises(ValueError, match="spot"):
        bs_closed_form(0.0, -1.0, call_claim, 0.01, 0.2)
    with pytest.raises(ValueError, match="outside"):
        bs_closed_form(2.0, 1.0, call_claim, 0.01, 0.2)


# --- close-out and collateral ------------------------------------------------

def _cfg(alpha, l_i, l_c=0.5):
    return replace(DEFAULT_MARKET, alpha=alpha, L_I=l_i, L_C=l_c)


def test_closeout_reference_values():
    th_i, th_c = closeouts(_cfg(0.9, 0.5), 0.0843)
    assert th_i == pytest.approx(0.080085, abs=1e-15)
    assert th_c == 0.0843  # negative part vanishes
    th_i, th_c = closeouts(_cfg(0.9, 0.5), -1.0)
    assert th_c == pytest.approx(-0.95, abs=1e-15)
    assert th_i == -1.0


def test_closeouts_bracket_the_mark():
    rng = np.random.default_rng(21)
    for _ in range(300):
        vh = float(rng.uniform(-2.0, 2.0))
        alpha = float(rng.uniform(0.0, 1.0))
        l_i = float(rng.uniform(0.0, 1.0))
        l_c = float(rng.uniform(0.0, 1.0))
        th_i, th_c = closeouts(_cfg(alpha, l_i, l_c), vh)
        assert th_i <= vh <= th_c


def test_closeouts_collapse_at_full_collateral_or_zero_loss():
    for vh in (-1.3, 0.0, 0.7):
        assert closeouts(_cfg(1.0, 0.5, 0.5), vh) == (vh, vh)
        assert closeouts(_cfg(0.3, 0.0, 0.0), vh) == (vh, vh)


def test_closeouts_accept_arrays():
    vh = np.array([-1.0, 0.0, 2.0])
    th_i, _ = closeouts(_cfg(0.0, 0.5), vh)
    assert th_i.shape == vh.shape
    assert np.allclose(th_i, [-1.0, 0.0, 1.0])


def test_collateral_values():
    # the collateral alpha v_hat is what the funding balance Y at v = 0
    # leaves of the two close-outs
    def collateral(vh, alpha):
        cfg = _cfg(alpha, 0.5)
        th_i, th_c = closeouts(cfg, vh)
        y, _ = financing_level(level_coefficients(cfg, +1), vh)
        return th_i + th_c - y

    assert collateral(0.0843, 0.9) == pytest.approx(0.07587, abs=1e-15)
    assert collateral(0.5, 0.0) == 0.0
    assert collateral(0.5, 1.0) == 0.5


# --- reference surface -------------------------------------------------------

def test_benchmark_surface_matches_closed_form(call_claim, market, small_grid):
    surf = benchmark_surface(small_grid, call_claim, market)
    exact = bs_closed_form(0.0, 1.0, call_claim, market.r_D, market.sigma)
    assert surf.value_at(0.0, 1.0) == pytest.approx(exact, abs=5e-4)
    # away from the strike as well
    for s in (0.85, 1.2):
        exact_s = bs_closed_form(0.0, s, call_claim, market.r_D, market.sigma)
        assert surf.value_at(0.0, s) == pytest.approx(exact_s, abs=5e-4)


def test_benchmark_surface_terminal_slice_exact(call_claim, market, small_grid):
    surf = benchmark_surface(small_grid, call_claim, market)
    payoff = call_claim.payoff(np.exp(small_grid.x_nodes()))
    assert np.array_equal(surf.values[-1], payoff)


def test_benchmark_surface_call_nonnegative(call_claim, market, small_grid):
    surf = benchmark_surface(small_grid, call_claim, market)
    # the weighted scheme is not positivity-preserving: the coarse lattice
    # ripples by O(1e-11) at the deep out-of-the-money edge
    assert float(surf.values.min()) >= -1e-9


def test_benchmark_surface_zero_payoff(market):
    claim = ClaimSpec.custom([(1.0, 0.0)], maturity=1.0)
    grid = build_grid(claim, market, n_x=101, n_t=20)
    surf = benchmark_surface(grid, claim, market)
    assert np.all(surf.values == 0.0)


def test_benchmark_surface_prices_the_stock(market):
    # A payoff equal to the spot itself is worth the spot at every earlier
    # time (discounting exactly offsets the drift).
    claim = ClaimSpec.custom([(0.5, 0.5), (2.0, 2.0)], maturity=1.0)
    grid = build_grid(claim, market, n_x=401, n_t=200)
    surf = benchmark_surface(grid, claim, market)
    for s in (0.7, 1.0, 1.4):
        assert surf.value_at(0.0, s) == pytest.approx(s, abs=1e-4)
    assert surf.value_at(0.5, 1.0) == pytest.approx(1.0, abs=1e-4)


def test_benchmark_surface_maturity_mismatch(call_claim, market):
    short = ClaimSpec.call(strike=1.0, maturity=0.5)
    grid = build_grid(call_claim, market, n_x=101, n_t=20)
    with pytest.raises(ValueError, match="maturity"):
        benchmark_surface(grid, short, market)
