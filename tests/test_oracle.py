"""Lattice cross-check and the symmetric-collapse residual."""

import math
from dataclasses import replace

import numpy as np
import pytest

from xvaband import (
    ClaimSpec,
    benchmark_surface,
    bs_closed_form,
    build_grid,
    solve_semilinear,
    symmetric_case_residual,
    tree_bsde_price,
)
from xvaband.benchmark import closeout_C, closeout_I
from xvaband.driver import driver_value
import xvaband.oracle as oracle
from xvaband.oracle import TreeSpec, _solve_level


def _fixed_point_tree(spec, side, tol=1e-12, max_iter=200):
    """The tree as it was solved before the branch solve: per-level fixed
    point of the node relation, stopped relative to the level's scale."""
    cfg, n = spec.cfg, spec.n_steps
    dt = spec.claim.maturity / n
    sq_dt = math.sqrt(dt)
    j = np.arange(n + 1)
    x_t = (math.log(spec.spot) + n * (cfg.r_D - 0.5 * cfg.sigma ** 2) * dt
           + cfg.sigma * sq_dt * (2.0 * j - n))
    v = np.asarray(spec.claim.payoff(np.exp(x_t)), dtype=float)
    vh = v.copy()
    s = +1 if side == "seller" else -1
    kill = cfg.h_I_Q + cfg.h_C_Q
    for k in range(n - 1, -1, -1):
        hi, lo = v[1:k + 2], v[0:k + 1]
        e, z = 0.5 * (hi + lo), (hi - lo) / (2.0 * sq_dt)
        wh = math.exp(-cfg.r_D * dt) * 0.5 * (vh[1:k + 2] + vh[0:k + 1])
        th_i = closeout_I(wh, cfg.alpha, cfg.L_I)
        th_c = closeout_C(wh, cfg.alpha, cfg.L_C)
        src = cfg.h_I_Q * th_i + cfg.h_C_Q * th_c
        atol = tol * max(1.0, float(np.abs(e).max()))
        x = e.copy()
        for _ in range(max_iter):
            f = driver_value(s, x, z, th_i - x, th_c - x, wh, cfg)
            f = f + cfg.h_I_Q * (th_i - x) + cfg.h_C_Q * (th_c - x)
            x_new = e + dt * (f - kill * x + src)
            d = float(np.max(np.abs(x_new - x)))
            x = x_new
            if d < atol:
                break
        else:
            raise RuntimeError(f"fixed point did not converge at level {k}")
        v[0:k + 1], vh[0:k + 1] = x, wh
    return float(v[0])


class TestTreeSpec:
    def test_rejects_bad_steps(self, call_claim, market):
        with pytest.raises(ValueError, match="n_steps"):
            TreeSpec(n_steps=0, claim=call_claim, cfg=market)

    @pytest.mark.parametrize("spot", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_spots(self, call_claim, market, spot):
        with pytest.raises(ValueError, match="spot"):
            TreeSpec(n_steps=10, claim=call_claim, cfg=market, spot=spot)


class TestTreePrice:
    def test_zero_payoff_prices_to_zero(self, market):
        claim = ClaimSpec.custom([(1.0, 0.0)], maturity=1.0)
        spec = TreeSpec(n_steps=1, claim=claim, cfg=market)
        assert tree_bsde_price(spec) == 0.0

    def test_symmetric_market_recovers_the_lognormal_price(
        self, call_claim, symmetric_market
    ):
        spec = TreeSpec(n_steps=500, claim=call_claim, cfg=symmetric_market)
        exact = bs_closed_form(
            0.0, 1.0, call_claim, symmetric_market.r_D, symmetric_market.sigma
        )
        for side in ("seller", "buyer"):
            assert tree_bsde_price(spec, side=side) == pytest.approx(exact, abs=2e-3)

    def test_agrees_with_the_pde_on_the_base_market(
        self, call_claim, market, medium_grid, solver
    ):
        # one light pairing here; the acceptance suite sweeps a 3x3 grid
        spec = TreeSpec(n_steps=500, claim=call_claim, cfg=market)
        surf = solve_semilinear(call_claim, market, medium_grid, solver, side="seller")
        assert tree_bsde_price(spec, side="seller") == pytest.approx(
            surf.value_at(0.0, 1.0), abs=2e-3
        )

    def test_high_volatility_call_converges_and_agrees_with_the_pde(
        self, call_claim, market, solver
    ):
        # at 2000 steps the top nodes of a sigma = 0.3 call reach ~6e5, where
        # one float step exceeds an absolute stop of 1e-12
        cfg = replace(market, sigma=0.3)
        spec = TreeSpec(n_steps=2000, claim=call_claim, cfg=cfg)
        grid = build_grid(call_claim, cfg, n_x=401, n_t=200)
        bench = benchmark_surface(grid, call_claim, cfg, solver)
        for side in ("seller", "buyer"):
            surf = solve_semilinear(call_claim, cfg, grid, solver, side=side,
                                    benchmark=bench)
            price = tree_bsde_price(spec, side=side)
            assert price == pytest.approx(surf.value_at(0.0, 1.0), abs=2e-3)
            assert price == pytest.approx(_fixed_point_tree(spec, side), abs=1e-12)

    def test_refining_the_lattice_settles_the_price(self, call_claim, market):
        prices = [
            tree_bsde_price(TreeSpec(n_steps=n, claim=call_claim, cfg=market))
            for n in (50, 100, 200, 400)
        ]
        diffs = [abs(b - a) for a, b in zip(prices, prices[1:])]
        # successive refinements may rattle at the odd/even-step level, so
        # allow a small noise floor on top of plain monotonicity
        for first, second in zip(diffs, diffs[1:]):
            assert second <= first + 1e-5

    def test_rejects_unknown_side(self, call_claim, market):
        spec = TreeSpec(n_steps=10, claim=call_claim, cfg=market)
        with pytest.raises(ValueError, match="side"):
            tree_bsde_price(spec, side="dealer")

    def test_ill_posed_market_raises(self, call_claim, market):
        # one step of dt = 1 with r_f_minus = 5 gives A = 1 + 0.72 - 5 < 0,
        # where a node equation can have two roots or none
        cfg = replace(market, r_f_minus=5.0)
        spec = TreeSpec(n_steps=1, claim=call_claim, cfg=cfg)
        for side in ("seller", "buyer"):
            with pytest.raises(ValueError, match=f"ill-posed for the {side} at "
                                                 r"level 0: A = -3\.28"):
                tree_bsde_price(spec, side=side)


class TestNodeEquation:
    @pytest.mark.parametrize("alpha", [0.0, 0.25])
    @pytest.mark.parametrize("side", [+1, -1])
    def test_levels_solve_the_driver_form(self, market, alpha, side):
        # asymmetric repo and collateral rates, so every kink of the driver
        # is live, on random levels spanning six decades of node scale
        cfg = replace(market, alpha=alpha, r_r_plus=0.07, r_r_minus=0.03,
                      r_c_plus=0.02, r_c_minus=0.005)
        rng = np.random.default_rng(11)
        active = inactive = 0
        for dt in (1e-3, 0.02, 0.25):
            n = 400
            e = rng.normal(size=n) * rng.choice([1e-3, 1.0, 1e3], size=n)
            wh = e * (1.0 + 0.3 * rng.normal(size=n))
            z = rng.normal(size=n) * np.abs(e)
            x = _solve_level(e, z, wh, dt, cfg, side)
            th_i = closeout_I(wh, alpha, cfg.L_I)
            th_c = closeout_C(wh, alpha, cfg.L_C)
            f = driver_value(side, x, z, th_i - x, th_c - x, wh, cfg)
            rhs = e + dt * (f + cfg.h_I_Q * (th_i - x) + cfg.h_C_Q * (th_c - x)
                            - (cfg.h_I_Q + cfg.h_C_Q) * x
                            + cfg.h_I_Q * th_i + cfg.h_C_Q * th_c)
            scale = np.abs(e) + np.abs(wh) + np.abs(z)
            assert np.all(np.abs(x - rhs) <= 1e-15 * scale)
            kink = side * (th_i + th_c - alpha * wh - x) > 0.0
            active += int(kink.sum())
            inactive += int((~kink).sum())
        assert active > 100 and inactive > 100


class TestFixedPointAgreement:
    # the sigma = 0.3 call at 2000 steps is checked with its PDE pairing in
    # TestTreePrice
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
    def test_base_market(self, call_claim, market, alpha):
        spec = TreeSpec(n_steps=500, claim=call_claim,
                        cfg=replace(market, alpha=alpha))
        for side in ("seller", "buyer"):
            assert tree_bsde_price(spec, side=side) == pytest.approx(
                _fixed_point_tree(spec, side), abs=1e-12
            )


class TestSymmetricResidual:
    def test_call_and_put_collapse(
        self, call_claim, put_claim, symmetric_market, small_grid, solver
    ):
        for claim in (call_claim, put_claim):
            res = symmetric_case_residual(claim, symmetric_market, small_grid, solver)
            assert res < 1e-10

    def test_zero_payoff_residual_is_zero(self, symmetric_market, small_grid, solver):
        claim = ClaimSpec.custom([(1.0, 0.0)], maturity=1.0)
        assert symmetric_case_residual(claim, symmetric_market, small_grid, solver) == 0.0

    def test_checks_the_buyer_too(
        self, call_claim, symmetric_market, small_grid, solver, monkeypatch
    ):
        solve = oracle.solve_semilinear

        def buyer_off_by_1e_3(*args, **kwargs):
            surf = solve(*args, **kwargs)
            if kwargs["side"] == "buyer":
                surf = replace(surf, sched_values=surf.sched_values + 1e-3)
            return surf

        monkeypatch.setattr(oracle, "solve_semilinear", buyer_off_by_1e_3)
        res = symmetric_case_residual(call_claim, symmetric_market, small_grid, solver)
        assert res == pytest.approx(1e-3, abs=1e-10)

    def test_rejects_asymmetric_configs(self, call_claim, market, small_grid):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_case_residual(call_claim, market, small_grid)
