"""Lattice cross-check and the symmetric-collapse residual."""

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
from xvaband.oracle import TreeSpec


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
            assert tree_bsde_price(spec, side=side) == pytest.approx(
                surf.value_at(0.0, 1.0), abs=2e-3
            )

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

    def test_starved_fixed_point_raises(self, call_claim, market):
        spec = TreeSpec(n_steps=50, claim=call_claim, cfg=market)
        with pytest.raises(RuntimeError, match="converge"):
            tree_bsde_price(spec, tol=1e-15, max_iter=1)


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

    def test_rejects_asymmetric_configs(self, call_claim, market, small_grid):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_case_residual(call_claim, market, small_grid)
