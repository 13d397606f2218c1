"""The tree oracle: its prices, its node equation, and its independence
from the PDE path; and the symmetric-collapse residual of the PDE sides."""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xvaband import (
    ClaimSpec,
    benchmark_surface,
    bs_closed_form,
    build_grid,
    tree_bsde_price,
)
from reference_forms import closeout_C, closeout_I, driver_value
from xvaband.driver import (
    financing_level,
    funding_spread,
    level_coefficients,
    linear_rate,
    repo_drift_split,
)
import xvaband.oracle as oracle
from xvaband.oracle import TreeSpec, _solve_level
from xvaband.pde import solve_semilinear, solve_sides


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


def _unpruned_tree(spec, side):
    """The full rollback, one level at a time: every level solves all of its
    nodes with the oracle's own branch solve, so it differs from the oracle
    only by the 10 sigma sqrt(T) window and by taking each level's reference
    terms on their own rather than a block of levels at a time."""
    cfg, n = spec.cfg, spec.n_steps
    dt = spec.claim.maturity / n
    sq_dt = math.sqrt(dt)
    drift = (cfg.r_D - 0.5 * cfg.sigma * cfg.sigma) * dt
    j = np.arange(n + 1)
    x_t = math.log(spec.spot) + n * drift + cfg.sigma * sq_dt * (2.0 * j - n)
    v = np.array(spec.claim.payoff(np.exp(x_t)), dtype=float)
    vh = v.copy()
    s = +1 if side == "seller" else -1
    coefficients = level_coefficients(cfg, s)
    a = 1.0 + dt * (cfg.h_I_Q + cfg.h_C_Q + linear_rate(cfg))
    c = dt * funding_spread(cfg)
    args = (dt, cfg, s, a, c, repo_drift_split(cfg))
    half_disc = 0.5 * math.exp(-cfg.r_D * dt)
    for k in range(n - 1, -1, -1):
        hi, lo = v[1:k + 2], v[0:k + 1]
        e, z = 0.5 * (hi + lo), (hi - lo) / (2.0 * sq_dt)
        wh = half_disc * (vh[1:k + 2] + vh[0:k + 1])
        y, const = financing_level(coefficients, wh)
        v[0:k + 1] = _solve_level(e, z, const, a * y, c * y, *args)
        vh[0:k + 1] = wh
    return float(v[0])


class TestTreeSpec:
    def test_rejects_bad_steps(self, call_claim, market):
        with pytest.raises(ValueError, match="n_steps"):
            TreeSpec(n_steps=0, claim=call_claim, cfg=market)

    @pytest.mark.parametrize("n_steps", [10.0, True, np.bool_(True), "10"])
    def test_rejects_non_integer_steps(self, call_claim, market, n_steps):
        # a float would fail later inside range(), and True would price a
        # 1-step tree
        with pytest.raises(TypeError, match="n_steps must be an integer"):
            TreeSpec(n_steps=n_steps, claim=call_claim, cfg=market)

    def test_accepts_numpy_integer_steps(self, call_claim, market):
        spec = TreeSpec(n_steps=np.int64(10), claim=call_claim, cfg=market)
        assert tree_bsde_price(spec) == tree_bsde_price(
            TreeSpec(n_steps=10, claim=call_claim, cfg=market))

    @pytest.mark.parametrize("spot", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_spots(self, call_claim, market, spot):
        with pytest.raises(ValueError, match="spot"):
            TreeSpec(n_steps=10, claim=call_claim, cfg=market, spot=spot)

    @pytest.mark.parametrize("spot", [True, np.bool_(True), "1.0", None])
    def test_rejects_a_non_number_spot(self, call_claim, market, spot):
        # True would price at spot 1.0
        with pytest.raises(TypeError, match="spot must be a number"):
            TreeSpec(n_steps=10, claim=call_claim, cfg=market, spot=spot)

    def test_accepts_an_integer_spot(self, call_claim, market):
        assert tree_bsde_price(TreeSpec(n_steps=10, claim=call_claim, cfg=market,
                                        spot=1)) == tree_bsde_price(
            TreeSpec(n_steps=10, claim=call_claim, cfg=market, spot=1.0))


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
        bench = benchmark_surface(medium_grid, call_claim, market, solver)
        surf = solve_semilinear(call_claim, market, bench, side="seller")
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
            surf = solve_semilinear(call_claim, cfg, bench, side=side)
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
            a = 1.0 + dt * (cfg.h_I_Q + cfg.h_C_Q + linear_rate(cfg))
            c = dt * funding_spread(cfg)
            y, const = financing_level(level_coefficients(cfg, side), wh)
            x = _solve_level(e, z, const, a * y, c * y, dt, cfg, side, a, c,
                             repo_drift_split(cfg))
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


class TestTruncation:
    # at 2000 steps the window keeps |2j - k| <= ceil(10 sqrt(2000)) = 448 of
    # the up to 2000 nodes a level has; nodes beyond it weigh below about
    # e^-50 on the root, so the truncation must not move a single bit
    @pytest.mark.parametrize("case", ["wide_call", "put", "straddle"])
    def test_prices_equal_the_full_rollback(self, market, case):
        if case == "wide_call":
            # the call wing is largest at high sigma and long maturity
            cfg, spot = replace(market, sigma=0.35), 1.0
            claim = ClaimSpec.call(strike=1.0, maturity=2.0)
        elif case == "put":
            cfg, spot = market, 1.0
            claim = ClaimSpec.put(strike=1.1, maturity=1.5)
        else:
            cfg, spot = replace(market, sigma=0.25), 0.9
            claim = ClaimSpec.custom([(0.8, 0.3), (1.1, 0.0), (1.4, 0.3)],
                                     maturity=1.0)
        spec = TreeSpec(n_steps=2000, claim=claim, cfg=cfg, spot=spot)
        for side in ("seller", "buyer"):
            assert tree_bsde_price(spec, side=side) == _unpruned_tree(spec, side)

    def test_short_trees_are_not_truncated(self, call_claim, market):
        # ceil(10 sqrt(n)) >= n up to n = 100: every level keeps all its nodes
        spec = TreeSpec(n_steps=64, claim=call_claim, cfg=replace(market, sigma=0.35))
        for side in ("seller", "buyer"):
            assert tree_bsde_price(spec, side=side) == _unpruned_tree(spec, side)


class TestBlocking:
    # the reference terms are taken oracle._BLOCK_LEVELS = 16 levels at a
    # time: these step counts give a lone level, one block short of full, one
    # full block, a full block and a lone level, and two full blocks and one
    # lone level
    @pytest.mark.parametrize("n_steps", [1, 15, 16, 17, 33])
    def test_prices_equal_the_level_by_level_rollback(self, market, n_steps):
        cfg = replace(market, sigma=0.3)
        claim = ClaimSpec.custom([(0.7, 0.35), (1.05, 0.0), (1.5, 0.4)],
                                 maturity=1.25)
        spec = TreeSpec(n_steps=n_steps, claim=claim, cfg=cfg, spot=0.92)
        for side in ("seller", "buyer"):
            assert tree_bsde_price(spec, side=side) == _unpruned_tree(spec, side)

    def test_one_financing_pass_per_block(self, put_claim, market, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1].shape)
            return financing_level(*args)

        monkeypatch.setattr(oracle, "financing_level", counted)
        spec = TreeSpec(n_steps=2000, claim=put_claim, cfg=market)
        tree_bsde_price(spec, side="buyer")
        assert len(calls) == math.ceil(2000 / 16)
        # 2000 = 125 x 16 levels, each row 1 + ceil(10 sqrt(2000)) nodes wide
        assert set(calls) == {(16, 449)}


def _symmetric_residual(claim, cfg, grid, solver):
    """Max lattice distance of the seller's and the buyer's surfaces from
    the reference surface; on the symmetric market it is pure solver noise."""
    bench = benchmark_surface(grid, claim, cfg, solver)
    return max(float(np.max(np.abs(surf.values - bench.values)))
               for surf in solve_sides(claim, cfg, bench))


class TestSymmetricResidual:
    def test_call_and_put_collapse(
        self, call_claim, put_claim, symmetric_market, small_grid, solver
    ):
        for claim in (call_claim, put_claim):
            res = _symmetric_residual(claim, symmetric_market, small_grid, solver)
            assert res < 1e-10

    def test_zero_payoff_residual_is_zero(self, symmetric_market, small_grid, solver):
        claim = ClaimSpec.custom([(1.0, 0.0)], maturity=1.0)
        assert _symmetric_residual(claim, symmetric_market, small_grid, solver) == 0.0


class TestIndependence:
    def test_imports_nothing_of_the_pde_path(self):
        # the tree is an independent check on the march only while it shares
        # no lattice, boundary policy or time stepper with it: of the package
        # it may use the market and the financing driver, nothing else
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        sources = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                sources.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                sources.update(alias.name for alias in node.names)
        package = {src for src in sources if src.startswith((".", "xvaband"))}
        assert package == {".config", ".driver"}
