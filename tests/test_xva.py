"""Adjustment reports, funding balances, and replication weights."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from xvaband import (
    ClaimSpec,
    MarketConfig,
    SolverConfig,
    benchmark_surface,
    build_grid,
    compute_xva,
    funding_account_0,
    hedge_at,
    solve_trade,
    validate_no_arbitrage,
)
import xvaband.pde as pde
from reference_forms import closeout_C, closeout_I, linear_driver_value
from xvaband.driver import closeouts, financing_level, level_coefficients
from xvaband.grid import reporting_spot
from xvaband.xva import _relative, report_from_solution

N_D1_ATM = 0.5596176923702425  # Phi((r + sigma^2/2)/sigma) at r=0.01, sigma=0.2, T=1
EPS = np.finfo(float).eps


class TestReport:
    def test_symmetric_market_collapses_the_band(
        self, call_claim, symmetric_market, small_grid, solver
    ):
        sol = solve_trade(call_claim, symmetric_market, small_grid, solver)
        rep = report_from_solution(sol, 1.0)
        assert abs(rep.xva_sell) < 1e-10
        assert abs(rep.xva_buy) < 1e-10
        assert abs(rep.band_width) < 1e-10

    def test_symmetric_uncollateralised_funding_equals_the_reference_value(
        self, call_claim, symmetric_market, small_grid, solver
    ):
        cfg = replace(symmetric_market, alpha=0.0)
        sol = solve_trade(call_claim, cfg, small_grid, solver)
        rep = report_from_solution(sol, 1.0)
        # L = 0, alpha = 0: both close-out legs equal v_hat and no collateral
        # is posted, so funding = 2 v_hat - v ~ v_hat
        assert rep.funding_sell_0 == pytest.approx(rep.v_hat_0, abs=1e-8)
        assert rep.funding_buy_0 == pytest.approx(rep.v_hat_0, abs=1e-8)

    def test_internal_identities(self, call_claim, market, medium_grid, solver):
        sol = solve_trade(call_claim, market, medium_grid, solver)
        rep = report_from_solution(sol, 1.0)
        assert rep.xva_sell == rep.v_sell_0 - rep.v_hat_0
        assert rep.xva_buy == rep.v_buy_0 - rep.v_hat_0
        assert rep.band_width == rep.xva_sell - rep.xva_buy
        assert rep.xva_sell_rel == rep.xva_sell / rep.v_hat_0
        assert rep.funding_sell_0 == funding_account_0(rep.v_sell_0, rep.v_hat_0, market)
        assert rep.funding_buy_0 == funding_account_0(rep.v_buy_0, rep.v_hat_0, market)

    def test_base_market_prices_the_seller_above_the_buyer(
        self, call_claim, market, medium_grid, solver
    ):
        rep = compute_xva(call_claim, market, medium_grid, solver)
        assert rep.spot == 1.0  # defaults to the strike
        assert rep.xva_sell > 0.0
        assert rep.band_width >= 0.0
        assert rep.v_buy_0 <= rep.v_sell_0

    def test_a_bool_spot_is_rejected_before_the_solve(self, call_claim, market):
        # True priced at spot 1 and reported "spot": true
        with pytest.raises(TypeError, match="spot must be a number"):
            compute_xva(call_claim, market, spot=True)

    @pytest.mark.parametrize("spot, message", [
        (-1.0, "spot must be positive, got -1.0"),
        (50.0, r"ln\(spot\) = 3\.9\d* outside grid"),
    ])
    def test_a_spot_off_the_lattice_is_rejected_before_any_march(
        self, call_claim, market, marches, spot, message
    ):
        # both were found only after the reference and both sides were solved
        with pytest.raises(ValueError, match=message):
            compute_xva(call_claim, market, spot=spot)
        assert marches == []

    def test_a_trade_takes_the_reference_march_and_one_of_both_sides(
        self, call_claim, market, small_grid, solver, marches
    ):
        # the counter the spot checks above rely on sees every march
        compute_xva(call_claim, market, small_grid, solver)
        assert marches == [small_grid, small_grid]

    def test_to_dict_round_trip(self, call_claim, market, small_grid, solver):
        rep = compute_xva(call_claim, market, small_grid, solver)
        d = rep.to_dict()
        assert set(d) == {
            "spot",
            "v_hat_0",
            "v_sell_0",
            "v_buy_0",
            "xva_sell",
            "xva_buy",
            "xva_sell_rel",
            "xva_buy_rel",
            "band_width",
            "funding_sell_0",
            "funding_buy_0",
        }
        assert all(isinstance(v, float) for v in d.values())

    def test_a_vanishing_reference_leaves_the_relative_adjustment_blank(
        self, vanishing_reference
    ):
        rep = compute_xva(*vanishing_reference)
        assert abs(rep.v_hat_0) <= 1e-12
        assert rep.xva_sell > 1e-12
        assert rep.xva_sell_rel is None
        assert abs(rep.xva_buy) <= 1e-12
        assert rep.xva_buy_rel == 0.0

    def test_zero_claim_reports_all_zeros(self, market, small_grid, solver):
        claim = ClaimSpec.custom([(1.0, 0.0)], maturity=1.0)
        rep = compute_xva(claim, market, small_grid, solver)
        assert rep.spot == 1.0
        for name, value in rep.to_dict().items():
            if name != "spot":
                assert value == 0.0, name


class TestSolveTrade:
    @pytest.mark.parametrize(
        "other", ["market", "r_D", "sigma", "grid", "schedule", "theta", "claim"])
    def test_a_map_filled_by_another_key_is_not_reused(
        self, other, call_claim, put_claim, market, small_grid, solver,
        ignore_rate_warnings
    ):
        # handed the reference of sigma 0.4 and r_D 0.03, this trade reads
        # v_hat_0 0.1713 and xva_sell -0.0461
        fill = {
            "market": (call_claim, replace(market, sigma=0.4, r_D=0.03), small_grid, solver),
            "r_D": (call_claim, replace(market, r_D=0.03), small_grid, solver),
            "sigma": (call_claim, replace(market, sigma=0.4), small_grid, solver),
            "grid": (call_claim, market, build_grid(call_claim, market, n_x=101, n_t=100),
                     solver),
            # the same space nodes marched over another time schedule
            "schedule": (call_claim, market, replace(small_grid, n_t=small_grid.n_t // 2),
                         solver),
            # same schedule, different weights
            "theta": (call_claim, market, small_grid, SolverConfig(theta_scheme=0.6)),
            "claim": (put_claim, market, small_grid, solver),
        }[other]
        references = {}
        filled = solve_trade(*fill, allow_arbitrage=True, references=references)
        sol = solve_trade(call_claim, market, small_grid, solver, references=references)
        assert len(references) == 2
        assert sol.benchmark is not filled.benchmark
        own = benchmark_surface(small_grid, call_claim, market, solver)
        assert np.array_equal(sol.benchmark.sched_values, own.sched_values)
        rep = report_from_solution(sol, 1.0)
        assert (round(rep.v_hat_0, 4), round(rep.xva_sell, 4)) == (0.0843, 0.0163)

    @pytest.mark.parametrize("name", [f.name for f in fields(MarketConfig)])
    def test_the_reference_reads_only_r_D_and_sigma_of_the_market(
        self, name, call_claim, market, solver
    ):
        # solve_trade's key holds these two of the market's fields: any
        # other that moved the reference would need a place in the key
        grid = build_grid(call_claim, market, n_x=51, n_t=10)
        base = benchmark_surface(grid, call_claim, market, solver).sched_values
        cfg = replace(market, **{name: 0.5 * getattr(market, name) + 0.01})
        moved = benchmark_surface(grid, call_claim, cfg, solver).sched_values
        assert (not np.array_equal(moved, base)) == (name in ("r_D", "sigma"))

    def test_warns_once_per_arbitrageable_trade(
        self, call_claim, market, small_grid, solver
    ):
        bad = replace(market, r_f_minus=0.2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solve_trade(call_claim, bad, small_grid, solver, allow_arbitrage=True)
        rate_warnings = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(rate_warnings) == 1
        assert "arbitrage" in str(rate_warnings[0].message)

    def test_rate_warning_names_the_callers_file(
        self, call_claim, market, small_grid, solver
    ):
        # solve_trade's warning points at its own call into solve_sides, a
        # direct solve_sides call's at the caller's line
        bad = replace(market, r_f_minus=0.2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = solve_trade(call_claim, bad, small_grid, solver, allow_arbitrage=True)
        assert len(caught) == 1
        assert caught[0].filename.endswith("xva.py")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pde.solve_sides(bad, sol.benchmark, allow_arbitrage=True)
        assert len(caught) == 1
        assert caught[0].filename == __file__

    def test_capped_step_names_its_side(
        self, call_claim, market, small_grid, solver, monkeypatch, march_side
    ):
        references = {}
        sol = solve_trade(call_claim, market, small_grid, solver, references=references)
        iters = np.stack([sol.seller.diagnostics.iterations,
                          sol.buyer.diagnostics.iterations])
        k = int(np.argmax((iters > 1).any(axis=0)))
        # the first side still flipping at step k is named
        side = "seller" if iters[0, k] > 1 else "buyer"
        monkeypatch.setattr(pde, "MAX_SOLVES_PER_STEP", 1)
        with pytest.raises(RuntimeError,
                           match=f"branch solve of the {side} did not settle at step {k} "):
            solve_trade(call_claim, market, small_grid, solver, references=references)
        k = int(np.argmax(iters[1] > 1))
        with pytest.raises(RuntimeError,
                           match=f"branch solve of the buyer did not settle at step {k} "):
            march_side(-1, market, sol.benchmark)


class TestCollateralBand:
    # with r_f+ = r_f- and r_r+ = r_r- both kinks vanish and the two sides
    # differ only by the source alpha (r_c- - r_c+) p(v_hat), so the band is
    # alpha (r_c- - r_c+) I with one I > 0 per claim (ROADMAP items 14 and 6):
    # an inverted collateral order inverts the band
    @pytest.mark.parametrize("claim", [
        ClaimSpec.call(strike=1.0, maturity=1.0),
        ClaimSpec.put(strike=1.0, maturity=1.0),
        ClaimSpec(kind="custom", strike=1.0, maturity=1.0,
                  knots=((0.8, 0.0), (0.9, 0.0), (1.1, 0.2), (1.2, 0.2))),
    ], ids=["call", "put", "bull_spread"])
    def test_band_is_the_collateral_spread_times_one_integral(self, claim, market,
                                                              solver):
        linear = replace(market, r_f_plus=0.05, r_f_minus=0.05,
                         r_r_plus=0.05, r_r_minus=0.05)
        grid = build_grid(claim, linear, n_x=201, n_t=100)
        spot = reporting_spot(claim, grid)
        references = {}
        integrals = []
        for alpha in (0.0, 0.25, 0.5, 0.9, 1.0):
            for r_c_plus, r_c_minus in ((0.01, 0.05), (0.05, 0.01), (0.03, 0.03)):
                cfg = replace(linear, alpha=alpha, r_c_plus=r_c_plus, r_c_minus=r_c_minus)
                assert validate_no_arbitrage(cfg) == []
                sol = solve_trade(claim, cfg, grid, solver, references=references)
                band = report_from_solution(sol, spot).band_width
                spread = alpha * (r_c_minus - r_c_plus)
                if spread == 0.0:
                    assert band == 0.0, (alpha, r_c_plus)
                else:
                    assert math.copysign(1.0, band) == math.copysign(1.0, spread)
                    integrals.append(band / spread)
        assert len(integrals) == 8 and min(integrals) > 0.0
        assert max(integrals) - min(integrals) <= 1e-11 * max(integrals)


class TestLinearDriver:
    # with r_f+ = r_f- and r_r+ = r_r- both kinks vanish, and for a payoff
    # >= 0 each side solves a linear equation with a closed form (ROADMAP
    # item 14).  Largest errors on 201 x 100: 3.5e-5 (call, put) and 1.6e-5
    # (bull spread) per side, 1.04e-6 on the band; on 801 x 400 2.2e-6 and
    # 5.6e-7 per side, 6.5e-8 on the band
    @pytest.mark.parametrize("claim", [
        ClaimSpec.call(strike=1.0, maturity=1.0),
        ClaimSpec.put(strike=1.0, maturity=1.0),
        ClaimSpec.custom([(0.8, 0.0), (0.9, 0.0), (1.1, 0.2), (1.2, 0.2)],
                         maturity=1.0, strike=1.0),
    ], ids=["call", "put", "bull_spread"])
    def test_both_sides_and_the_band_match_their_closed_form(self, claim, market, solver):
        linear = replace(market, r_f_plus=0.05, r_f_minus=0.05,
                         r_r_plus=0.05, r_r_minus=0.05)
        grid = build_grid(claim, linear, n_x=201, n_t=100)
        references = {}
        for alpha in (0.0, 0.5, 0.9, 1.0):
            for r_c_plus, r_c_minus in ((0.01, 0.05), (0.05, 0.01)):
                cfg = replace(linear, alpha=alpha, r_c_plus=r_c_plus, r_c_minus=r_c_minus)
                assert validate_no_arbitrage(cfg) == []
                sol = solve_trade(claim, cfg, grid, solver, references=references)
                rep = report_from_solution(sol, 1.0)
                sell, buy = (linear_driver_value(claim, cfg, 1.0, side)
                             for side in ("seller", "buyer"))
                case = (alpha, r_c_plus, rep, sell, buy)
                assert abs(rep.v_sell_0 - sell) <= 5e-5, case
                assert abs(rep.v_buy_0 - buy) <= 5e-5, case
                assert abs(rep.band_width - (sell - buy)) <= 2e-6, case


#: the rates the admissible draws take uniformly from [0, 0.12]
_RATES = ("r_D", "r_f_plus", "r_f_minus", "r_r_plus", "r_r_minus",
          "r_c_plus", "r_c_minus", "r_I", "r_C")


def _admissible_market(rng, alpha):
    """A market drawn by rejection: every rate, intensity, loss and the
    volatility uniform and independent, redrawn until
    ``validate_no_arbitrage`` admits it.  Both collateral orders occur."""
    while True:
        cfg = MarketConfig(
            sigma=float(rng.uniform(0.1, 0.5)),
            **dict(zip(_RATES, rng.uniform(0.0, 0.12, len(_RATES)).tolist())),
            h_I_Q=float(rng.uniform(0.0, 0.5)), h_C_Q=float(rng.uniform(0.0, 0.5)),
            L_I=float(rng.uniform()), L_C=float(rng.uniform()), alpha=alpha)
        if not validate_no_arbitrage(cfg):
            return cfg


def _random_claim(rng, kind):
    """A call, a put or a custom payoff of one to five knots of either sign
    around a strike in [0.8, 1.25], maturing within [0.25, 2]."""
    strike, maturity = float(rng.uniform(0.8, 1.25)), float(rng.uniform(0.25, 2.0))
    if kind != "custom":
        return ClaimSpec(kind=kind, strike=strike, maturity=maturity)
    spots = strike * np.sort(rng.uniform(0.6, 1.6, rng.integers(1, 6)))
    values = rng.uniform(-0.2, 0.3, spots.size)
    return ClaimSpec.custom(zip(spots.tolist(), values.tolist()), maturity=maturity)


#: admissible markets that still raise: where a cell Peclet number passes 1
#: a frozen matrix is no M-matrix and the branch solve cycles.  strict, so
#: a fix shows up as XPASS and drops these markers
_ITEM_19 = pytest.mark.xfail(
    strict=True, raises=RuntimeError,
    reason="ROADMAP item 19: low sigma sqrt(T) markets hit the branch-solve cap")


class TestAdmissibleMarkets:
    def test_no_admissible_draw_raises(self):
        # the paper's assumptions promise a solution for every market the
        # rate ordering admits: 150 seeded draws, alpha in {0, 1, uniform}
        # and calls, puts and custom payoffs in turn, on a 201 x 100 lattice
        rng = np.random.default_rng(29)
        orders = set()
        for i in range(150):
            alpha = (0.0, 1.0, float(rng.uniform()))[i % 3]
            cfg = _admissible_market(rng, alpha)
            orders.add(cfg.r_c_plus < cfg.r_c_minus)
            claim = _random_claim(rng, ("call", "put", "custom")[(i // 3) % 3])
            rep = compute_xva(claim, cfg, build_grid(claim, cfg, n_x=201, n_t=100))
            assert all(math.isfinite(v) for v in rep.to_dict().values()), (i, cfg, claim)
        assert orders == {True, False}

    @_ITEM_19
    def test_item_19_low_volatility_put_on_the_default_lattice(self):
        cfg = MarketConfig(sigma=0.005, r_D=0.0734, r_f_plus=0.0799, r_f_minus=0.0814,
                           r_r_plus=0.0684, r_r_minus=0.1143, r_c_plus=0.0729,
                           r_c_minus=0.0403, r_I=0.0615, r_C=0.0022, h_I_Q=0.3621,
                           h_C_Q=0.347, L_I=0.4211, L_C=0.8515, alpha=0.7555)
        assert not validate_no_arbitrage(cfg)
        compute_xva(ClaimSpec.put(strike=1.0, maturity=10.0), cfg)

    @_ITEM_19
    def test_vanishing_reference_on_a_coarse_lattice(self, vanishing_reference):
        claim, cfg = vanishing_reference
        compute_xva(claim, cfg, build_grid(claim, cfg, n_x=201, n_t=100))


class TestRelative:
    def test_plain_ratio(self):
        assert _relative(0.02, 0.08) == pytest.approx(0.25)

    def test_zero_over_zero_is_zero(self):
        assert _relative(0.0, 0.0) == 0.0

    def test_nonzero_over_zero_is_none(self):
        assert _relative(0.01, 0.0) is None


class TestFundingAccount:
    #: (v_0, v_hat_0) pairs with v_hat_0 of both signs and zero
    POINTS = ((0.097, 0.0843), (-0.31, -0.29), (0.02, 0.0), (1.7, 2.3))

    def test_hand_computed_value(self, market):
        # v_hat = 0.0843: theta_I = 0.9*0.0843 + 0.5*0.1*0.0843 = 0.080085,
        # theta_C = 0.0843, collateral = 0.075870
        got = funding_account_0(0.1, 0.0843, market)
        assert got == pytest.approx(0.080085 + 0.0843 - 0.1 - 0.07587, abs=1e-12)

    @pytest.mark.parametrize("side", [+1, -1], ids=["seller", "buyer"])
    def test_is_the_level_form_balance_less_the_value(self, market, side):
        # one home: the report's balance is Y of the driver's split form,
        # which is the same for both sides' coefficients
        cfg = replace(market, alpha=0.4, r_c_plus=0.005, r_c_minus=0.02)
        for v0, vh in self.POINTS:
            y, _ = financing_level(level_coefficients(cfg, side), vh)
            assert funding_account_0(v0, vh, cfg) == y - v0

    def test_matches_the_closeout_functions(self, market):
        # against the close-outs term by term, within 4 ulps of the sum of
        # the magnitudes of the terms
        for v0, vh in self.POINTS:
            th_i = closeout_I(vh, market.alpha, market.L_I)
            th_c = closeout_C(vh, market.alpha, market.L_C)
            a_vh = market.alpha * vh
            want = th_i + th_c - v0 - a_vh
            scale = abs(th_i) + abs(th_c) + abs(v0) + abs(a_vh)
            assert abs(funding_account_0(v0, vh, market) - want) <= 4.0 * EPS * scale


class TestHedge:
    def test_rejects_mismatched_grids(self, call_claim, market, small_grid, solver):
        sol = solve_trade(call_claim, market, small_grid, solver)
        other = build_grid(call_claim, market, n_x=101, n_t=100)
        bench = benchmark_surface(other, call_claim, market, solver)
        with pytest.raises(ValueError, match="grids"):
            hedge_at(sol.seller, bench, market, 0.0, 1.0)

    def test_terminal_bond_positions_have_unit_discount(
        self, call_claim, market, small_grid, solver
    ):
        sol = solve_trade(call_claim, market, small_grid, solver)
        snap = hedge_at(sol.seller, sol.benchmark, market, 1.0, 1.2)
        # tau = 0: the bond position is exactly the negated jump exposure
        assert snap.xi_I == -snap.z_I
        assert snap.xi_C == -snap.z_C

    def test_full_collateralisation_pins_both_jump_exposures(
        self, call_claim, market, small_grid, solver
    ):
        cfg = replace(market, alpha=1.0)
        sol = solve_trade(call_claim, cfg, small_grid, solver)
        snap = hedge_at(sol.seller, sol.benchmark, cfg, 0.0, 1.0)
        wh = sol.benchmark.value_at(0.0, 1.0)
        w = sol.seller.value_at(0.0, 1.0)
        # alpha = 1: both close-outs equal the reference value exactly
        assert snap.z_I == snap.z_C
        assert snap.z_I == wh - w
        assert snap.z_I != 0.0

    def test_jump_exposures_are_the_closeouts_less_the_value(self, market, solver):
        # a payoff of both signs, so both branches of each close-out are read
        claim = ClaimSpec.custom([(0.5, -0.4), (1.0, 0.1), (1.5, 0.2)], maturity=1.0)
        grid = build_grid(claim, market, n_x=201, n_t=100)
        sol = solve_trade(claim, market, grid, solver)
        for surface in (sol.seller, sol.buyer):
            for t, spot in ((0.0, 1.0), (0.3, 0.95), (0.7, 0.6), (1.0, 1.2)):
                snap = hedge_at(surface, sol.benchmark, market, t, spot)
                w = surface.value_at(t, spot)
                th_i, th_c = closeouts(market, sol.benchmark.value_at(t, spot))
                assert snap.z_I == th_i - w
                assert snap.z_C == th_c - w

    def test_funding_value_identity(self, call_claim, market, small_grid, solver):
        sol = solve_trade(call_claim, market, small_grid, solver)
        snap = hedge_at(sol.buyer, sol.benchmark, market, 0.3, 0.95)
        w = sol.buyer.value_at(0.3, 0.95)
        wh = sol.benchmark.value_at(0.3, 0.95)
        want = w + snap.z_I + snap.z_C - market.alpha * wh
        assert snap.funding_value == pytest.approx(want, abs=1e-15)

    def test_funding_value_at_zero_is_the_reported_balance(
        self, call_claim, market, small_grid, solver
    ):
        sol = solve_trade(call_claim, market, small_grid, solver)
        snap = hedge_at(sol.seller, sol.benchmark, market, 0.0, 1.0)
        assert snap.funding_value == report_from_solution(sol, 1.0).funding_sell_0

    def test_stock_weight_recovers_the_lognormal_delta(
        self, call_claim, symmetric_market, solver
    ):
        # in the symmetric market the adjusted surface equals the lognormal
        # reference, so the stock weight must land on the classical delta
        grid = build_grid(call_claim, symmetric_market, n_x=401, n_t=200)
        sol = solve_trade(call_claim, symmetric_market, grid, solver)
        snap = hedge_at(sol.seller, sol.benchmark, symmetric_market, 0.0, 1.0)
        assert snap.xi == pytest.approx(N_D1_ATM, abs=1e-3)
        assert snap.z == pytest.approx(symmetric_market.sigma * snap.xi * 1.0, abs=1e-15)

    def test_to_dict_keys(self, call_claim, market, small_grid, solver):
        sol = solve_trade(call_claim, market, small_grid, solver)
        d = hedge_at(sol.seller, sol.benchmark, market, 0.5, 1.0).to_dict()
        assert set(d) == {
            "t",
            "spot",
            "xi",
            "xi_I",
            "xi_C",
            "z",
            "z_I",
            "z_C",
            "funding_value",
        }
