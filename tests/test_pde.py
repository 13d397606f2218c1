"""Backward theta-scheme march and the semilinear solve."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from xvaband import (
    ArbitrageViolationError,
    ClaimSpec,
    DEFAULT_MARKET,
    GridSpec,
    SolverConfig,
    benchmark_surface,
    build_grid,
)
import xvaband.pde as pde
from reference_forms import closeout_C, closeout_I, driver_value
from xvaband.pde import solve_semilinear, solve_sides
from xvaband.driver import linear_rate, repo_drift_split
from xvaband.grid import time_schedule
from xvaband.pde import (
    SemilinearTerms,
    march_schedule,
    reduced_operator,
    terminal_slice,
)

DT = 0.0025
KAPPA = 0.35
# one Crank-Nicolson step applied to a constant slice multiplies it by
# (1 - (1-theta) dt kappa) / (1 + theta dt kappa); frozen for dt=0.0025,
# theta=0.5, kappa=0.35
CONST_STEP_FACTOR = 0.9991253826450927
# one implicit half step of length dt/2 multiplies it by 1 / (1 + dt/2 kappa)
CONST_HALF_STEP_FACTOR = 1.0 / (1.0 + 0.5 * DT * KAPPA)

#: every branch of the driver is reachable: asymmetric repo and collateral
#: rates, partial collateral, and (with the payoff below) reference values
#: and funding balances of both signs
KINK_MARKET = replace(DEFAULT_MARKET, r_r_plus=0.03, r_r_minus=0.06,
                      r_c_plus=0.005, r_c_minus=0.02, alpha=0.4)
KINK_CLAIM = ClaimSpec.custom([(0.5, -0.4), (1.0, 0.1), (1.5, 0.2)], maturity=1.0)
#: a bull spread: on its upper plateau the slope is rounding noise
BULL_CLAIM = ClaimSpec.custom([(0.8, 0.0), (0.9, 0.0), (1.1, 0.2), (1.2, 0.2)],
                              maturity=1.0)


class _ConstSource(SemilinearTerms):
    """SemilinearTerms on a market without kinks whose level data are
    Y = 0 and const_s = ``const`` at every level."""

    const = KAPPA

    def level_terms(self, k):
        m = self.bench_sched.shape[1] - 2
        return np.zeros(m), np.full(m, self.const)


def _step(w, terms=None, theta=0.5):
    """The startup's two implicit half steps of length DT/2, then one theta
    step of length DT, marched by march_schedule.

    Returns (slices at the four levels, linear solves per step).
    """
    grid = GridSpec(x_min=-0.5, x_max=0.5, n_x=w.size, n_t=2, maturity=2 * DT)
    (surf,) = march_schedule(w, grid, SolverConfig(theta_scheme=theta),
                             a_eff=-0.01, b=0.02, kappa=KAPPA, terms=terms)
    return surf.sched_values, surf.diagnostics.iterations


class TestCnStep:
    def test_constant_slice_decays_at_the_killing_rate(self):
        out, n_solves = _step(np.ones(101))
        assert np.all(n_solves == 1)
        assert np.all(np.abs(out[1] - CONST_HALF_STEP_FACTOR) < 1e-12)
        assert np.all(np.abs(out[2] - CONST_HALF_STEP_FACTOR ** 2) < 1e-12)
        # the Crank-Nicolson step takes its explicit half from the last solve
        assert np.all(np.abs(out[3] - CONST_STEP_FACTOR * out[2]) < 1e-12)

    def test_zero_slice_is_a_fixed_point(self):
        out, _ = _step(np.zeros(101))
        assert np.all(out == 0.0)
        # a zero reference gives the wealth equation a zero source at w = 0
        for side in (+1, -1):
            terms = SemilinearTerms(sides=(side,), cfg=KINK_MARKET,
                                    bench_sched=np.zeros((4, 101)))
            out, _ = _step(np.zeros(101), terms=terms)
            assert np.all(out == 0.0)

    def test_source_balancing_the_killing_term_freezes_the_slice(self):
        # with G = kappa * 1 the decay of a constant unit slice is exactly
        # cancelled, so every step must return ones
        flat = replace(KINK_MARKET, r_f_plus=KINK_MARKET.r_f_minus,
                       r_r_plus=KINK_MARKET.r_r_minus)
        terms = _ConstSource(sides=(+1,), cfg=flat, bench_sched=np.zeros((4, 101)))
        out, n_solves = _step(np.ones(101), terms=terms)
        assert np.all(n_solves == 1)
        assert np.all(np.abs(out - 1.0) < 1e-12)

    def test_fully_implicit_step_ignores_the_explicit_source_weight(self):
        # the startup's first step is fully implicit: nothing of the known
        # level 0 may enter it, so a NaN reference row there must not reach
        # the result
        x = np.linspace(-0.5, 0.5, 101)
        bench = np.stack([np.full(101, np.nan), *[np.exp(x) - 1.0] * 3])
        for theta in (0.5, 1.0):
            for side in (+1, -1):
                terms = SemilinearTerms(sides=(side,), cfg=KINK_MARKET, bench_sched=bench)
                out, _ = _step(np.maximum(np.exp(x) - 1.0, 0.0), terms=terms,
                               theta=theta)
                assert np.isfinite(out).all()


def _driver_source(side, cfg, dx, bench_row, w_full):
    """The marched source as the driver states it: close-out inflow, the
    driver, the intensity-adjusted financing of the default legs and the
    linear repo part taken out of the convection."""
    m_fold, _ = repo_drift_split(cfg)
    bh = bench_row[1:-1]
    th_i = closeout_I(bh, cfg.alpha, cfg.L_I)
    th_c = closeout_C(bh, cfg.alpha, cfg.L_C)
    w = w_full[1:-1]
    wx = (w_full[2:] - w_full[:-2]) / (2.0 * dx)
    z_i = th_i - w
    z_c = th_c - w
    f = driver_value(side, w, cfg.sigma * wx, z_i, z_c, bh, cfg)
    return (cfg.h_I_Q * th_i + cfg.h_C_Q * th_c + f
            + cfg.h_I_Q * z_i + cfg.h_C_Q * z_c + m_fold * wx)


def _term_scale(cfg, dx, bench_row, w_full):
    """Largest per-node sum of the magnitudes of the terms the driver form
    adds up: the scale of its rounding error."""
    m_fold, _ = repo_drift_split(cfg)
    bh = bench_row[1:-1]
    th_i = closeout_I(bh, cfg.alpha, cfg.L_I)
    th_c = closeout_C(bh, cfg.alpha, cfg.L_C)
    w = w_full[1:-1]
    wx = np.abs(w_full[2:] - w_full[:-2]) / (2.0 * dx)
    r_repo = max(abs(cfg.r_D - cfg.r_r_plus), abs(cfg.r_D - cfg.r_r_minus))
    total = (cfg.h_I_Q * np.abs(th_i) + cfg.h_C_Q * np.abs(th_c)
             + (cfg.h_I_Q + cfg.r_D) * np.abs(th_i - w)
             + (cfg.h_C_Q + cfg.r_D) * np.abs(th_c - w)
             + max(cfg.r_f_plus, cfg.r_f_minus) * np.abs(th_i + th_c - w - cfg.alpha * bh)
             + (r_repo + abs(m_fold)) * wx
             + max(cfg.r_c_plus, cfg.r_c_minus) * cfg.alpha * np.abs(bh))
    return float(total.max())


def _extend(u):
    """Full slice from interior values, its edges on the linear extension."""
    return np.concatenate(([2.0 * u[0] - u[1]], u, [2.0 * u[-1] - u[-2]]))


#: stop rule of the Picard reference march below: update norm and cap
PICARD_TOL = 1e-14
PICARD_MAX_ITER = 100


def _banded_march(w_terminal, grid, solver, a_eff, b, kappa, source_at):
    """Theta-scheme march that resolves each step by Picard iteration, with
    one banded solve per iteration and the source rebuilt from the driver
    at every evaluation: an independent reference for the branch solve."""
    _, dts, thetas = time_schedule(grid, solver)
    lo, di, up = reduced_operator(grid.n_x, grid.dx, a_eff, b, kappa)
    m = grid.n_x - 2
    surf = [np.asarray(w_terminal, dtype=float)]
    for k in range(dts.size):
        dt, theta = dts[k], thetas[k]
        ab = np.zeros((3, m))
        ab[0, 1:] = theta * dt * up[:-1]
        ab[1] = 1.0 + theta * dt * di
        ab[2, :-1] = theta * dt * lo[1:]
        u_next = surf[k][1:-1]
        au = di * u_next
        au[1:] += lo[1:] * u_next[:-1]
        au[:-1] += up[:-1] * u_next[1:]
        rhs0 = u_next - (1.0 - theta) * dt * au
        if theta < 1.0:
            rhs0 = rhs0 + (1.0 - theta) * dt * source_at(k, surf[k])
        if k == 0:
            u = u_next.copy()
        else:
            u = u_next + dts[k] / dts[k - 1] * (u_next - surf[k - 1][1:-1])
        for _ in range(PICARD_MAX_ITER):
            rhs = rhs0 + theta * dt * source_at(k + 1, _extend(u))
            u_new = solve_banded((1, 1), ab, rhs)
            delta = np.max(np.abs(u_new - u))
            u = u_new
            if delta < PICARD_TOL:
                break
        else:
            raise AssertionError(f"reference march did not settle at step {k}")
        surf.append(_extend(u))
    return np.array(surf)


class TestRearrangedSource:
    def _case(self, side, seed):
        # random piecewise-linear reference and wealth slices: slopes stay
        # of the size a solve produces, so neither form loses digits
        rng = np.random.default_rng(seed)
        n_x, dx = 201, 0.02
        x = dx * np.arange(n_x)
        knots = np.linspace(0.0, x[-1], 13)

        def rough():
            return np.interp(x, knots, rng.uniform(-1.0, 1.0, knots.size))

        bench = np.stack([rough(), rough()])
        terms = SemilinearTerms(sides=(side,), cfg=KINK_MARKET, bench_sched=bench)
        y_level, _ = terms.level_terms(1)
        w = rough()
        w[1:-1] += y_level
        # the march's slices: edges on the linear extension of the interior
        return terms, bench[1], _extend(w[1:-1]), dx

    @pytest.mark.parametrize("side", [+1, -1])
    def test_level_split_matches_the_driver_form(self, side):
        for seed in range(20):
            terms, bench_row, w, dx = self._case(side, seed)
            level = terms.level_terms(1)
            # every kink is active: reference, funding balance and slope
            # take both signs
            funding = level[0] - w[1:-1]
            slope = w[2:] - w[:-2]
            for arr in (bench_row, funding, slope):
                assert arr.min() < 0.0 < arr.max()
            # G as the march sees it, frozen at the slice's own branch set:
            # its constant part minus the operator M u whose node-wise
            # convection and rate carry the rest (A = 0 has none of its own)
            branch = terms.branches(level, w)
            a, kappa = terms.frozen_coefficients(branch, 0, 0.0, 0.0)
            lo, di, up = reduced_operator(w.size, dx, a, 0.0, kappa)
            u = w[1:-1]
            mu = di * u
            mu[1:] += lo[1:] * u[:-1]
            mu[:-1] += up[:-1] * u[1:]
            # the march carries the linear rate in kappa, not in the source
            got = (terms.frozen_source(level, branch) - mu
                   - linear_rate(KINK_MARKET) * u)
            want = _driver_source(side, KINK_MARKET, dx, bench_row, w)
            scale = _term_scale(KINK_MARKET, dx, bench_row, w)
            assert np.max(np.abs(got - want)) <= 1e-15 * scale

    @pytest.mark.parametrize("side", ["seller", "buyer"])
    def test_march_matches_a_banded_driver_march(self, side, solver):
        # the banded march applies A and the driver form of G directly in
        # every explicit half; march_schedule takes them from the last solve
        grid = build_grid(KINK_CLAIM, KINK_MARKET, n_x=101, n_t=50)
        bench = benchmark_surface(grid, KINK_CLAIM, KINK_MARKET, solver)
        assert bench.values.min() < 0.0 < bench.values.max()
        m = KINK_MARKET
        w_t = terminal_slice(KINK_CLAIM, grid)
        want_ref = _banded_march(w_t, grid, solver, a_eff=m.r_D - 0.5 * m.sigma ** 2,
                                 b=0.5 * m.sigma ** 2, kappa=m.r_D,
                                 source_at=lambda level, w_full: 0.0)
        assert np.max(np.abs(bench.sched_values - want_ref)) < 1e-12

        sign = +1 if side == "seller" else -1
        m_fold, _ = repo_drift_split(m)
        kw = dict(a_eff=m.r_D - 0.5 * m.sigma ** 2 - m_fold, b=0.5 * m.sigma ** 2)
        kappa = m.h_I_Q + m.h_C_Q

        def source_at(level, w_full):
            return _driver_source(sign, m, grid.dx, bench.sched_values[level], w_full)

        want = _banded_march(w_t, grid, solver, kappa=kappa, source_at=source_at,
                             **kw)
        terms = SemilinearTerms(sides=(sign,), cfg=m, bench_sched=bench.sched_values)
        (got,) = march_schedule(w_t, grid, solver, terms=terms,
                                kappa=kappa + linear_rate(m), **kw)
        got = got.sched_values
        assert np.max(np.abs(got - want)) < 1e-12
        surf = solve_semilinear(KINK_CLAIM, m, bench, side=side)
        assert np.array_equal(surf.values[::-1], got[[0, *range(2, grid.n_t + 2)]])


class TestMarchSchedule:
    def test_shapes_and_diagnostics(self, call_claim, market, solver):
        grid = build_grid(call_claim, market, n_x=101, n_t=8)
        w_t = terminal_slice(call_claim, grid)
        (surf,) = march_schedule(w_t, grid, solver, a_eff=-0.01, b=0.02, kappa=0.0)
        assert (surf.grid, surf.solver) == (grid, solver)
        assert surf.sched_times.shape == (grid.n_t + 2,)  # extra Rannacher half level
        assert surf.sched_values.shape == (grid.n_t + 2, grid.n_x)
        assert np.array_equal(surf.sched_values[0], w_t)
        diag = surf.diagnostics
        assert diag.iterations.shape == (grid.n_t + 1,)
        assert diag.factors.shape == (grid.n_t + 1,)
        assert diag.iterations.max() >= 1

    @pytest.mark.parametrize("solver, n_factors", [
        (SolverConfig(), 1), (SolverConfig(theta_scheme=0.6), 2)],
        ids=["default", "theta_0.6"])
    def test_reference_march_factors_once_per_theta_phase(
        self, call_claim, market, solver, n_factors
    ):
        # the Rannacher half steps at theta = 1 have theta dt = dt/2, the
        # same float as the Crank-Nicolson steps after them
        grid = build_grid(call_claim, market, n_x=101, n_t=50)
        bench = benchmark_surface(grid, call_claim, market, solver)
        assert bench.diagnostics.factors.sum() == n_factors
        assert bench.diagnostics.factors[0] == 1


class TestSolveSemilinear:
    def test_symmetric_rates_collapse_to_the_reference(
        self, call_claim, symmetric_market, small_grid, solver
    ):
        bench = benchmark_surface(small_grid, call_claim, symmetric_market, solver)
        for side in ("seller", "buyer"):
            surf = solve_semilinear(call_claim, symmetric_market, bench, side=side)
            assert np.max(np.abs(surf.values - bench.values)) < 1e-10

    def test_zero_payoff_prices_to_zero(self, market, small_grid, solver):
        claim = ClaimSpec.custom([(1.0, 0.0)], maturity=1.0)
        bench = benchmark_surface(small_grid, claim, market, solver)
        surf = solve_semilinear(claim, market, bench, side="seller")
        assert np.all(surf.values == 0.0)

    def test_seller_value_sits_above_the_reference_here(
        self, call_claim, market, medium_grid, solver
    ):
        bench = benchmark_surface(medium_grid, call_claim, market, solver)
        surf = solve_semilinear(call_claim, market, bench, side="seller")
        assert surf.value_at(0.0, 1.0) > bench.value_at(0.0, 1.0)

    def test_comparison_principle_in_the_terminal_data(
        self, call_claim, market, small_grid, solver
    ):
        # same dynamics, same reference surface, terminal data shifted up by
        # 0.01 everywhere => the solution may never drop below the original
        shifted = ClaimSpec.custom(
            [(0.01, 0.01), (1.0, 0.01), (5.0, 4.01)], maturity=1.0
        )
        bench = benchmark_surface(small_grid, call_claim, market, solver)
        lo = solve_semilinear(call_claim, market, bench, side="seller")
        hi = solve_semilinear(shifted, market, bench, side="seller")
        assert np.min(hi.values - lo.values) > -1e-10

    def test_edges_stay_on_the_linear_extension(
        self, call_claim, market, small_grid, solver
    ):
        bench = benchmark_surface(small_grid, call_claim, market, solver)
        surf = solve_semilinear(call_claim, market, bench, side="seller")
        v = surf.values[:-1]  # last row is raw payoff data, not a solved slice
        left = np.abs(v[:, 0] - 2.0 * v[:, 1] + v[:, 2])
        right = np.abs(v[:, -1] - 2.0 * v[:, -2] + v[:, -3])
        assert left.max() < 1e-12
        assert right.max() < 1e-12

    def test_bitwise_deterministic(self, call_claim, market, solver):
        grid = build_grid(call_claim, market, n_x=201, n_t=50)
        bench = benchmark_surface(grid, call_claim, market, solver)
        a = solve_semilinear(call_claim, market, bench, side="buyer")
        b = solve_semilinear(call_claim, market, bench, side="buyer")
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("side", ["seller", "buyer"])
    def test_base_market_call_takes_few_solves_per_step(
        self, call_claim, market, small_grid, solver, side
    ):
        bench = benchmark_surface(small_grid, call_claim, market, solver)
        surf = solve_semilinear(call_claim, market, bench, side=side)
        assert surf.diagnostics.iterations.mean() <= 2.0
        assert surf.diagnostics.iterations.max() <= 3
        # each step starts from the last settled branch set and reuses its
        # factor: 0.525 (seller) and 0.515 (buyer) factors per step, against
        # 0.64 and 0.61 if theta dt takes two values an ulp apart, and 0.81
        # and 0.80 from an extrapolated branch prediction
        assert surf.diagnostics.factors.mean() <= 0.55

    @pytest.mark.parametrize("h, n_t", [(20.0, 10), (40.0, 10), (10.0, 20)])
    @pytest.mark.parametrize("kind", ["call", "put"])
    def test_stress_intensities_settle(self, h, n_t, kind, solver):
        # large intensities on coarse time steps, where a fixed-point
        # iteration of the step stops contracting
        cfg = replace(DEFAULT_MARKET, h_I_Q=h, h_C_Q=h)
        claim = ClaimSpec(kind=kind, strike=1.0, maturity=1.0)
        grid = build_grid(claim, cfg, n_x=401, n_t=n_t)
        bench = benchmark_surface(grid, claim, cfg, solver)
        for side in ("seller", "buyer"):
            surf = solve_semilinear(claim, cfg, bench, side=side)
            assert surf.diagnostics.iterations.max() <= 3
            assert np.isfinite(surf.values).all()

    @pytest.mark.parametrize("side", ["seller", "buyer"])
    def test_bull_spread_plateau_settles(self, side, solver, monkeypatch):
        # the slope on the upper plateau is rounding noise; its sign must
        # not count as a flip, or the branch solve cycles
        grid = build_grid(BULL_CLAIM, KINK_MARKET, n_x=201, n_t=100)
        bench = benchmark_surface(grid, BULL_CLAIM, KINK_MARKET, solver)
        surf = solve_semilinear(BULL_CLAIM, KINK_MARKET, bench, side=side)
        assert surf.diagnostics.iterations.max() <= 3
        monkeypatch.setattr(pde, "_FLIP_RTOL", 0.0)
        with pytest.raises(RuntimeError, match="did not settle"):
            solve_semilinear(BULL_CLAIM, KINK_MARKET, bench, side=side)

    def test_capped_step_names_its_step_time_and_flips(
        self, call_claim, market, small_grid, solver, monkeypatch
    ):
        bench = benchmark_surface(small_grid, call_claim, market, solver)
        surf = solve_semilinear(call_claim, market, bench, side="seller")
        diag = surf.diagnostics
        assert diag.iterations.max() == 2
        k = int(np.argmax(diag.iterations == 2))
        monkeypatch.setattr(pde, "MAX_SOLVES_PER_STEP", 1)
        with pytest.raises(RuntimeError) as exc:
            solve_semilinear(call_claim, market, bench, side="seller")
        msg = str(exc.value)
        assert f"at step {k} (t = {surf.sched_times[k + 1]:.6g})" in msg
        n_flips = int(msg.split(": ")[1].split()[0])
        assert n_flips >= 1
        assert f"{n_flips} nodes still flipped after 1 linear solves" in msg

    @pytest.mark.parametrize("claim, cfg", [
        (ClaimSpec.call(strike=1.0, maturity=1.0), DEFAULT_MARKET),
        (KINK_CLAIM, KINK_MARKET), (BULL_CLAIM, KINK_MARKET)],
        ids=["base_call", "kink", "bull_spread"])
    def test_two_side_march_equals_the_one_side_marches(self, claim, cfg, solver):
        # the blocks of the stacked system share no pivot, so each side's
        # surface, solves and factors are bitwise those of its own march,
        # also where one side settles a step before the other: every solve
        # covers both blocks, so the settled side is solved again, from its
        # unchanged rows, after the other side's refactor
        grid = build_grid(claim, cfg, n_x=201, n_t=100)
        bench = benchmark_surface(grid, claim, cfg, solver)
        both = solve_sides(claim, cfg, bench)
        iters = []
        for side, got in zip(("seller", "buyer"), both):
            want = solve_semilinear(claim, cfg, bench, side=side)
            assert np.array_equal(got.sched_values, want.sched_values)
            assert np.array_equal(got.diagnostics.iterations, want.diagnostics.iterations)
            assert np.array_equal(got.diagnostics.factors, want.diagnostics.factors)
            iters.append(got.diagnostics.iterations)
        # some step solves the settled buyer again while the seller flips,
        # and some the settled seller while the buyer flips
        assert np.any(iters[0] > iters[1])
        assert np.any(iters[1] > iters[0])

    def test_one_halving_shrinks_the_error_about_fourfold(
        self, call_claim, market, solver
    ):
        # second-order scheme: error ratio between (201,100) and (401,200)
        # sits near 4 (measured 4.008); the acceptance suite fits the full
        # convergence order over three halvings
        from xvaband import bs_closed_form

        errs = []
        exact = bs_closed_form(0.0, 1.0, call_claim, market.r_D, market.sigma)
        for n_x, n_t in [(201, 100), (401, 200)]:
            grid = build_grid(call_claim, market, n_x=n_x, n_t=n_t)
            bench = benchmark_surface(grid, call_claim, market, solver)
            errs.append(abs(bench.value_at(0.0, 1.0) - exact))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_rejects_bad_side(self, call_claim, market, small_grid):
        bench = benchmark_surface(small_grid, call_claim, market)
        with pytest.raises(ValueError, match="side"):
            solve_semilinear(call_claim, market, bench, side="dealer")

    def test_rejects_maturity_mismatch(self, call_claim, market, small_grid):
        # the reference matures at 1.0, the claim at 0.5
        bench = benchmark_surface(small_grid, call_claim, market)
        claim = ClaimSpec.call(strike=1.0, maturity=0.5)
        with pytest.raises(ValueError, match="maturity"):
            solve_semilinear(claim, market, bench)

    def test_arbitrage_configs_need_the_override(
        self, call_claim, market, small_grid, solver
    ):
        bad = replace(market, r_f_minus=0.2)
        bench = benchmark_surface(small_grid, call_claim, bad, solver)
        with pytest.raises(ArbitrageViolationError):
            solve_semilinear(call_claim, bad, bench)
        with pytest.warns(RuntimeWarning, match="arbitrage"):
            surf = solve_semilinear(call_claim, bad, bench, allow_arbitrage=True)
        assert np.isfinite(surf.values).all()
