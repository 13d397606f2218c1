"""Lattice construction, schedules, and surface interpolation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from xvaband import ClaimSpec, GridSpec, SolverConfig, build_grid
from xvaband.grid import (
    SolveDiagnostics,
    Surface,
    time_schedule,
    uniform_row_indices,
)


class TestGridSpec:
    def test_default_lattice_spacing(self, call_claim, market):
        grid = build_grid(call_claim, market)
        assert grid.n_x == 801
        assert grid.n_t == 400
        assert grid.x_min == pytest.approx(-1.2)
        assert grid.x_max == pytest.approx(1.2)
        assert grid.dx == pytest.approx(0.003)
        assert grid.dt == pytest.approx(0.0025)

    def test_center_is_a_node(self, call_claim, market):
        grid = build_grid(call_claim, market, n_x=401, n_t=200)
        xs = grid.x_nodes()
        center = math.log(call_claim.strike)
        assert abs(xs - center).min() < 1e-14

    def test_even_point_count_bumped_to_odd(self, call_claim, market):
        grid = build_grid(call_claim, market, n_x=400, n_t=100)
        assert grid.n_x == 401

    def test_width_scales_with_vol_and_maturity(self, market):
        claim = ClaimSpec.call(strike=1.0, maturity=0.25)
        cfg = replace(market, sigma=0.4)
        grid = build_grid(claim, cfg)
        # half-width = 6 * 0.4 * sqrt(0.25) = 1.2
        assert grid.x_max == pytest.approx(1.2)
        assert grid.maturity == pytest.approx(0.25)

    def test_custom_claim_without_strike_centres_on_knots(self, market):
        claim = ClaimSpec.custom([(0.5, 0.5), (2.0, 2.0)], maturity=1.0)
        grid = build_grid(claim, market, n_x=101, n_t=10)
        assert 0.5 * (grid.x_min + grid.x_max) == pytest.approx(0.0, abs=1e-14)

    def test_nodes_match_spec(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=4, maturity=1.0)
        assert np.allclose(grid.x_nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert np.allclose(grid.t_nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=0.0, x_max=0.0, n_x=5, n_t=4, maturity=1.0),
            dict(x_min=1.0, x_max=-1.0, n_x=5, n_t=4, maturity=1.0),
            dict(x_min=-1.0, x_max=1.0, n_x=2, n_t=4, maturity=1.0),
            dict(x_min=-1.0, x_max=1.0, n_x=5, n_t=0, maturity=1.0),
            dict(x_min=-1.0, x_max=1.0, n_x=5, n_t=4, maturity=0.0),
            dict(x_min=float("nan"), x_max=1.0, n_x=5, n_t=4, maturity=1.0),
            dict(x_min=-1.0, x_max=1.0, n_x=3, n_t=4, maturity=1.0),
            dict(x_min=-1.0, x_max=1.0, n_x=4, n_t=4, maturity=1.0),
        ],
    )
    def test_rejects_bad_lattices(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)

    def test_rejects_nonpositive_width(self, call_claim, market):
        with pytest.raises(ValueError, match="width_sigmas"):
            build_grid(call_claim, market, width_sigmas=0.0)


class TestSolverConfig:
    def test_defaults(self):
        solver = SolverConfig()
        assert solver.theta_scheme == 0.5
        assert solver.rannacher is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta_scheme=float("nan")),
            dict(theta_scheme=float("inf")),
            dict(theta_scheme=-0.1),
            dict(theta_scheme=1.1),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSchedule:
    def test_rannacher_schedule_inserts_half_level(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=4, maturity=1.0)
        times, thetas = time_schedule(grid, SolverConfig(rannacher=True))
        assert np.allclose(times, [1.0, 0.875, 0.75, 0.5, 0.25, 0.0])
        assert np.allclose(thetas, [1.0, 1.0, 0.5, 0.5, 0.5])
        assert len(times) == len(thetas) + 1

    def test_plain_schedule(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=4, maturity=1.0)
        times, thetas = time_schedule(grid, SolverConfig(rannacher=False, theta_scheme=0.7))
        assert np.allclose(times, [1.0, 0.75, 0.5, 0.25, 0.0])
        assert np.allclose(thetas, [0.7, 0.7, 0.7, 0.7])

    @pytest.mark.parametrize("rannacher", [True, False])
    def test_uniform_rows_recover_the_time_grid(self, rannacher):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=7, maturity=1.0)
        solver = SolverConfig(rannacher=rannacher)
        times, _ = time_schedule(grid, solver)
        rows = uniform_row_indices(grid, solver)
        assert rows.shape == (grid.n_t + 1,)
        assert np.allclose(times[rows], grid.t_nodes())


class TestSurface:
    GRID = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=2, maturity=1.0)

    def _sched_values(self, solver):
        # w(t, x) = t + x on every march level, linear in both directions
        times, _ = time_schedule(self.GRID, solver)
        return times[:, None] + self.GRID.x_nodes()[None, :]

    def _surface(self, solver=SolverConfig()):
        diag = SolveDiagnostics(step_times=np.array([]), iterations=np.array([]),
                                factors=np.array([]))
        return Surface(grid=self.GRID, solver=solver,
                       sched_values=self._sched_values(solver), diagnostics=diag)

    def test_shape_mismatch_rejected(self):
        surf = self._surface()
        with pytest.raises(ValueError, match="shape"):
            Surface(grid=surf.grid, solver=surf.solver,
                    sched_values=surf.sched_values[:, :-1],
                    diagnostics=surf.diagnostics)
        # a schedule without the Rannacher half level has one row fewer
        with pytest.raises(ValueError, match="shape"):
            Surface(grid=surf.grid, solver=SolverConfig(rannacher=False),
                    sched_values=surf.sched_values, diagnostics=surf.diagnostics)

    @pytest.mark.parametrize("rannacher", [True, False])
    def test_uniform_values_follow_the_time_grid(self, rannacher):
        surf = self._surface(SolverConfig(rannacher=rannacher))
        assert np.array_equal(surf.sched_times, time_schedule(surf.grid, surf.solver)[0])
        want = self.GRID.t_nodes()[:, None] + self.GRID.x_nodes()[None, :]
        assert np.allclose(surf.values, want, atol=1e-15)
        # values is a fresh copy: writing to it leaves the march rows alone
        surf.values[:] = np.nan
        assert np.isfinite(surf.sched_values).all()

    def test_bilinear_interpolation_is_exact_on_linear_data(self):
        surf = self._surface()
        for t, s in [(0.0, 1.0), (0.25, 1.3), (1.0, math.exp(-1.0)), (0.6, 0.8)]:
            expect = t + math.log(s)
            assert surf.value_at(t, s) == pytest.approx(expect, abs=1e-12)
            assert surf.slope_at(t, s) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_queries_rejected(self):
        surf = self._surface()
        with pytest.raises(ValueError, match="outside"):
            surf.value_at(1.5, 1.0)
        with pytest.raises(ValueError, match="outside"):
            surf.value_at(0.5, math.exp(1.5))
        with pytest.raises(ValueError, match="positive"):
            surf.slope_at(0.5, -1.0)


class TestDiagnostics:
    def test_records_and_max(self):
        diag = SolveDiagnostics(
            step_times=np.array([1.0, 0.5, 0.0]),
            iterations=np.array([2, 4, 3]),
            factors=np.array([1, 0, 2]),
        )
        assert diag.max_iterations() == 4
        recs = diag.to_records()
        assert [r["linear_solves"] for r in recs] == [2, 4, 3]
        assert [r["factors"] for r in recs] == [1, 0, 2]
        assert set(recs[0]) == {"step", "t", "linear_solves", "factors"}
        assert recs[1]["t"] == 0.5
        assert recs[0]["step"] == 0

    def test_empty(self):
        diag = SolveDiagnostics(
            step_times=np.array([]), iterations=np.array([]),
            factors=np.array([]),
        )
        assert diag.max_iterations() == 0
        assert diag.to_records() == []
