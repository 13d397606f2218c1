"""Lattice construction, schedules, and surface interpolation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from xvaband import ClaimSpec, GridSpec, SolverConfig, build_grid
from xvaband.grid import (
    SolveDiagnostics,
    Surface,
    _space_weights,
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

    @pytest.mark.parametrize("field", ["n_x", "n_t"])
    @pytest.mark.parametrize("count", [801.0, True, np.bool_(False), "801"])
    def test_rejects_non_integer_counts(self, field, count):
        kwargs = dict(x_min=-1.0, x_max=1.0, n_x=5, n_t=4, maturity=1.0)
        kwargs[field] = count
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            GridSpec(**kwargs)

    @pytest.mark.parametrize("field", ["x_min", "x_max", "maturity"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), "1.0", None])
    def test_rejects_a_non_number(self, field, value):
        kwargs = dict(x_min=-1.0, x_max=2.0, n_x=5, n_t=4, maturity=1.0)
        kwargs[field] = value
        with pytest.raises(TypeError, match=f"{field} must be a number"):
            GridSpec(**kwargs)

    def test_accepts_numpy_integer_counts(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=np.int64(5), n_t=np.int32(4),
                        maturity=1.0)
        assert np.allclose(grid.x_nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert grid.dt == 0.25

    def test_build_grid_rejects_a_float_node_count(self, call_claim, market):
        with pytest.raises(TypeError, match="n_x must be an integer"):
            build_grid(call_claim, market, n_x=801.0)

    @pytest.mark.parametrize("n_x, text", [(800.0, "800.0"), ("801", "'801'")])
    def test_build_grid_names_the_callers_node_count(self, call_claim, market, n_x, text):
        # 800.0 was named as 801.0, the bumped count, and "801" failed in
        # the bump's string formatting
        with pytest.raises(TypeError, match=f"^n_x must be an integer, got {text}$"):
            build_grid(call_claim, market, n_x=n_x)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "6.0", None])
    def test_build_grid_rejects_a_non_number_width(self, call_claim, market, value):
        # True built a lattice 1 sigma sqrt(T) wide
        with pytest.raises(TypeError, match="width_sigmas must be a number"):
            build_grid(call_claim, market, width_sigmas=value)

    def test_rejects_nonpositive_width(self, call_claim, market):
        with pytest.raises(ValueError, match="width_sigmas"):
            build_grid(call_claim, market, width_sigmas=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_width(self, call_claim, market, value):
        # GridSpec raised "grid bounds must be finite", naming neither
        with pytest.raises(ValueError, match=f"width_sigmas .*got {value}$"):
            build_grid(call_claim, market, width_sigmas=value)


class TestSolverConfig:
    def test_defaults(self):
        solver = SolverConfig()
        assert solver.theta_scheme == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta_scheme=float("nan")),
            dict(theta_scheme=float("inf")),
            dict(theta_scheme=-0.1),
            dict(theta_scheme=1.1),
            # below 1/2 the scheme is unstable on the production lattice
            dict(theta_scheme=0.0),
            dict(theta_scheme=0.3),
            dict(theta_scheme=0.49),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError, match="theta_scheme"):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None])
    def test_rejects_a_non_number(self, value):
        # True marched fully implicit (theta = 1)
        with pytest.raises(TypeError, match="theta_scheme must be a number"):
            SolverConfig(theta_scheme=value)


class TestSchedule:
    def test_rannacher_schedule_inserts_half_level(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=4, maturity=1.0)
        times, dts, thetas = time_schedule(grid, SolverConfig())
        assert np.allclose(times, [1.0, 0.875, 0.75, 0.5, 0.25, 0.0])
        assert np.allclose(thetas, [1.0, 1.0, 0.5, 0.5, 0.5])
        assert len(times) == len(dts) + 1 == len(thetas) + 1
        # theta_scheme weights only the steps after the startup
        thetas = time_schedule(grid, SolverConfig(theta_scheme=0.7))[2]
        assert np.array_equal(thetas, [1.0, 1.0, 0.7, 0.7, 0.7])

    def test_single_step_is_the_startup_alone(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=1, maturity=1.0)
        times, dts, thetas = time_schedule(grid, SolverConfig(theta_scheme=0.7))
        assert np.array_equal(times, [1.0, 0.5, 0.0])
        assert np.array_equal(dts, [0.5, 0.5])
        assert np.array_equal(thetas, [1.0, 1.0])

    def test_step_lengths_are_exact(self):
        # differences of the linspace times are an ulp off dt on some steps;
        # the lengths are not, so theta dt takes one value per theta phase
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=400, maturity=1.3)
        times, dts, _ = time_schedule(grid, SolverConfig())
        assert np.array_equal(dts[:2], [0.5 * grid.dt] * 2)
        assert np.array_equal(dts[2:], np.full(grid.n_t - 1, grid.dt))
        assert np.allclose(times[:-1] - times[1:], dts, rtol=1e-12, atol=0.0)

    def test_uniform_rows_recover_the_time_grid(self):
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=7, maturity=1.0)
        times = time_schedule(grid, SolverConfig())[0]
        rows = uniform_row_indices(grid)
        assert rows.shape == (grid.n_t + 1,)
        assert np.allclose(times[rows], grid.t_nodes())


class TestSurface:
    GRID = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=2, maturity=1.0)

    def _surface(self):
        # w(t, x) = t + x on every march level, linear in both directions
        solver = SolverConfig()
        times = time_schedule(self.GRID, solver)[0]
        diag = SolveDiagnostics(iterations=np.array([]), factors=np.array([]))
        return Surface(grid=self.GRID, solver=solver,
                       sched_values=times[:, None] + self.GRID.x_nodes()[None, :],
                       diagnostics=diag)

    def test_shape_mismatch_rejected(self):
        surf = self._surface()
        with pytest.raises(ValueError, match="shape"):
            Surface(grid=surf.grid, solver=surf.solver,
                    sched_values=surf.sched_values[:, :-1],
                    diagnostics=surf.diagnostics)
        # rows on the uniform levels alone miss the Rannacher half level
        with pytest.raises(ValueError, match="shape"):
            Surface(grid=surf.grid, solver=surf.solver,
                    sched_values=surf.values[::-1], diagnostics=surf.diagnostics)

    def test_uniform_values_follow_the_time_grid(self):
        surf = self._surface()
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

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("frac", [0.25, 0.6])
    @pytest.mark.parametrize("j0", [0, 3, 7])
    def test_slope_is_the_central_and_one_sided_quotients(self, level, frac, j0):
        # a curved row, so the quotients differ from node to node; j0 = 0 and
        # n_x - 2 put one node of the interval on the one-sided edge
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=9, n_t=2, maturity=1.0)
        solver = SolverConfig()
        times = time_schedule(grid, solver)[0]
        x = grid.x_nodes()
        surf = Surface(grid=grid, solver=solver,
                       sched_values=np.exp(times[:, None] + np.sin(3.0 * x)[None, :]),
                       diagnostics=SolveDiagnostics(iterations=np.array([]),
                                                    factors=np.array([])))
        t = level * grid.dt
        s = math.exp(grid.x_min + (j0 + frac) * grid.dx)
        k0, k1, wx = _space_weights(grid, s)
        assert k0 == j0
        row, dx, n = surf.values[level], grid.dx, grid.n_x

        def quotient(j):
            if j == 0:
                return (row[1] - row[0]) / dx
            if j == n - 1:
                return (row[n - 1] - row[n - 2]) / dx
            return (row[j + 1] - row[j - 1]) / (2.0 * dx)

        assert surf.slope_at(t, s) == (1.0 - wx) * quotient(k0) + wx * quotient(k1)

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
        # n_t = 2 with the Rannacher half step: three steps to t = 0.75, 0.5, 0
        grid = GridSpec(x_min=-1.0, x_max=1.0, n_x=5, n_t=2, maturity=1.0)
        diag = SolveDiagnostics(iterations=np.array([2, 4, 3]),
                                factors=np.array([1, 0, 2]))
        surf = Surface(grid=grid, solver=SolverConfig(),
                       sched_values=np.zeros((4, 5)), diagnostics=diag)
        assert diag.iterations.max() == 4
        recs = surf.step_records()
        assert [r["linear_solves"] for r in recs] == [2, 4, 3]
        assert [r["factors"] for r in recs] == [1, 0, 2]
        assert set(recs[0]) == {"step", "t", "linear_solves", "factors"}
        assert [r["t"] for r in recs] == [0.75, 0.5, 0.0]
        assert all(type(r["t"]) is float for r in recs)
        assert [r["step"] for r in recs] == [0, 1, 2]
