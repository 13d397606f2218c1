"""Both sides are classical solutions away from maturity.

The paper's main result is a unique classical solution: each side's value
w is C^{1,2} for t < T, though its driver has kinks in the funding balance
and in the slope.  On lattices that halve dx and dt together, the second
difference Γ = δ²w/dx² and the central slope of a smooth solution
converge at second order, so each halving cuts their change by about 4.
These tests gate that ratio on the base call and on a market whose
funding kink crosses the spot range, at t = 0 and t = T/2.  A control one
step before maturity, where Γ grows like 1/√(T - t) at the payoff's kink,
shows that the gate can fail.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from xvaband import DEFAULT_MARKET, build_grid, solve_trade
from xvaband.driver import financing_level, level_coefficients

#: (n_x, n_t) of the three lattices; each halves the last one's dx and dt
LEVELS = ((201, 100), (401, 200), (801, 400))
#: least ratio of successive changes; second order gives 4 (4.00-4.02 measured)
BOUND = 3.5
#: unequal repo rates and a funding kink: the seller's funding balance
#: changes sign at spot 0.90 and the buyer's at 0.67
KINKED = replace(DEFAULT_MARKET, r_r_plus=0.04, r_r_minus=0.06, alpha=0.5, r_f_minus=0.12)
SPOTS = (0.6, 1.6)
SIDES = ("seller", "buyer")


@pytest.fixture(scope="module", params=["base", "kinked"])
def refinements(request, call_claim):
    """The trade solved on each of :data:`LEVELS`."""
    cfg = DEFAULT_MARKET if request.param == "base" else KINKED
    return [solve_trade(call_claim, cfg, build_grid(call_claim, cfg, n_x=n_x, n_t=n_t))
            for n_x, n_t in LEVELS]


def _change_ratios(sols, side, level):
    """Ratios of the successive changes in Γ and in the slope between the
    lattices, at uniform level ``level(grid)``, over the coarsest lattice's
    nodes with spot in :data:`SPOTS` (nodes of every lattice)."""
    coarse = sols[0].benchmark.grid
    x = coarse.x_nodes()
    nodes = np.flatnonzero((x >= math.log(SPOTS[0])) & (x <= math.log(SPOTS[1])))
    gammas, slopes = [], []
    for sol in sols:
        grid = sol.benchmark.grid
        j = nodes * ((grid.n_x - 1) // (coarse.n_x - 1))
        row = getattr(sol, side).values[level(grid)]
        gammas.append((row[j + 1] - 2.0 * row[j] + row[j - 1]) / grid.dx ** 2)
        slopes.append((row[j + 1] - row[j - 1]) / (2.0 * grid.dx))

    def ratio(values):
        first, second = (np.abs(b - a).max() for a, b in zip(values, values[1:]))
        return first / second

    return ratio(gammas), ratio(slopes)


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("level", [lambda g: 0, lambda g: g.n_t // 2], ids=["t=0", "t=T/2"])
def test_gamma_and_slope_converge_at_second_order(refinements, side, level):
    gamma, slope = _change_ratios(refinements, side, level)
    assert gamma >= BOUND, f"Γ's changes shrink by {gamma:.2f} per halving"
    assert slope >= BOUND, f"the slope's changes shrink by {slope:.2f} per halving"


@pytest.mark.parametrize("side", SIDES)
def test_control_one_step_before_maturity_fails_the_gate(refinements, side):
    # 0.73 and 1.04 measured: the kink has not smoothed out yet
    gamma, slope = _change_ratios(refinements, side, lambda g: g.n_t - 1)
    assert gamma < BOUND and slope < BOUND


def test_the_kinked_funding_balance_changes_sign_in_the_spot_range(call_claim):
    grid = build_grid(call_claim, KINKED, n_x=201, n_t=100)
    sol = solve_trade(call_claim, KINKED, grid)
    x = grid.x_nodes()
    inside = (x >= math.log(SPOTS[0])) & (x <= math.log(SPOTS[1]))
    y, _ = financing_level(level_coefficients(KINKED, +1), sol.benchmark.values[0])
    for side in SIDES:
        balance = (y - getattr(sol, side).values[0])[inside]
        assert balance.min() < 0.0 < balance.max(), side
