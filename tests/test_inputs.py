"""Every public numeric input, fed the same bad values from one table.

Each row names an entry, the field its errors must name, a call that
passes one value to that field (every other input admissible), and the
values of ``VALUES`` the field admits.  Every other value must raise a
``TypeError`` or ``ValueError`` naming the field and the value, before
any march.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from xvaband import (
    DEFAULT_MARKET,
    ClaimSpec,
    GridSpec,
    MarketConfig,
    SolverConfig,
    Surface,
    SweepAxis,
    SweepSpec,
    TreeSpec,
    bs_closed_form,
    build_grid,
    compute_xva,
    run_sweep,
)
from xvaband.grid import SolveDiagnostics, reporting_spot

VALUES = [True, "1", math.nan, math.inf, -math.inf, 0, -1]

CALL = ClaimSpec.call(strike=1.0, maturity=1.0)
GRID = build_grid(CALL, DEFAULT_MARKET, n_x=51, n_t=10)
LATTICE = dict(x_min=-2.0, x_max=1.0, n_x=5, n_t=4, maturity=1.0)
SPEC = SweepSpec(claim=CALL, base=DEFAULT_MARKET, axis1=SweepAxis("alpha", (0.5,)))
SIGNED = (0, -1)  # a rate or a payoff value may be zero or negative
# a zero surface on GRID, made without a march
SURFACE = Surface(GRID, SolverConfig(), np.zeros((GRID.n_t + 2, GRID.n_x)),
                  SolveDiagnostics(np.zeros(GRID.n_t + 1), np.zeros(GRID.n_t + 1)))


def _market_row(name):
    if name.startswith("r_"):
        accepts = SIGNED
    else:  # sigma must be positive; an intensity or a fraction may be 0
        accepts = () if name == "sigma" else (0,)
    return ("MarketConfig", name, lambda v: replace(DEFAULT_MARKET, **{name: v}), accepts)


def _lattice_row(name):
    return ("GridSpec", name, lambda v: GridSpec(**{**LATTICE, name: v}),
            SIGNED if name in ("x_min", "x_max") else ())


TABLE = [
    *[_market_row(f.name) for f in fields(MarketConfig)],
    ("ClaimSpec", "strike", lambda v: ClaimSpec.call(strike=v, maturity=1.0), ()),
    ("ClaimSpec", "maturity", lambda v: ClaimSpec.call(strike=1.0, maturity=v), ()),
    ("ClaimSpec", "payoff knot spot",
     lambda v: ClaimSpec.custom([(v, 1.0)], maturity=1.0), ()),
    ("ClaimSpec", "payoff knot value",
     lambda v: ClaimSpec.custom([(1.0, v)], maturity=1.0), SIGNED),
    *[_lattice_row(f.name) for f in fields(GridSpec)],
    ("SolverConfig", "theta_scheme", lambda v: SolverConfig(theta_scheme=v), ()),
    ("build_grid", "width_sigmas",
     lambda v: build_grid(CALL, DEFAULT_MARKET, width_sigmas=v), ()),
    ("build_grid", "n_x", lambda v: build_grid(CALL, DEFAULT_MARKET, n_x=v), ()),
    ("build_grid", "n_t", lambda v: build_grid(CALL, DEFAULT_MARKET, n_t=v), ()),
    ("TreeSpec", "n_steps", lambda v: TreeSpec(n_steps=v, claim=CALL, cfg=DEFAULT_MARKET), ()),
    ("TreeSpec", "spot",
     lambda v: TreeSpec(n_steps=10, claim=CALL, cfg=DEFAULT_MARKET, spot=v), ()),
    ("run_sweep", "threads", lambda v: run_sweep(SPEC, GRID, threads=v), ()),
    ("reporting_spot", "spot", lambda v: reporting_spot(CALL, GRID, v), ()),
    ("compute_xva", "spot", lambda v: compute_xva(CALL, DEFAULT_MARKET, GRID, spot=v), ()),
    ("bs_closed_form", "t", lambda v: bs_closed_form(v, 1.0, CALL, DEFAULT_MARKET.r_D, 0.2),
     (0,)),
    ("Surface.value_at", "t", lambda v: SURFACE.value_at(v, 1.0), (0,)),
    ("bs_closed_form", "spot",
     lambda v: bs_closed_form(0.0, v, CALL, DEFAULT_MARKET.r_D, 0.2), ()),
    ("bs_closed_form", "r", lambda v: bs_closed_form(0.0, 1.0, CALL, v, 0.2), SIGNED),
    ("bs_closed_form", "sigma",
     lambda v: bs_closed_form(0.0, 1.0, CALL, DEFAULT_MARKET.r_D, v), ()),
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("entry, field, call, accepts", TABLE,
                         ids=[f"{row[0]}.{row[1]}" for row in TABLE])
def test_every_numeric_input_is_admitted_or_named(entry, field, call, accepts,
                                                  value, marches):
    if value in accepts:
        call(value)
    else:
        with pytest.raises((TypeError, ValueError)) as err:
            call(value)
        assert field in str(err.value) and f"got {value!r}" in str(err.value)
    assert marches == []


def test_the_table_covers_every_numeric_field_of_the_public_records():
    rows = {(entry, field) for entry, field, _, _ in TABLE}
    for record in (MarketConfig, GridSpec, SolverConfig):
        assert {(record.__name__, f.name) for f in fields(record)} <= rows
    assert {("TreeSpec", "n_steps"), ("TreeSpec", "spot")} <= rows
