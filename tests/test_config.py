"""Parameter records and no-arbitrage validation."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import xvaband
from xvaband import (
    ArbitrageViolationError,
    ClaimSpec,
    DEFAULT_MARKET,
    MarketConfig,
    apply_overrides,
    build_grid,
    load_market_config,
    validate_no_arbitrage,
)
from xvaband.config import market_config_from_dict
from xvaband.grid import reporting_spot


# --- MarketConfig validation -------------------------------------------------

def test_default_market_values():
    m = DEFAULT_MARKET
    assert (m.sigma, m.r_D) == (0.2, 0.01)
    assert (m.r_f_plus, m.r_f_minus) == (0.05, 0.08)
    assert (m.r_r_plus, m.r_r_minus) == (0.05, 0.05)
    assert (m.r_c_plus, m.r_c_minus) == (0.01, 0.01)
    assert (m.r_I, m.r_C) == (0.03, 0.04)
    assert (m.h_I_Q, m.h_C_Q) == (0.2, 0.15)
    assert (m.L_I, m.L_C, m.alpha) == (0.5, 0.5, 0.9)


@pytest.mark.parametrize("field,value", [
    ("sigma", 0.0),
    ("sigma", -0.1),
    ("h_I_Q", -0.01),
    ("h_C_Q", -1.0),
    ("L_I", -0.1),
    ("L_C", 1.5),
    ("alpha", -0.2),
    ("alpha", 1.2),
])
def test_market_config_rejects_out_of_range(field, value):
    with pytest.raises(ValueError):
        replace(DEFAULT_MARKET, **{field: value})


@pytest.mark.parametrize("field,value,message", [
    ("h_C_Q", -1.0, "h_C_Q must be >= 0, got -1.0"),
    ("h_I_Q", -0.01, "h_I_Q must be >= 0, got -0.01"),
    ("L_C", 1.5, "L_C must lie in [0, 1], got 1.5"),
    ("L_I", -0.1, "L_I must lie in [0, 1], got -0.1"),
])
def test_market_config_range_error_names_the_field_and_value(field, value, message):
    # the intensities and the loss fractions were named in pairs, valueless
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(DEFAULT_MARKET, **{field: value})


def test_market_config_stores_python_floats():
    # numpy scalars stayed: a comparison of two fields was a numpy.bool
    given = {f: np.float64(v) for f, v in asdict(DEFAULT_MARKET).items()}
    given.update(alpha=1, h_C_Q=0)
    cfg = MarketConfig(**given)
    assert all(type(getattr(cfg, f.name)) is float for f in fields(cfg))
    assert type(cfg.r_c_plus > cfg.r_c_minus) is bool
    assert cfg == replace(DEFAULT_MARKET, alpha=1.0, h_C_Q=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_market_config_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        replace(DEFAULT_MARKET, r_D=bad)


def test_market_config_rejects_non_numeric():
    with pytest.raises(TypeError):
        replace(DEFAULT_MARKET, r_D="0.01")
    with pytest.raises(TypeError):
        replace(DEFAULT_MARKET, alpha=True)


@pytest.mark.parametrize("value", [True, np.bool_(True), "0.2", None,
                                   np.int64(1), np.float32(0.2)])
def test_market_config_type_error_names_the_field(value):
    with pytest.raises(TypeError, match=re.escape(f"sigma must be a number, got {value!r}")):
        replace(DEFAULT_MARKET, sigma=value)


@pytest.mark.parametrize("value", [1, 0.25, np.float64(0.25)])
def test_market_config_accepts_ints_and_floats(value):
    assert replace(DEFAULT_MARKET, sigma=value).sigma == value


# --- ClaimSpec ---------------------------------------------------------------

def test_claim_constructors_and_payoffs():
    call = ClaimSpec.call(strike=1.0, maturity=1.0)
    put = ClaimSpec.put(strike=1.0, maturity=1.0)
    assert call.payoff(1.3) == pytest.approx(0.3)
    assert call.payoff(0.7) == 0.0
    assert put.payoff(0.7) == pytest.approx(0.3)
    assert put.payoff(1.3) == 0.0
    arr = call.payoff(np.array([0.5, 1.0, 2.0]))
    assert np.allclose(arr, [0.0, 0.0, 1.0])


def test_custom_payoff_interpolates_and_extrapolates():
    claim = ClaimSpec.custom([(1.0, 0.0), (2.0, 1.0)], maturity=1.0)
    assert claim.payoff(1.5) == pytest.approx(0.5)
    # end segments extend linearly instead of clamping
    assert claim.payoff(3.0) == pytest.approx(2.0)
    assert claim.payoff(0.5) == pytest.approx(-0.5)
    flat = ClaimSpec.custom([(1.0, 2.5)], maturity=1.0)
    assert flat.payoff(0.1) == 2.5
    assert flat.payoff(10.0) == 2.5


@pytest.mark.parametrize("kwargs", [
    dict(kind="swap"),
    dict(kind="call", strike=None),
    dict(kind="call", strike=-1.0),
    dict(kind="put", strike=0.0),
    dict(kind="call", strike=1.0, maturity=0.0),
    dict(kind="call", strike=1.0, maturity=-2.0),
    dict(kind="custom", knots=None),
    dict(kind="custom", knots=()),
    dict(kind="custom", knots=((1.0, 0.0), (1.0, 1.0))),   # not increasing
    dict(kind="custom", knots=((2.0, 0.0), (1.0, 1.0))),   # decreasing
    dict(kind="custom", knots=((-1.0, 0.0), (1.0, 1.0))),  # non-positive spot
    dict(kind="custom", knots=((1.0, float("nan")),)),
    # a custom claim's strike is checked as a call's is
    dict(kind="custom", strike=-1.0, knots=((0.5, 0.0), (2.0, 1.0))),
    dict(kind="custom", strike=0.0, knots=((0.5, 0.0), (2.0, 1.0))),
    dict(kind="custom", strike=float("nan"), knots=((0.5, 0.0), (2.0, 1.0))),
])
def test_claim_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ClaimSpec(**kwargs)


# a strike of None is a ValueError for a call (above)
@pytest.mark.parametrize("field,value", [
    *[("strike", v) for v in (True, np.bool_(True), "1.0")],
    *[("maturity", v) for v in (True, np.bool_(True), "1.0", None)],
])
def test_claim_rejects_a_non_number(field, value):
    # True would count as 1.0; a string failed without naming the field
    kwargs = dict(kind="call", strike=1.0, maturity=1.0)
    kwargs[field] = value
    with pytest.raises(TypeError, match=f"{field} must be a number"):
        ClaimSpec(**kwargs)


@pytest.mark.parametrize("value", [True, np.bool_(True), "1.0", None])
@pytest.mark.parametrize("part", ["spot", "value"])
def test_custom_claim_rejects_a_non_number_knot(part, value):
    knot = (value, 1.0) if part == "spot" else (1.0, value)
    with pytest.raises(TypeError, match=f"payoff knot {part} must be a number"):
        ClaimSpec.custom([knot], maturity=1.0)
    with pytest.raises(TypeError, match=f"payoff knot {part} must be a number"):
        ClaimSpec(kind="custom", knots=(knot,))


@pytest.mark.parametrize("kind", ["call", "put"])
@pytest.mark.parametrize("knots", [(("a", None),), ((0.5, 0.0), (2.0, 1.0)), ()])
def test_vanilla_claim_rejects_knots(kind, knots):
    # a call's or a put's payoff never reads its knots, so none may be given
    with pytest.raises(ValueError, match=f"knots .* a {kind} got knots="):
        ClaimSpec(kind=kind, strike=1.0, knots=knots)


def test_custom_claim_stores_float_knots():
    claim = ClaimSpec(kind="custom", knots=[[1, 0], (2, np.float64(1.5))])
    assert claim.knots == ((1.0, 0.0), (2.0, 1.5))
    assert all(type(x) is float for knot in claim.knots for x in knot)
    assert claim == ClaimSpec.custom([(1.0, 0.0), (2.0, 1.5)], maturity=1.0)


BULL_SPREAD = [(0.8, 0.0), (0.9, 0.0), (1.1, 0.2), (1.2, 0.2)]


@pytest.mark.parametrize("given", [
    lambda: (knot for knot in BULL_SPREAD),
    lambda: zip(*zip(*BULL_SPREAD)),
    lambda: np.array(BULL_SPREAD),
], ids=["generator", "zip", "array"])
def test_custom_claim_reads_any_iterable_of_pairs(given):
    # a generator was used up by the check and stored as (); an (n, 2) array
    # failed on the truth value of an array
    want = ClaimSpec(kind="custom", knots=BULL_SPREAD).knots
    assert want == tuple(BULL_SPREAD)
    assert ClaimSpec(kind="custom", knots=given()).knots == want
    assert ClaimSpec.custom(given(), maturity=1.0).knots == want


def test_custom_claim_rejects_an_empty_iterator():
    with pytest.raises(ValueError, match="^custom claim needs at least one payoff knot$"):
        ClaimSpec(kind="custom", knots=iter(()))


@pytest.mark.parametrize("knots,error,entry", [
    ((1.0, 0.0), TypeError, "1.0"),                # a flat pair for a one-knot payoff
    (((1.0, 0.0, 2.0),), ValueError, "(1.0, 0.0, 2.0)"),
    (((0.5, 0.0), (1.0,)), ValueError, "(1.0,)"),
], ids=["flat_pair", "triple", "single"])
def test_a_knot_that_is_not_a_pair_names_the_field(knots, error, entry):
    # unpacking failed with "cannot unpack non-iterable float object" or
    # "too many values to unpack", naming neither the field nor the knot
    want = f"payoff knot must be a (spot, value) pair, got {entry}"
    with pytest.raises(error, match=f"^{re.escape(want)}$"):
        ClaimSpec.custom(knots, maturity=1.0)


@pytest.mark.parametrize("knots", [5, 1.5], ids=["int", "float"])
def test_knots_that_are_not_iterable_name_the_field(knots):
    # tuple(knots) failed with "'int' object is not iterable", naming
    # neither the field nor the value
    want = f"payoff knots must be an iterable of (spot, value) pairs, got {knots!r}"
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        ClaimSpec.custom(knots, maturity=1.0)
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        ClaimSpec(kind="custom", knots=knots)


def test_custom_shorthand_takes_the_strike_the_cli_passes():
    from xvaband.cli import _claim_from_args, build_parser

    args = build_parser().parse_args([
        "price", "--config", "market.json", "--claim", "custom",
        "--knots", "0.8:0,0.9:0,1.1:0.2,1.2:0.2", "--strike", "1.5"])
    claim = ClaimSpec.custom(BULL_SPREAD, maturity=1.0, strike=1.5)
    assert claim == _claim_from_args(args)
    assert claim.log_center == math.log(1.5)


# --- no-arbitrage validation -------------------------------------------------

def test_default_market_is_arbitrage_free():
    assert validate_no_arbitrage(DEFAULT_MARKET) == []


@pytest.mark.parametrize("overrides,needle", [
    ({"r_r_plus": 0.06}, "r_r_plus <= r_f_plus"),
    ({"r_f_plus": 0.06}, "r_f_plus <= r_r_minus"),
    ({"r_f_minus": 0.04, "r_c_plus": 0.005, "r_c_minus": 0.005},
     "r_f_plus <= r_f_minus"),
    ({"r_c_plus": 0.2}, "max(r_c_plus, r_c_minus) <= r_f_minus"),
    ({"r_f_minus": 0.2}, "r_f_minus <= min(r_I + h_I_P, r_C + h_C_P)"),
    ({"r_I": 0.25}, "h_I_P >= 0"),
])
def test_single_violation_named(overrides, needle):
    cfg = apply_overrides(DEFAULT_MARKET, overrides)
    violations = validate_no_arbitrage(cfg)
    assert len(violations) == 1
    assert needle in violations[0]


def test_bond_return_violation_named():
    # Lowering the counterparty intensity far enough breaks the strict
    # bound against the risky bond return; the cheap-funding inequality
    # then necessarily breaks too, so two violations are reported.
    cfg = replace(DEFAULT_MARKET, h_C_Q=0.03)
    violations = validate_no_arbitrage(cfg)
    assert any("max(r_f_plus, r_D) < r_C + h_C_P" in v for v in violations)


def test_arbitrage_error_carries_violations():
    err = ArbitrageViolationError(["a <= b violated: 1 > 0"])
    assert err.violations == ["a <= b violated: 1 > 0"]
    assert "a <= b" in str(err)


# --- config file I/O and overrides -------------------------------------------

def _as_dict(cfg: MarketConfig) -> dict:
    from dataclasses import asdict

    return asdict(cfg)


def test_load_market_config_round_trip(tmp_path):
    path = tmp_path / "market.json"
    path.write_text(json.dumps(_as_dict(DEFAULT_MARKET)))
    assert load_market_config(path) == DEFAULT_MARKET


def test_market_config_from_dict_rejects_unknown_and_missing():
    raw = _as_dict(DEFAULT_MARKET)
    raw["typo_field"] = 1.0
    with pytest.raises(ValueError, match="unknown market config keys: typo_field"):
        market_config_from_dict(raw)
    raw = _as_dict(DEFAULT_MARKET)
    del raw["sigma"]
    with pytest.raises(ValueError, match="missing market config keys: sigma"):
        market_config_from_dict(raw)
    with pytest.raises(ValueError, match="JSON object"):
        market_config_from_dict([1, 2])


@pytest.mark.parametrize("value", [None, True, "0.2", [0.2]])
def test_market_config_from_dict_rejects_non_numbers(value):
    raw = _as_dict(DEFAULT_MARKET)
    raw["sigma"] = value
    want = f"sigma must be a number, got {value!r}"
    with pytest.raises(TypeError, match=re.escape(want)):
        market_config_from_dict(raw)


def test_market_config_from_dict_names_the_first_bad_field_every_run():
    # the fields were checked in set order, which the string hash seed sets:
    # under seed 0 the error named alpha, under seed 1 sigma
    code = ("from dataclasses import asdict\n"
            "from xvaband import DEFAULT_MARKET\n"
            "from xvaband.config import market_config_from_dict\n"
            "raw = {**asdict(DEFAULT_MARKET), 'sigma': 'x', 'alpha': 'y'}\n"
            "try:\n"
            "    market_config_from_dict(raw)\n"
            "except TypeError as err:\n"
            "    print(err)\n")
    src = str(Path(xvaband.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "sigma must be a number, got 'x'\n"


def test_market_config_from_dict_converts_ints():
    raw = _as_dict(DEFAULT_MARKET)
    raw["alpha"] = 1
    cfg = market_config_from_dict(raw)
    assert cfg.alpha == 1.0 and type(cfg.alpha) is float


def test_apply_overrides():
    cfg = apply_overrides(DEFAULT_MARKET, {"alpha": 0.25, "r_f_minus": 0.2})
    assert cfg.alpha == 0.25
    assert cfg.r_f_minus == 0.2
    assert cfg.sigma == DEFAULT_MARKET.sigma
    with pytest.raises(ValueError, match="unknown market config fields"):
        apply_overrides(DEFAULT_MARKET, {"not_a_field": 1.0})


@pytest.mark.parametrize("value", [None, True, "0.2", [0.2]])
def test_apply_overrides_rejects_non_numbers(value):
    want = f"alpha must be a number, got {value!r}"
    with pytest.raises(TypeError, match=re.escape(want)):
        apply_overrides(DEFAULT_MARKET, {"alpha": value})


def test_apply_overrides_names_the_first_bad_field_in_field_order():
    # the values were checked in the order given: alpha here
    with pytest.raises(TypeError, match=re.escape("sigma must be a number, got 'x'")):
        apply_overrides(DEFAULT_MARKET, {"alpha": "y", "sigma": "x"})
    with pytest.raises(ValueError, match=re.escape("sigma must be positive, got -0.1")):
        apply_overrides(DEFAULT_MARKET, {"alpha": 1.5, "sigma": -0.1})


def test_apply_overrides_converts_ints():
    cfg = apply_overrides(DEFAULT_MARKET, {"alpha": 1})
    assert cfg.alpha == 1.0 and type(cfg.alpha) is float


def test_reporting_spot_falls_back_to_the_strike_then_one():
    put = ClaimSpec.put(strike=1.3, maturity=1.0)
    custom = ClaimSpec.custom([(1.0, 0.5)], maturity=1.0)
    assert reporting_spot(put, build_grid(put, DEFAULT_MARKET), 0.9) == 0.9
    assert reporting_spot(put, build_grid(put, DEFAULT_MARKET)) == 1.3
    assert reporting_spot(custom, build_grid(custom, DEFAULT_MARKET)) == 1.0


@pytest.mark.parametrize("value", [True, np.bool_(True), "1.0"])
def test_reporting_spot_rejects_a_non_number(value):
    # True priced at spot 1 and reported "spot": true
    with pytest.raises(TypeError, match="spot must be a number"):
        call = ClaimSpec.call(strike=1.0, maturity=1.0)
        reporting_spot(call, build_grid(call, DEFAULT_MARKET), value)


def test_reporting_spot_of_a_strikeless_claim_is_its_lattice_centre():
    # a custom claim without a strike is centred on its geometric mid-knot;
    # its default report spot must sit there too, not at 1.0 far outside
    custom = ClaimSpec.custom([(100.0, 0.0), (200.0, 100.0)], maturity=1.0)
    grid = build_grid(custom, DEFAULT_MARKET)
    spot = reporting_spot(custom, grid)
    assert spot == pytest.approx(math.sqrt(100.0 * 200.0), rel=1e-14)
    assert math.log(spot) == pytest.approx(0.5 * (grid.x_min + grid.x_max),
                                           abs=1e-14)
