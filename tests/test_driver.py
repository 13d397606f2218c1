"""The two wealth drivers, evaluated through the test-local reference form
``driver_value``; the split form of ``closeouts`` and ``financing_level``
against the close-outs term by term; and the driver module as the
package's one home of those formulas, as the reference is the one place
a payoff meets the PDE lattice."""

import ast
import itertools
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import xvaband
import xvaband.benchmark
import xvaband.driver as driver
from reference_forms import closeout_C, closeout_I, driver_value
from xvaband.driver import (
    closeouts,
    equation_coefficients,
    financing_level,
    level_coefficients,
)


# Hand-computed reference point for the seller driver at the desk default
# market: with v=0.1, z=0.04, z_I=-0.01, z_C=-0.02, v_hat=0.1 and alpha=0.9
# the funding balance is y = 0.1 - 0.01 - 0.02 - 0.09 = -0.02 (borrowing at
# r_f_minus), the repo charge is (0.01-0.05)*0.04/0.2 = -0.008, the bond
# carry is +0.0003, and the collateral charge is +0.0009; the negated sum
# is +0.0084.  The buyer value at the same point follows from reflecting
# every argument: +0.0078.  Points are (v, z, z_I, z_C, v_hat).
POINT = (0.1, 0.04, -0.01, -0.02, 0.1)


def f_seller(point, cfg):
    return driver_value(+1, *point, cfg)


def f_buyer(point, cfg):
    return driver_value(-1, *point, cfg)


# --- frozen driver values ----------------------------------------------------

def test_f_seller_reference_point(market):
    assert f_seller(POINT, market) == pytest.approx(0.0084, abs=1e-12)


def test_f_buyer_reference_point(market):
    assert f_buyer(POINT, market) == pytest.approx(0.0078, abs=1e-12)


def test_driver_zero_at_origin(market):
    origin = (0.0, 0.0, 0.0, 0.0, 0.0)
    assert f_seller(origin, market) == 0.0
    assert f_buyer(origin, market) == 0.0


def test_flat_rates_collapse_to_discounting(market):
    # With every rate equal to r and no collateral or jump exposures the
    # driver reduces to plain discounting of the position value.
    r = 0.03
    flat = replace(market, r_D=r, r_f_plus=r, r_f_minus=r, r_r_plus=r,
                   r_r_minus=r, r_c_plus=r, r_c_minus=r, alpha=0.0)
    for v in (-0.4, 0.0, 0.7):
        assert f_seller((v, 0.0, 0.0, 0.0, 0.2), flat) == pytest.approx(-r * v, abs=1e-15)


# --- structural properties ---------------------------------------------------

def _random_inputs(rng, n):
    return [tuple(float(a) for a in row) for row in rng.uniform(-1.0, 1.0, size=(n, 5))]


def test_buyer_is_exact_reflection_of_seller(market):
    rng = np.random.default_rng(11)
    for inp in _random_inputs(rng, 200):
        mirrored = tuple(-a for a in inp)
        assert f_buyer(inp, market) + f_seller(mirrored, market) == 0.0


def test_symmetric_rates_make_both_drivers_equal(market):
    # the seller-buyer gap is the rate spreads times the magnitudes of the
    # funding balance y, the repo exposure z and the collateral alpha v_hat:
    #   (r_f- - r_f+)|y| + (r_r- - r_r+)|z|/sigma + (r_c- - r_c+) alpha |v_hat|
    # so symmetric rates (the first market) make both drivers equal
    sym = replace(market, r_f_minus=market.r_f_plus,
                  r_r_minus=market.r_r_plus, r_c_minus=market.r_c_plus)
    markets = [
        sym,
        market,
        replace(market, r_r_plus=0.03, r_r_minus=0.07, r_c_plus=0.005,
                r_c_minus=0.02, alpha=0.4),
        replace(market, r_c_plus=0.05, r_c_minus=0.01),
    ]
    rng = np.random.default_rng(12)
    for cfg in markets:
        for inp in _random_inputs(rng, 200):
            v, z, z_i, z_c, v_hat = inp
            y = v + z_i + z_c - cfg.alpha * v_hat
            gap = ((cfg.r_f_minus - cfg.r_f_plus) * abs(y)
                   + (cfg.r_r_minus - cfg.r_r_plus) * abs(z) / cfg.sigma
                   + (cfg.r_c_minus - cfg.r_c_plus) * cfg.alpha * abs(v_hat))
            assert f_seller(inp, cfg) - f_buyer(inp, cfg) == pytest.approx(
                gap, abs=1e-15)
            if cfg is sym:
                assert f_buyer(inp, cfg) == pytest.approx(f_seller(inp, cfg),
                                                          abs=1e-15)


def test_driver_value_matches_scalar_functions(market):
    # one array call equals the elementwise scalar calls, on both sides
    rng = np.random.default_rng(13)
    pts = _random_inputs(rng, 50)
    cols = np.array(pts).T
    for side in (+1, -1):
        got = driver_value(side, *cols, market)
        for k, p in enumerate(pts):
            assert got[k] == driver_value(side, *p, market)


def test_global_lipschitz_bound(market):
    # The driver is piecewise linear; the slope against the l1 distance in
    # (v, z, z_I, z_C) is bounded by the sum of the worst per-argument
    # rates (v_hat held fixed: it selects the collateral charge only).
    lip = (max(market.r_f_plus, market.r_f_minus)
           + abs(market.r_D - market.r_r_minus) / market.sigma
           + abs(market.r_D - market.r_r_plus) / market.sigma
           + 2.0 * market.r_D)
    rng = np.random.default_rng(14)
    for _ in range(300):
        a, b = _random_inputs(rng, 2)
        b = (*b[:4], a[4])
        dist = sum(abs(x - y) for x, y in zip(a[:4], b[:4]))
        if dist == 0.0:
            continue
        gap = abs(f_seller(a, market) - f_seller(b, market))
        assert gap <= lip * dist * (1.0 + 1e-12)


def _adjusted(point, cfg):
    """Seller driver plus the intensity-adjusted carry h_I z_I + h_C z_C."""
    return f_seller(point, cfg) + cfg.h_I_Q * point[2] + cfg.h_C_Q * point[3]


def test_intensity_adjusted_driver_monotone_in_jump_exposures(market):
    # On an arbitrage-free market (default r_f_minus = 0.08), the map
    # (z_I, z_C) -> f_seller + h_I*z_I + h_C*z_C is nondecreasing in each
    # jump exposure: the worst funding spread never exceeds the
    # intensity-adjusted carry of the matching bond.
    rng = np.random.default_rng(15)
    for v, z, z_i, z_c, v_hat in _random_inputs(rng, 200):
        base = _adjusted((v, z, z_i, z_c, v_hat), market)
        for dz in (1e-3, 0.1):
            bumped_i = _adjusted((v, z, z_i + dz, z_c, v_hat), market)
            bumped_c = _adjusted((v, z, z_i, z_c + dz, v_hat), market)
            assert bumped_i >= base - 1e-15
            assert bumped_c >= base - 1e-15


def test_monotonicity_fails_beyond_the_rate_bound(market):
    # Once r_f_minus exceeds r_C + h_C (the very configuration the
    # validator flags as arbitrageable), borrowing costs can outrun the
    # counterparty bond carry and the monotonicity above breaks.
    wild = replace(market, r_f_minus=0.2)
    base = _adjusted((0.0, 0.0, -0.1, -0.1, 0.0), wild)
    bumped = _adjusted((0.0, 0.0, -0.1, 0.0, 0.0), wild)
    assert bumped < base


# --- equation coefficients ---------------------------------------------------

def test_repo_split_reconstructs_the_charge(market):
    eq = equation_coefficients(market)
    assert eq.s_repo == 0.0  # symmetric repo rates at the desk default
    assert eq.m == pytest.approx(market.r_D - market.r_r_plus, abs=1e-15)
    asym = replace(market, r_r_plus=0.02, r_r_minus=0.06)
    eq = equation_coefficients(asym)
    m, s = eq.m, eq.s_repo
    for wx in (-0.7, -0.1, 0.0, 0.3, 1.1):
        z = asym.sigma * wx
        direct = ((asym.r_D - asym.r_r_minus) * max(z, 0.0)
                  - (asym.r_D - asym.r_r_plus) * max(-z, 0.0)) / asym.sigma
        assert m * wx + s * abs(wx) == pytest.approx(direct, abs=1e-15)


def test_equation_coefficients_keep_the_solvers_arithmetic(market):
    # the march and the tree took these expressions in this order before
    # they shared the record; every float stays bitwise the same
    cfg = replace(market, r_r_plus=0.02, r_r_minus=0.06, r_f_plus=0.03)
    eq = equation_coefficients(cfg)
    assert eq.b == 0.5 * cfg.sigma * cfg.sigma
    assert eq.drift == cfg.r_D - 0.5 * cfg.sigma * cfg.sigma
    assert eq.kappa == cfg.h_I_Q + cfg.h_C_Q + (
        cfg.h_I_Q + cfg.h_C_Q + 2.0 * cfg.r_D - cfg.r_f_minus)
    assert eq.spread == cfg.r_f_plus - cfg.r_f_minus
    assert (eq.m, eq.s_repo) == (0.5 * (2.0 * cfg.r_D - cfg.r_r_plus - cfg.r_r_minus),
                                 0.5 * (cfg.r_r_plus - cfg.r_r_minus))


# --- level form --------------------------------------------------------------

# Reference values with both signs, exact zeros and magnitudes 1e-6 to 1e3.
_MAGS = np.logspace(-6.0, 3.0, 37)
V_HAT = np.concatenate([_MAGS, -_MAGS, [0.0, 0.0, -0.0],
                        np.random.default_rng(16).normal(size=40)])
EPS = np.finfo(float).eps


def _closeout_level(side, cfg, v_hat):
    """``(Y, const_s)`` from the close-outs term by term, and the per-node
    sums of the absolute values of the terms each one adds up."""
    th_i = closeout_I(v_hat, cfg.alpha, cfg.L_I)
    th_c = closeout_C(v_hat, cfg.alpha, cfg.L_C)
    th = th_i + th_c
    a_vh = cfg.alpha * v_hat
    y = th - a_vh
    r_pos, r_neg = ((cfg.r_c_plus, cfg.r_c_minus) if side > 0
                    else (cfg.r_c_minus, cfg.r_c_plus))
    coll = r_pos * np.maximum(a_vh, 0.0) + r_neg * np.minimum(a_vh, 0.0)
    terms = (2.0 * cfg.h_I_Q * th_i, 2.0 * cfg.h_C_Q * th_c, cfg.r_D * th,
             -coll, -cfg.r_f_minus * y)
    y_scale = np.abs(th_i) + np.abs(th_c) + np.abs(a_vh)
    return y, sum(terms), y_scale, sum(np.abs(t) for t in terms)


@pytest.mark.parametrize("side", [+1, -1], ids=["seller", "buyer"])
def test_financing_level_matches_the_closeout_form(market, side):
    # distinct collateral rates, so the side changes const_s
    base = replace(market, r_c_plus=0.01, r_c_minus=0.05)
    for alpha, l_i, l_c in itertools.product((0.0, 0.4, 1.0), (0.0, 0.5, 1.0),
                                             (0.0, 0.5, 1.0)):
        cfg = replace(base, alpha=alpha, L_I=l_i, L_C=l_c)
        y, const = financing_level(level_coefficients(cfg, side), V_HAT)
        y_ref, const_ref, y_scale, c_scale = _closeout_level(side, cfg, V_HAT)
        # largest error seen: 1.09 ulps of the scale for Y, 1.30 for const_s;
        # at v_hat = 0 both forms give exact zeros
        assert np.all(np.abs(y - y_ref) <= 4.0 * EPS * y_scale)
        assert np.all(np.abs(const - const_ref) <= 4.0 * EPS * c_scale)


def test_financing_level_returns_fresh_arrays(market):
    # the tree writes into const_s in place
    v_hat = V_HAT.copy()
    y, const = financing_level(level_coefficients(market, +1), v_hat)
    assert not np.shares_memory(y, const)
    assert not np.shares_memory(y, v_hat) and not np.shares_memory(const, v_hat)
    np.testing.assert_array_equal(v_hat, V_HAT)


# --- close-outs --------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
def test_closeouts_match_the_term_by_term_form(market, alpha):
    for l_i, l_c in itertools.product((0.0, 0.5, 1.0), repeat=2):
        cfg = replace(market, alpha=alpha, L_I=l_i, L_C=l_c)
        th_i, th_c = closeouts(cfg, V_HAT)
        # the scale is the sum of the magnitudes of the two terms each
        # close-out adds up; largest error seen: 1.00 ulps of it
        e = np.abs((1.0 - alpha) * V_HAT)
        ref_i = closeout_I(V_HAT, alpha, l_i)
        ref_c = closeout_C(V_HAT, alpha, l_c)
        assert np.all(np.abs(th_i - ref_i) <= 4.0 * EPS * (np.abs(V_HAT) + l_i * e))
        assert np.all(np.abs(th_c - ref_c) <= 4.0 * EPS * (np.abs(V_HAT) + l_c * e))


# --- one home ----------------------------------------------------------------

SRC = Path(driver.__file__).parent
REMOVED = ("closeout_I", "closeout_C", "collateral", "driver_value")


def test_close_out_inputs_are_read_only_by_the_market_and_the_driver():
    # the loss fractions and the collateral fraction enter the close-outs
    # and the collateral, which the package writes once, in driver.py
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("L_I", "L_C", "alpha"):
                readers.add(path.name)
    assert readers == {"config.py", "driver.py"}


def test_the_solvers_read_the_market_only_through_the_driver():
    # the PDE march, the reference and the tree take their rates from
    # driver.equation_coefficients and driver.level_coefficients; reading
    # another market field would retype a coefficient
    market_fields = {f.name for f in fields(xvaband.MarketConfig)}
    for name in ("benchmark.py", "oracle.py", "pde.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        read = {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in market_fields}
        assert read <= {"sigma", "r_D"}, (name, sorted(read))


def test_level_coefficients_takes_one_side():
    # one side per call, its collateral rates picked by one conditional; a
    # per-node path (one side per node) would need numpy
    tree = ast.parse((SRC / "driver.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "level_coefficients"]
    calls = [ast.unparse(node.func) for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in ("np", "numpy")]
    assert calls == []


def test_the_term_by_term_forms_are_not_in_the_package():
    for module in (xvaband, xvaband.benchmark):
        for name in REMOVED:
            assert not hasattr(module, name), (module.__name__, name)
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in REMOVED, (path.name, node.name)
            elif isinstance(node, ast.alias):
                assert node.name not in REMOVED, (path.name, node.name)


def test_the_finite_and_integer_checks_live_in_config():
    # every numeric input goes through the checkers in config.py; a module
    # that tests finiteness or integrality itself has grown its own copy
    users = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("isfinite", "Integral"):
                if isinstance(node.value, ast.Name) and node.value.id in ("math", "numbers"):
                    users.add(path.name)
            elif isinstance(node, ast.alias) and node.name in ("isfinite", "Integral"):
                users.add(path.name)
    assert users == {"config.py"}


def test_the_config_routes_leave_the_value_checks_to_market_config():
    # market_config_from_dict and apply_overrides check names only; a second
    # pass over the values would check them before MarketConfig does again
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    routes = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("market_config_from_dict", "apply_overrides")}
    assert set(routes) == {"market_config_from_dict", "apply_overrides"}
    for name, route in routes.items():
        called = {node.func.id for node in ast.walk(route)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not {c for c in called if c.startswith("_require_")}, (name, called)


def test_no_module_imports_another_modules_private_name():
    # a private name stays behind its module's public entry (the spot
    # policy behind grid.reporting_spot, say); only config's checkers and
    # side mapper are shared
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    shared = node.module == "config" and (
                        alias.name.startswith("_require_") or alias.name == "_side_sign")
                    assert not alias.name.startswith("_") or shared, (
                        path.name, node.module, alias.name)


def test_the_payoff_meets_the_lattice_only_in_the_reference_and_the_tree():
    # benchmark_surface puts the claim's payoff on the PDE lattice, and both
    # sides start from its terminal row; the tree evaluates its own
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "payoff"):
                callers.add(path.name)
    assert callers == {"benchmark.py", "oracle.py"}
    pde_tree = ast.parse((SRC / "pde.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(pde_tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "ClaimSpec" not in imported
