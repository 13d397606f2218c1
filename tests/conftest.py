"""Shared fixtures: canonical claim, market, and small solver grids."""

import json
import warnings
from dataclasses import asdict, replace

import pytest

import xvaband.benchmark
import xvaband.pde
from xvaband import ClaimSpec, DEFAULT_MARKET, MarketConfig, SolverConfig, build_grid
from xvaband.driver import equation_coefficients
from xvaband.pde import SemilinearTerms


@pytest.fixture(scope="session")
def call_claim():
    return ClaimSpec.call(strike=1.0, maturity=1.0)


@pytest.fixture(scope="session")
def put_claim():
    return ClaimSpec.put(strike=1.0, maturity=1.0)


@pytest.fixture(scope="session")
def market():
    """Desk default market (alpha = 0.9)."""
    return DEFAULT_MARKET


@pytest.fixture(scope="session")
def symmetric_market():
    """Every financing rate collapsed to r_D, no close-out losses."""
    r = DEFAULT_MARKET.r_D
    return replace(DEFAULT_MARKET, r_f_plus=r, r_f_minus=r, r_r_plus=r,
                   r_r_minus=r, r_c_plus=r, r_c_minus=r, L_I=0.0, L_C=0.0)


@pytest.fixture(scope="session")
def vanishing_reference():
    """An admissible (claim, market) whose reference vanishes at spot 1 on the
    default lattice (v_hat_0 3.1e-17) while the seller's adjustment does not
    (5.7e-8): a 10-year put at sigma 0.01, whose wealth equation convects at
    the repo rate, not at r_D."""
    cfg = MarketConfig(sigma=0.01, r_D=0.0242, r_f_plus=0.0047, r_f_minus=0.0901,
                       r_r_plus=0.0015, r_r_minus=0.0688, r_c_plus=0.0441,
                       r_c_minus=0.078, r_I=0.0697, r_C=0.0575, h_I_Q=0.3887,
                       h_C_Q=0.286, L_I=0.8985, L_C=0.5852, alpha=0.8764)
    return ClaimSpec.put(strike=1.0, maturity=10.0), cfg


@pytest.fixture(scope="session")
def small_grid(call_claim, market):
    """Coarse lattice for fast solver tests."""
    return build_grid(call_claim, market, n_x=201, n_t=100)


@pytest.fixture(scope="session")
def medium_grid(call_claim, market):
    """Lattice fine enough for table-level accuracy."""
    return build_grid(call_claim, market, n_x=401, n_t=200)


@pytest.fixture(scope="session")
def solver():
    return SolverConfig()


@pytest.fixture(scope="session")
def config_json(tmp_path_factory):
    """Default market serialised to a JSON file, for CLI-driven tests."""
    path = tmp_path_factory.mktemp("market") / "market.json"
    path.write_text(json.dumps(asdict(DEFAULT_MARKET)))
    return str(path)


@pytest.fixture
def ignore_rate_warnings():
    """Silence the deliberate rate-ordering warnings in override solves."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.fixture(scope="session")
def march_side():
    """``march_side(sign, cfg, bench, w_terminal=None)`` marches one side of
    the wealth PDE alone (+1 seller, -1 buyer): a one-block
    ``march_schedule`` on the reference surface's lattice, which
    ``solve_sides`` does not offer.  It starts from the reference's terminal
    row, as ``solve_sides`` does, unless given other terminal data."""

    def march(sign, cfg, bench, w_terminal=None):
        eq = equation_coefficients(cfg)
        terms = SemilinearTerms((sign,), cfg, bench.sched_values)
        (surf,) = xvaband.pde.march_schedule(
            bench.sched_values[0] if w_terminal is None else w_terminal,
            bench.grid, bench.solver,
            a_eff=eq.drift - eq.m, b=eq.b, kappa=eq.kappa, terms=terms)
        return surf

    return march


@pytest.fixture
def marches(monkeypatch):
    """A list that gets one entry per ``march_schedule`` call, the reference
    march's included."""
    calls = []
    march = xvaband.pde.march_schedule

    def counted(*args, **kwargs):
        calls.append(args[1])
        return march(*args, **kwargs)

    monkeypatch.setattr(xvaband.pde, "march_schedule", counted)
    monkeypatch.setattr(xvaband.benchmark, "march_schedule", counted)
    return calls
