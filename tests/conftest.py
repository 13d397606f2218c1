"""Shared fixtures: canonical claim, market, and small solver grids."""

import json
import warnings
from dataclasses import asdict, replace

import pytest

from xvaband import ClaimSpec, DEFAULT_MARKET, SolverConfig, build_grid


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
