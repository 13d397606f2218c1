"""Log-price lattice, solver settings, and value surfaces.

The spatial variable is x = ln S on a uniform grid centred at the claim's
log strike (its mid-knot without one); the time grid is uniform on [0, T].

The backward march starts with two implicit half steps before switching to
the weighted theta scheme (Rannacher startup), which damps Crank-Nicolson's
ringing at the payoff kink (Rannacher, Numer. Math. 43, 1984; Giles &
Carter, J. Comp. Finance 9(4), 2006).  The march therefore visits one
extra, non-uniform time level T - dt/2.  A :class:`Surface` stores the
march's rows as it made them (T down to 0, the half level included), which
is what the close-out marks of the semilinear solve read;
:func:`uniform_row_indices` maps the uniform time levels onto those rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import (ClaimSpec, MarketConfig, _require_count, _require_finite,
                     _require_number, _require_positive)

__all__ = [
    "GridSpec",
    "SolverConfig",
    "SolveDiagnostics",
    "Surface",
    "build_grid",
    "reporting_spot",
    "time_schedule",
    "uniform_row_indices",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice in (t, x) with x = ln S."""

    x_min: float
    x_max: float
    n_x: int
    n_t: int
    maturity: float

    def __post_init__(self) -> None:
        _require_finite("x_min", self.x_min)
        _require_finite("x_max", self.x_max)
        if self.x_max <= self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        # the boundary-eliminated march needs three interior nodes
        _require_count("n_x", self.n_x, 5)
        _require_count("n_t", self.n_t)
        _require_positive("maturity", self.maturity)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    @property
    def dt(self) -> float:
        return self.maturity / self.n_t

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def t_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.maturity, self.n_t + 1)


@dataclass(frozen=True)
class SolverConfig:
    """Time-stepping settings: the theta weight of the steps that follow the
    Rannacher startup, which every march takes (:func:`time_schedule`).

    ``theta_scheme`` lies in [1/2, 1]: theta < 1/2 is stable only while dt
    lambda_max(A) <= 2 / (1 - 2 theta), and on a :func:`build_grid` lattice
    dt lambda_max(A) is about 2 (n_x - 1)^2 / (144 n_t), some 22 at 801 x
    400.  Each step is solved exactly (:func:`xvaband.pde.march_schedule`).
    """

    theta_scheme: float = 0.5

    def __post_init__(self) -> None:
        _require_number("theta_scheme", self.theta_scheme)
        if not 0.5 <= self.theta_scheme <= 1.0:
            raise ValueError(
                f"theta_scheme must lie in [1/2, 1], got {self.theta_scheme}")


def build_grid(
    claim: ClaimSpec,
    cfg: MarketConfig,
    width_sigmas: float = 6.0,
    n_x: int = 801,
    n_t: int = 400,
) -> GridSpec:
    """Lattice centred at :attr:`ClaimSpec.log_center`, wide enough for the
    terminal law.

    The half-width is ``width_sigmas * sigma * sqrt(T)``.  n_x is bumped to
    the next odd value so the centre is exactly a node.
    """
    _require_positive("width_sigmas", width_sigmas)
    _require_count("n_x", n_x, 4)  # the caller's count, before the bump (4 becomes 5)
    if n_x % 2 == 0:
        n_x += 1
    center = claim.log_center
    half = width_sigmas * cfg.sigma * math.sqrt(claim.maturity)
    return GridSpec(
        x_min=center - half,
        x_max=center + half,
        n_x=n_x,
        n_t=n_t,
        maturity=claim.maturity,
    )


def reporting_spot(claim: ClaimSpec, grid: GridSpec, spot: float | None = None) -> float:
    """The spot a report reads: ``spot``, else the strike, else the centre of
    the claim's lattice (:attr:`ClaimSpec.log_center`).  It must be positive
    with its log on ``grid`` (to 1e-12), so a caller checks it before any
    march."""
    if spot is None:
        spot = claim.strike if claim.strike is not None else math.exp(claim.log_center)
    _log_spot(grid, spot)
    return spot


def time_schedule(
    grid: GridSpec, solver: SolverConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """March times (decreasing from T to 0), each step's length and theta weight.

    The first uniform interval [T - dt, T] is covered by two fully implicit
    half steps of length dt/2 (Rannacher startup); every other step has
    length ``grid.dt`` and uses theta_scheme.  These lengths are exact; the
    differences of the ``linspace`` times are an ulp off in places.
    """
    T, n_t, dt = grid.maturity, grid.n_t, grid.dt
    times = np.concatenate(([T, T - 0.5 * dt], np.linspace(T - dt, 0.0, n_t)))
    dts = np.concatenate(([0.5 * dt, 0.5 * dt], np.full(n_t - 1, dt)))
    thetas = np.concatenate(([1.0, 1.0], np.full(n_t - 1, solver.theta_scheme)))
    return times, dts, thetas


def uniform_row_indices(grid: GridSpec) -> np.ndarray:
    """Indices into the march schedule that hold the uniform time levels.

    Returned in increasing-t order, matching the public surface layout:
    the schedule rows are T, T - dt/2, T - dt, ..., 0.
    """
    return np.append(np.arange(grid.n_t + 1, 1, -1), 0)


@dataclass(frozen=True, eq=False)
class SolveDiagnostics:
    """Per march step, the block's linear solves and the rebuilds of its rows
    (``factors``).  One ``dgttrf`` call refactors every block whose rows a
    solve rebuilt, so a two-side march makes fewer calls than its blocks'
    ``factors`` add up to."""

    iterations: np.ndarray
    factors: np.ndarray


@dataclass(frozen=True, eq=False)
class Surface:
    """Result of one march: the full slice at every level of its schedule.

    ``sched_values[k]`` is the slice at ``sched_times[k]``, marching from T
    down to 0 (see :func:`time_schedule`).  ``values`` gives the uniform
    time levels with t increasing, ``values[i, j] = w(t_i, x_j)``, as a new
    array on every read.
    """

    grid: GridSpec
    solver: SolverConfig
    sched_values: np.ndarray
    diagnostics: SolveDiagnostics

    def __post_init__(self) -> None:
        expect = (self.sched_times.size, self.grid.n_x)
        if self.sched_values.shape != expect:
            raise ValueError(
                f"surface shape {self.sched_values.shape} != schedule shape {expect}")

    @property
    def sched_times(self) -> np.ndarray:
        return time_schedule(self.grid, self.solver)[0]

    @property
    def values(self) -> np.ndarray:
        return self.sched_values[uniform_row_indices(self.grid)]

    def step_records(self) -> list[dict]:
        """One record per march step: the time it reaches and its counts."""
        diag = self.diagnostics
        return [{"step": i, "t": float(t), "linear_solves": int(n), "factors": int(f)}
                for i, (t, n, f) in enumerate(zip(self.sched_times[1:], diag.iterations,
                                                  diag.factors))]

    def _slice_at(self, t: float) -> np.ndarray:
        """Linear interpolation in t between the two bracketing uniform levels."""
        i0, i1, wt = _time_weights(self.grid, t)
        rows = uniform_row_indices(self.grid)
        return (1.0 - wt) * self.sched_values[rows[i0]] + wt * self.sched_values[rows[i1]]

    def value_at(self, t: float, s: float) -> float:
        """Bilinear interpolation of the surface at (t, spot)."""
        row = self._slice_at(t)
        j0, j1, wx = _space_weights(self.grid, s)
        return float((1.0 - wx) * row[j0] + wx * row[j1])

    def slope_at(self, t: float, s: float) -> float:
        """d/dx at (t, spot): the node slopes of ``np.gradient`` (central
        quotients inside, one-sided at the two edge nodes), interpolated
        linearly in x."""
        slopes = np.gradient(self._slice_at(t), self.grid.dx)
        j0, j1, wx = _space_weights(self.grid, s)
        return float((1.0 - wx) * slopes[j0] + wx * slopes[j1])


def _time_weights(grid: GridSpec, t: float) -> tuple[int, int, float]:
    _require_finite("t", t)
    if not 0.0 <= t <= grid.maturity + 1e-12:
        raise ValueError(f"t outside [0, {grid.maturity}], got {t}")
    pos = min(t, grid.maturity) / grid.dt
    i0 = min(int(math.floor(pos)), grid.n_t - 1)
    return i0, i0 + 1, pos - i0


def _log_spot(grid: GridSpec, s: float) -> float:
    """ln(s) of a positive spot whose log lies on the lattice (to 1e-12)."""
    _require_positive("spot", s)
    x = math.log(s)
    if not grid.x_min - 1e-12 <= x <= grid.x_max + 1e-12:
        raise ValueError(f"ln(spot) = {x} outside grid [{grid.x_min}, {grid.x_max}]")
    return x


def _space_weights(grid: GridSpec, s: float) -> tuple[int, int, float]:
    x = _log_spot(grid, s)
    pos = (min(max(x, grid.x_min), grid.x_max) - grid.x_min) / grid.dx
    j0 = min(int(math.floor(pos)), grid.n_x - 2)
    return j0, j0 + 1, pos - j0
