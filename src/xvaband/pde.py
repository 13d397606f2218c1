"""Crank-Nicolson marching for the linear reference equation and the
semilinear wealth PDE.

In log-space x = ln S the two equations share the operator structure

    w_t + a w_x + (sigma^2/2) w_xx - kappa w + G(t, x, w, w_x) = 0,
    w(T, x) = payoff(e^x),

with kappa = r_D and G = 0 for the default-free reference value, and
kappa = h_I_Q + h_C_Q with G the close-out settlement source plus the
nonlinear financing driver for the adjusted value.  The linear-in-slope
part of the repo charge is folded into the convection coefficient a (see
:func:`xvaband.driver.repo_drift_split`); this keeps the per-step Picard
map a strong contraction even on fine grids, where the raw slope coupling
scales like dt/dx.

Boundary rows impose zero second difference in x (payoffs here are
asymptotically linear in S = e^x only at the call wing, but linearity in x
is the standard truncation closure and its error lives in the outer wings
far from the reporting region).  Eliminating those rows leaves a strictly
diagonally dominant tridiagonal system on the interior nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import (
    ArbitrageViolationError,
    ClaimSpec,
    MarketConfig,
    validate_no_arbitrage,
)
from .driver import financing_level, funding_spread, linear_rate, repo_drift_split
from .grid import (
    GridSpec,
    SolveDiagnostics,
    SolverConfig,
    Surface,
    time_schedule,
    uniform_row_indices,
)
from .kernels import extend_slice, tridiag_factor, tridiag_solve

if TYPE_CHECKING:  # pragma: no cover
    from .benchmark import BenchmarkSurface

__all__ = [
    "PicardConvergenceError",
    "SemilinearTerms",
    "march_schedule",
    "reduced_operator",
    "solve_semilinear",
    "terminal_slice",
]


class PicardConvergenceError(RuntimeError):
    """Per-step fixed-point iteration failed to reach picard_tol."""

    def __init__(self, step_index: int, t: float, residual: float, iterations: int):
        self.step_index = step_index
        self.t = t
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"Picard iteration did not converge at step {step_index} "
            f"(t = {t:.6g}): residual {residual:.3e} after {iterations} iterations"
        )


def reduced_operator(n_x: int, dx: float, a: float, b: float, kappa: float):
    """Tridiagonal coefficients of A on the interior after boundary elimination.

    Returns (lo, di, up) of length n_x - 2.  Eliminating the zero-curvature
    boundary rows cancels the diffusion coupling in the first and last
    interior rows and leaves a one-sided convection difference there.
    """
    m = n_x - 2
    if m < 3:
        raise ValueError(f"need n_x >= 5 for the boundary stencil, got n_x = {n_x}")
    lo_c = a / (2.0 * dx) - b / (dx * dx)
    di_c = 2.0 * b / (dx * dx) + kappa
    up_c = -a / (2.0 * dx) - b / (dx * dx)
    lo = np.full(m, lo_c)
    di = np.full(m, di_c)
    up = np.full(m, up_c)
    lo[0] = 0.0
    di[0] = kappa + a / dx
    up[0] = -a / dx
    lo[m - 1] = a / dx
    di[m - 1] = kappa - a / dx
    up[m - 1] = 0.0
    return lo, di, up


def _apply_reduced(lo, di, up, u):
    """Reduced-operator product A u on the interior."""
    au = np.empty_like(u)
    au[1:-1] = lo[1:-1] * u[:-2] + di[1:-1] * u[1:-1] + up[1:-1] * u[2:]
    au[0] = di[0] * u[0] + up[0] * u[1]
    au[-1] = lo[-1] * u[-2] + di[-1] * u[-1]
    return au


@dataclass(eq=False)
class SemilinearTerms:
    """Close-out source and financing driver of one side of the wealth PDE.

    For side ``s = +1`` (seller) or ``-1`` (buyer) the marched source is
    :func:`xvaband.driver.driver_value` plus the intensity-adjusted
    financing ``h_j z_j`` of the default legs, the settlement inflow ``h_I
    theta_I + h_C theta_C`` and ``m_fold w_x``, the linear repo part taken
    out of the convection.  In the level form of :mod:`xvaband.driver`
    this is

        const_s - (h_I + h_C + 2 r_D - r_f-) w
        - s (r_f+ - r_f-) (s (Y - w))^+ - s s_repo |w_x|.

    :meth:`level_terms` computes ``(Y, const_s)`` from the reference slice
    once per march level; :meth:`source` then evaluates the two kinks in w.
    """

    side: int
    cfg: MarketConfig
    dx: float
    bench_sched: np.ndarray  # (n_levels, n_x) reference slices in march order

    def __post_init__(self) -> None:
        s = self.side
        _, s_repo = repo_drift_split(self.cfg)
        self._kill = linear_rate(self.cfg)
        self._c_fund = -s * funding_spread(self.cfg)
        self._c_repo = -s * s_repo / (2.0 * self.dx)

    def level_terms(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(Y, const_s) on the interior nodes of march level k."""
        return financing_level(self.side, self.cfg, self.bench_sched[k, 1:-1])

    def source(self, level: tuple[np.ndarray, np.ndarray],
               w_full: np.ndarray) -> np.ndarray:
        """Interior source at one level for the full slice ``w_full``."""
        y_level, const = level
        w = w_full[1:-1]
        kink = y_level - w if self.side > 0 else w - y_level  # s * y
        np.maximum(kink, 0.0, out=kink)
        kink *= self._c_fund
        g = const - self._kill * w
        g += kink
        kink = w_full[2:] - w_full[:-2]
        np.abs(kink, out=kink)
        kink *= self._c_repo
        g += kink
        return g


def march_schedule(
    w_terminal: np.ndarray,
    grid: GridSpec,
    solver: SolverConfig,
    a_eff: float,
    b: float,
    kappa: float,
    terms: SemilinearTerms | None = None,
) -> tuple[np.ndarray, np.ndarray, SolveDiagnostics]:
    """Backward theta-scheme march over the full schedule.

    Each step from level k to k + 1 solves

        (I + theta dt A) u = (I - (1-theta) dt A) u_k
                             + dt (theta G_{k+1}(u) + (1-theta) G_k(u_k))

    on the interior, with G the source of ``terms`` (none for the linear
    reference equation): ``terms.level_terms(k)`` gives the data of level
    k and ``terms.source(level, w_full)`` evaluates G.  The implicit coupling is resolved by Picard
    iteration warm-started from a linear extrapolation of the two previous
    levels.  ``I + theta dt A`` is factored once per distinct (theta, dt)
    pair, and the v_hat-only part of G once per level.

    Returns (sched_times, sched_values, diagnostics); sched_values[k] is
    the full slice at sched_times[k], marching from T down to 0.
    """
    times, thetas = time_schedule(grid, solver)
    dts = times[:-1] - times[1:]
    lo, di, up = reduced_operator(grid.n_x, grid.dx, a_eff, b, kappa)
    factors: dict[tuple[float, float], tuple] = {}

    n_steps = dts.size
    surf = np.empty((n_steps + 1, grid.n_x))
    surf[0] = w_terminal
    iters = np.ones(n_steps, dtype=np.int64)
    resids = np.zeros(n_steps)
    w_cur = np.empty(grid.n_x)
    level = terms.level_terms(0) if terms is not None else None

    for k in range(n_steps):
        dt = float(dts[k])
        theta = float(thetas[k])
        theta_dt = theta * dt
        lu = factors.get((theta, dt))
        if lu is None:
            lu = factors[(theta, dt)] = tridiag_factor(
                theta_dt * lo, 1.0 + theta_dt * di, theta_dt * up
            )
        w_next = surf[k]
        u_next = w_next[1:-1]
        c_e = (1.0 - theta) * dt
        rhs0 = u_next - c_e * _apply_reduced(lo, di, up, u_next)
        if terms is None:
            extend_slice(tridiag_solve(lu, rhs0), out=surf[k + 1])
            continue

        if theta < 1.0:
            rhs0 += c_e * terms.source(level, w_next)
        level = terms.level_terms(k + 1)
        if k == 0:
            u = u_next.copy()
        else:
            r = dts[k] / dts[k - 1]
            u = u_next + r * (u_next - surf[k - 1, 1:-1])
        n_it = 0
        delta = np.inf
        while n_it < solver.picard_max_iter:
            n_it += 1
            extend_slice(u, out=w_cur)
            rhs = terms.source(level, w_cur)
            rhs *= theta_dt
            rhs += rhs0
            u_new = tridiag_solve(lu, rhs)
            u -= u_new  # the old iterate is only needed for the update norm
            delta = float(np.abs(u).max())
            u = u_new
            if delta < solver.picard_tol:
                break
        if delta >= solver.picard_tol:
            raise PicardConvergenceError(k, float(times[k + 1]), delta, n_it)
        extend_slice(u, out=surf[k + 1])
        iters[k] = n_it
        resids[k] = delta

    diag = SolveDiagnostics(step_times=times[1:].copy(), iterations=iters,
                            residuals=resids)
    return times, surf, diag


def terminal_slice(claim: ClaimSpec, grid: GridSpec) -> np.ndarray:
    """Payoff evaluated on the spatial nodes."""
    return np.asarray(claim.payoff(np.exp(grid.x_nodes())), dtype=float)


def solve_semilinear(
    claim: ClaimSpec,
    cfg: MarketConfig,
    grid: GridSpec,
    solver: SolverConfig | None = None,
    side: str = "seller",
    benchmark: "BenchmarkSurface | None" = None,
    allow_arbitrage: bool = False,
) -> Surface:
    """Solve the semilinear wealth PDE for one side of the trade.

    ``benchmark`` must live on the same grid and schedule (it is computed
    on demand when omitted).  Configs that violate the no-arbitrage rate
    ordering raise :class:`ArbitrageViolationError` unless
    ``allow_arbitrage`` is set, in which case a warning is emitted and the
    solve proceeds.
    """
    if side not in ("seller", "buyer"):
        raise ValueError(f"side must be 'seller' or 'buyer', got {side!r}")
    solver = solver or SolverConfig()
    if abs(claim.maturity - grid.maturity) > 1e-12:
        raise ValueError(
            f"claim maturity {claim.maturity} != grid maturity {grid.maturity}"
        )
    violations = validate_no_arbitrage(cfg)
    if violations:
        if not allow_arbitrage:
            raise ArbitrageViolationError(violations)
        warnings.warn(
            "solving despite arbitrage in the rate configuration: "
            + "; ".join(violations),
            RuntimeWarning,
            stacklevel=2,
        )

    if benchmark is None:
        from .benchmark import benchmark_surface

        benchmark = benchmark_surface(grid, claim, cfg, solver)
    if benchmark.grid != grid:
        raise ValueError("benchmark surface grid does not match the solve grid")
    times, _ = time_schedule(grid, solver)
    if not np.array_equal(benchmark.sched_times, times):
        raise ValueError(
            "benchmark surface schedule does not match the solver settings "
            "(same SolverConfig required)"
        )

    m_fold, _ = repo_drift_split(cfg)
    a = cfg.r_D - 0.5 * cfg.sigma * cfg.sigma
    terms = SemilinearTerms(
        side=+1 if side == "seller" else -1,
        cfg=cfg,
        dx=grid.dx,
        bench_sched=benchmark.sched_values,
    )
    sched_times, sched_values, diag = march_schedule(
        terminal_slice(claim, grid), grid, solver,
        a_eff=a - m_fold, b=0.5 * cfg.sigma * cfg.sigma,
        kappa=cfg.h_I_Q + cfg.h_C_Q, terms=terms,
    )
    rows = uniform_row_indices(grid, solver)
    return Surface(grid=grid, values=sched_values[rows].copy(), diagnostics=diag)
