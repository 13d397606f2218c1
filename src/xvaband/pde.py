"""Crank-Nicolson marching for the linear reference equation and the
semilinear wealth PDE.

In log-space x = ln S the two equations share the operator structure

    w_t + a w_x + (sigma^2/2) w_xx - kappa w + G(t, x, w, w_x) = 0,
    w(T, x) = payoff(e^x),

with kappa = r_D and G = 0 for the default-free reference value, and
kappa = h_I_Q + h_C_Q + :func:`xvaband.driver.linear_rate` with G the
close-out source plus the two kinks of the financing driver for the
adjusted value; the linear repo part sits in a (see
:func:`xvaband.driver.repo_drift_split`).  G is piecewise linear in w, so
each implicit step is solved exactly by policy iteration (Howard's
algorithm): freeze the branch of every kink, solve the tridiagonal system
that gives, and repeat until no branch changes.  Each step starts from
the branch set that settled the step before, the usual warm start of
Howard's algorithm in time stepping (Forsyth & Labahn, J. Comp. Finance
11(2), 2007), so an unmoved set reuses its factor; and each step takes
its explicit half from the last solve's right-hand side instead of
applying A and G again (see :func:`march_schedule`).

Boundary rows impose zero second difference in x (payoffs here are
asymptotically linear in S = e^x only at the call wing, but linearity in x
is the standard truncation closure and its error lives in the outer wings
far from the reporting region).  Eliminating those rows leaves a strictly
diagonally dominant tridiagonal system on the interior nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import (
    ArbitrageViolationError,
    ClaimSpec,
    MarketConfig,
    validate_no_arbitrage,
)
from .driver import financing_level, funding_spread, linear_rate, repo_drift_split
from .grid import GridSpec, SolveDiagnostics, SolverConfig, Surface, time_schedule
from .kernels import extend_slice, tridiag_factor, tridiag_solve

__all__ = [
    "SemilinearTerms",
    "march_schedule",
    "reduced_operator",
    "solve_semilinear",
    "terminal_slice",
]

#: linear solves a march step may take; a step that cycles between branch
#: sets (a frozen matrix that is not an M-matrix) stops here
MAX_SOLVES_PER_STEP = 20
#: a step takes its explicit half from the last solve only while
#: rho = (1-theta) dt / (theta dt)_prev stays at most this: the recurrence
#: scales that solve's rounding by rho (theta >= 1/3 keeps rho <= 2)
_MAX_RHO = 2.0
#: a branch flips only where its tested difference exceeds this share of
#: its operands' size: below that the sign is rounding noise
_FLIP_RTOL = 4.0 * np.finfo(float).eps


def reduced_operator(n_x: int, dx: float, a: float, b: float, kappa: float):
    """Tridiagonal coefficients of A on the interior after boundary elimination.

    Returns (lo, di, up) of length n_x - 2.  Eliminating the zero-curvature
    boundary rows cancels the diffusion coupling in the first and last
    interior rows and leaves a one-sided convection difference there.
    """
    m = n_x - 2
    if m < 3:
        raise ValueError(f"need n_x >= 5 for the boundary stencil, got n_x = {n_x}")
    lo = np.full(m, a / (2.0 * dx) - b / (dx * dx))
    di = np.full(m, 2.0 * b / (dx * dx) + kappa)
    up = np.full(m, -a / (2.0 * dx) - b / (dx * dx))
    lo[0], di[0], up[0] = 0.0, kappa + a / dx, -a / dx
    lo[-1], di[-1], up[-1] = a / dx, kappa - a / dx, 0.0
    return lo, di, up


def _apply_reduced(lo, di, up, u):
    """Reduced-operator product A u on the interior."""
    au = np.empty_like(u)
    au[1:-1] = lo[1:-1] * u[:-2] + di[1:-1] * u[1:-1] + up[1:-1] * u[2:]
    au[0] = di[0] * u[0] + up[0] * u[1]
    au[-1] = lo[-1] * u[-2] + di[-1] * u[-1]
    return au


def _settle(diff, a, b, old):
    """Branches ``diff > 0`` (``diff = +-(a - b)``) and their flips from
    ``old``: a node counts only where ``|diff|`` exceeds rounding of ``|a|
    + |b|``.  Without a flip ``old`` itself is returned."""
    new = diff > 0.0
    if old is None:
        return new, 0
    flip = new != old
    if not np.count_nonzero(flip):
        return old, 0
    idx = flip.nonzero()[0]
    idx = idx[np.abs(diff[idx]) > _FLIP_RTOL * (np.abs(a[idx]) + np.abs(b[idx]))]
    if not idx.size:
        return old, 0
    new = old.copy()
    new[idx] = ~old[idx]
    return new, idx.size


@dataclass(eq=False)
class SemilinearTerms:
    """Close-out source and financing driver of one side of the wealth PDE.

    For side ``s = +1`` (seller) or ``-1`` (buyer) the marched source is
    :func:`xvaband.driver.driver_value` plus the intensity-adjusted
    financing ``h_j z_j`` of the default legs, the settlement inflow ``h_I
    theta_I + h_C theta_C`` and ``m_fold w_x``, the linear repo part taken
    out of the convection.  In the level form of :mod:`xvaband.driver`
    this is ``-linear_rate w``, which the march's kappa carries, plus

        G = const_s - s (r_f+ - r_f-) (s (Y - w))^+ - s s_repo |w_x|.

    :meth:`level_terms` gives ``(Y, const_s)`` of a march level and
    :meth:`source` evaluates G.  A branch set ``(funding, slope)`` flags
    the nodes where ``s (Y - w) > 0`` and where ``w_{i+1} > w_{i-1}``
    (None for a kink of zero slope); frozen there, G is linear in w.
    """

    side: int
    cfg: MarketConfig
    dx: float
    bench_sched: np.ndarray  # (n_levels, n_x) reference slices in march order

    def __post_init__(self) -> None:
        _, s_repo = repo_drift_split(self.cfg)
        self._spread = funding_spread(self.cfg)
        self._c_repo = -self.side * s_repo / (2.0 * self.dx)

    def level_terms(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(Y, const_s) on the interior nodes of march level k."""
        return financing_level(self.side, self.cfg, self.bench_sched[k, 1:-1])

    def source(self, level: tuple[np.ndarray, np.ndarray],
               w_full: np.ndarray) -> np.ndarray:
        """Interior source G at one level for the full slice ``w_full``."""
        y_level, const = level
        w = w_full[1:-1]
        kink = y_level - w if self.side > 0 else w - y_level  # s * y
        np.maximum(kink, 0.0, out=kink)
        kink *= -self.side * self._spread
        g = const + kink
        kink = w_full[2:] - w_full[:-2]
        np.abs(kink, out=kink)
        kink *= self._c_repo
        g += kink
        return g

    def branches(self, level, w_full: np.ndarray, old=(None, None)):
        """Branch set of ``w_full`` and the number of nodes that left ``old``."""
        funding = slope = None
        n_fund = n_slope = 0
        if self._spread:
            y_level, w = level[0], w_full[1:-1]
            diff = y_level - w if self.side > 0 else w - y_level
            funding, n_fund = _settle(diff, y_level, w, old[0])
        if self._c_repo:
            hi, lo = w_full[2:], w_full[:-2]
            slope, n_slope = _settle(hi - lo, hi, lo, old[1])
        return (funding, slope), n_fund + n_slope

    def frozen_bands(self, branch, theta_dt: float, lo, di, up):
        """Bands of ``u + theta_dt (A u - G(u))``, the kinks frozen at
        ``branch``, for the bands ``(lo, di, up)`` of A."""
        funding, slope = branch
        lo, di, up = theta_dt * lo, 1.0 + theta_dt * di, theta_dt * up
        if funding is not None:
            di -= (theta_dt * self._spread) * funding
        if slope is not None:
            q = np.where(slope, theta_dt * self._c_repo, -theta_dt * self._c_repo)
            lo += q
            up -= q
            # the extrapolated edge nodes double the one-sided differences
            up[0] -= q[0]
            di[0] += 2.0 * q[0]
            lo[-1] += q[-1]
            di[-1] -= 2.0 * q[-1]
        return lo, di, up

    def frozen_source(self, level, branch) -> np.ndarray:
        """The part of G left on the right with the kinks frozen at ``branch``."""
        y_level, const = level
        if branch[0] is None:
            return const
        return const - (self._spread * y_level) * branch[0]


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

        (I + theta dt A) u - theta dt G_{k+1}(u)
            = (I - (1-theta) dt A) u_k + (1-theta) dt G_k(u_k) =: rhs0_k

    on the interior, with G the source of ``terms`` (none for the linear
    reference equation).  The last solve already holds the explicit half:
    it left ``(theta dt)_{k-1} (A u_k - G_k(u_k)) = rhs0_{k-1} - u_k``, so

        rhs0_k = u_k + rho_k (u_k - rhs0_{k-1}),
        rho_k = (1-theta_k) dt_k / (theta dt)_{k-1}.

    A and G are applied directly only where no usable solve precedes the
    step: the first step with theta < 1, and any step with rho_k > 2.
    That is every step after one with theta dt = 0 (explicit Euler), and
    every step at theta < 1/3, where the recurrence would scale the last
    solve's rounding by rho_k.

    Policy iteration solves each step exactly: it starts from the branch
    set that settled the previous step (the first step takes the terminal
    slice's), solves the linear system that set freezes, and repeats from
    the solution's branches until no node flips.  Factors are kept while
    theta dt and the branch set stay the same, so a step whose set did
    not move reuses the last factor.  A step still flipping after
    :data:`MAX_SOLVES_PER_STEP` solves raises ``RuntimeError``.

    Returns (sched_times, sched_values, diagnostics); sched_values[k] is
    the full slice at sched_times[k], marching from T down to 0, and the
    diagnostics count every step's linear solves and factors.
    """
    times, thetas = time_schedule(grid, solver)
    dts = times[:-1] - times[1:]
    lo, di, up = reduced_operator(grid.n_x, grid.dx, a_eff, b, kappa)

    surf = np.empty((dts.size + 1, grid.n_x))
    surf[0] = w_terminal
    iters = np.ones(dts.size, dtype=np.int64)
    n_factors = np.zeros(dts.size, dtype=np.int64)
    level = terms.level_terms(0) if terms is not None else None
    branch = (None, None)
    factors: dict[float, tuple] = {}  # theta dt -> (branch set and) factors
    rhs0, last_theta_dt = None, 0.0
    for k, (dt, theta) in enumerate(zip(dts.tolist(), thetas.tolist())):
        theta_dt = theta * dt
        c_e = (1.0 - theta) * dt
        w_next, w_new = surf[k], surf[k + 1]
        u_next = w_next[1:-1]
        if not c_e:
            rhs0 = u_next
        elif c_e <= _MAX_RHO * last_theta_dt:
            rhs0 = u_next + (c_e / last_theta_dt) * (u_next - rhs0)
        else:
            rhs0 = u_next - c_e * _apply_reduced(lo, di, up, u_next)
            if terms is not None:
                rhs0 += c_e * terms.source(level, w_next)
        last_theta_dt = theta_dt
        if terms is None:
            if theta_dt not in factors:
                factors[theta_dt] = tridiag_factor(theta_dt * lo, 1.0 + theta_dt * di,
                                                   theta_dt * up)
                n_factors[k] = 1
            # the solve overwrites its right-hand side; the next step reads rhs0
            extend_slice(tridiag_solve(factors[theta_dt], rhs0.copy()), out=w_new)
            continue

        level = terms.level_terms(k + 1)
        if k == 0:
            branch, _ = terms.branches(level, extend_slice(u_next, out=w_new))
        for n_solves in range(1, MAX_SOLVES_PER_STEP + 1):
            kept = factors.get(theta_dt)
            if kept is None or kept[0] is not branch[0] or kept[1] is not branch[1]:
                kept = factors[theta_dt] = (*branch, tridiag_factor(
                    *terms.frozen_bands(branch, theta_dt, lo, di, up)))
                n_factors[k] += 1
            rhs = rhs0 + theta_dt * terms.frozen_source(level, branch)
            extend_slice(tridiag_solve(kept[2], rhs), out=w_new)
            branch, n_flips = terms.branches(level, w_new, branch)
            if not n_flips:
                break
        else:
            raise RuntimeError(
                f"branch solve did not settle at step {k} (t = {times[k + 1]:.6g}):"
                f" {n_flips} nodes still flipped after {n_solves} linear solves")
        iters[k] = n_solves

    diag = SolveDiagnostics(step_times=times[1:].copy(), iterations=iters,
                            factors=n_factors)
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
    benchmark: Surface | None = None,
    allow_arbitrage: bool = False,
) -> Surface:
    """Solve the semilinear wealth PDE for one side of the trade.

    ``benchmark`` is the reference :class:`Surface` and must be solved on
    the same grid with the same solver settings (it is computed on demand
    when omitted).  Configs that violate the no-arbitrage rate
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
    if benchmark.grid != grid or benchmark.solver != solver:
        raise ValueError(
            "benchmark surface does not match the solve grid and solver settings "
            "(same GridSpec and SolverConfig required)"
        )

    m_fold, _ = repo_drift_split(cfg)
    a = cfg.r_D - 0.5 * cfg.sigma * cfg.sigma
    terms = SemilinearTerms(side=+1 if side == "seller" else -1, cfg=cfg,
                            dx=grid.dx, bench_sched=benchmark.sched_values)
    _, sched_values, diag = march_schedule(
        terminal_slice(claim, grid), grid, solver,
        a_eff=a - m_fold, b=0.5 * cfg.sigma * cfg.sigma,
        kappa=cfg.h_I_Q + cfg.h_C_Q + linear_rate(cfg), terms=terms,
    )
    return Surface(grid=grid, solver=solver, sched_values=sched_values,
                   diagnostics=diag)
