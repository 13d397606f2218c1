"""Crank-Nicolson marching for the linear reference equation and the
semilinear wealth PDE.

In log-space x = ln S the two equations share the operator structure

    w_t + a w_x + (sigma^2/2) w_xx - kappa w + G(t, x, w, w_x) = 0,
    w(T, x) = payoff(e^x),

with kappa = r_D and G = 0 for the default-free reference value, and
kappa = h_I_Q + h_C_Q + :func:`xvaband.driver.linear_rate` with G the
close-out source plus the two kinks of the financing driver for the
adjusted value; the linear repo part sits in a (see
:func:`xvaband.driver.repo_drift_split`).  G reads its close-out and
collateral marks off the reference surface, so :func:`solve_semilinear`
takes that surface and marches on its lattice.  G is piecewise linear in
w, so each implicit step is solved exactly by policy iteration (Howard's
algorithm): freeze the branch of every kink, solve the tridiagonal system
of the linear PDE that leaves, whose convection a and rate kappa vary by
node, and repeat until no branch changes.  Each step starts from
the branch set that settled the step before, the usual warm start of
Howard's algorithm in time stepping (Forsyth & Labahn, J. Comp. Finance
11(2), 2007), so an unmoved set reuses its factor; and each step takes
its explicit half from the last solve's right-hand side instead of
applying A and G again (see :func:`march_schedule`).  Steps take the
exact lengths of :func:`xvaband.grid.time_schedule`, whose Rannacher
startup makes the first step fully implicit.  Only theta in [1/2, 1] is
marched: it is stable on every lattice.

Boundary rows impose zero second difference in x (payoffs here are
asymptotically linear in S = e^x only at the call wing, but linearity in x
is the standard truncation closure and its error lives in the outer wings
far from the reporting region).  :func:`reduced_operator` eliminates those
rows of every operator, the reference's and each frozen one (its edge
rows make ``I + theta dt A`` no M-matrix, even at theta = 1), and
:func:`extend_slice` restores them on every solved slice.
:func:`tridiag_factor` and :func:`tridiag_solve` run the interior system
through LAPACK (``dgttrf``/``dgttrs``) in the band layout that
:func:`reduced_operator` returns.

Every solve, this march and the tree induction of :mod:`xvaband.oracle`,
runs on numpy and scipy; :func:`active_backend` names that for reports and
run logs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .config import (
    ArbitrageViolationError,
    ClaimSpec,
    MarketConfig,
    validate_no_arbitrage,
)
from .driver import financing_level, funding_spread, linear_rate, repo_drift_split
from .grid import GridSpec, SolveDiagnostics, SolverConfig, Surface, time_schedule

__all__ = [
    "SemilinearTerms",
    "active_backend",
    "extend_slice",
    "march_schedule",
    "reduced_operator",
    "solve_semilinear",
    "terminal_slice",
    "tridiag_factor",
    "tridiag_solve",
]

#: linear solves a march step may take; a step that cycles between branch
#: sets (a frozen matrix that is not an M-matrix) stops here
MAX_SOLVES_PER_STEP = 20
#: a branch flips only where its tested difference exceeds this share of
#: its operands' size: below that the sign is rounding noise
_FLIP_RTOL = 4.0 * np.finfo(float).eps


def active_backend() -> str:
    return "numpy"


def reduced_operator(n_x: int, dx: float, a, b: float, kappa):
    """Tridiagonal coefficients of A on the interior after boundary elimination.

    ``a`` and ``kappa`` are scalars or one value per interior node.  Row i
    of (lo, di, up), each of length n_x - 2, reads ``lo[i] u[i-1] + di[i]
    u[i] + up[i] u[i+1]``; ``lo[0]`` and ``up[-1]`` lie outside the matrix
    (zero here; :func:`tridiag_factor` ignores them).  Eliminating the
    zero-curvature boundary rows cancels the diffusion coupling in the
    first and last interior rows and leaves a one-sided convection
    difference there (``up[0]`` has the sign of ``-a[0]``, ``lo[-1]`` that
    of ``a[-1]``); :func:`extend_slice` puts the edge nodes back on the
    same linear extension.
    """
    m = n_x - 2
    if m < 3:
        raise ValueError(f"need n_x >= 5 for the boundary stencil, got n_x = {n_x}")
    a, kappa = np.full(m, a, dtype=float), np.full(m, kappa, dtype=float)
    c, d = a / (2.0 * dx), b / (dx * dx)
    lo = c - d
    di = 2.0 * b / (dx * dx) + kappa
    up = -d - c
    lo[0], di[0], up[0] = 0.0, kappa[0] + a[0] / dx, -a[0] / dx
    lo[-1], di[-1], up[-1] = a[-1] / dx, kappa[-1] - a[-1] / dx, 0.0
    return lo, di, up


def tridiag_factor(lo: np.ndarray, di: np.ndarray, up: np.ndarray):
    """LU factors (LAPACK ``dgttrf``) of a tridiagonal matrix of size >= 3,
    in the band layout of :func:`reduced_operator`.

    The factors serve any number of :func:`tridiag_solve` calls.
    """
    dl, d, du, du2, ipiv, info = dgttrf(lo[1:], di, up[:-1])
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal system (dgttrf info {info})")
    return dl, d, du, du2, ipiv


def tridiag_solve(lu, rhs: np.ndarray) -> np.ndarray:
    """Solve with factors from :func:`tridiag_factor`, in place of ``rhs``."""
    u, _ = dgttrs(*lu, rhs, overwrite_b=1)
    return u


def extend_slice(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Full slice from interior values via linear extrapolation at both ends,
    the zero-curvature closure :func:`reduced_operator` eliminates.

    Writes into ``out`` (length ``u.size + 2``) when given.
    """
    w = np.empty(u.size + 2) if out is None else out
    w[1:-1] = u
    w[0] = 2.0 * u[0] - u[1]
    w[-1] = 2.0 * u[-1] - u[-2]
    return w


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

    :meth:`level_terms` gives ``(Y, const_s)`` of a march level, from the
    split of the level's reference values into their positive and negative
    parts (:func:`xvaband.driver.financing_level`).  A branch
    set ``(funding, slope)`` flags the nodes where ``s (Y - w) > 0`` and
    where ``w_{i+1} > w_{i-1}`` (None for a kink of zero slope); frozen
    there, G is linear in w: :meth:`frozen_source` is its constant part and
    :meth:`frozen_coefficients` the node-wise convection and rate of the rest.
    """

    side: int
    cfg: MarketConfig
    bench_sched: np.ndarray  # (n_levels, n_x) reference slices in march order

    def __post_init__(self) -> None:
        self._spread = funding_spread(self.cfg)
        self._repo_shift = -self.side * repo_drift_split(self.cfg)[1]

    def level_terms(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(Y, const_s) on the interior nodes of march level k: two linear
        forms in the positive and negative parts of the reference slice."""
        return financing_level(self.side, self.cfg, self.bench_sched[k, 1:-1])

    def branches(self, level, w_full: np.ndarray, old=(None, None)):
        """Branch set of ``w_full`` and the number of nodes that left ``old``."""
        funding = slope = None
        n_fund = n_slope = 0
        if self._spread:
            y_level, w = level[0], w_full[1:-1]
            diff = y_level - w if self.side > 0 else w - y_level
            funding, n_fund = _settle(diff, y_level, w, old[0])
        if self._repo_shift:
            hi, lo = w_full[2:], w_full[:-2]
            slope, n_slope = _settle(hi - lo, hi, lo, old[1])
        return (funding, slope), n_fund + n_slope

    def frozen_coefficients(self, branch, a: float, kappa: float):
        """Node-wise convection and rate of ``A u - G(u)``, the kinks frozen at
        ``branch``: the funding branch lowers A's ``kappa`` by ``r_f+ - r_f-``,
        the repo branch adds ``-s s_repo`` to A's ``a`` up-slope, ``+s s_repo`` down."""
        funding, slope = branch
        if funding is not None:
            kappa = np.where(funding, kappa - self._spread, kappa)
        if slope is not None:
            a = np.where(slope, a + self._repo_shift, a - self._repo_shift)
        return a, kappa

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
) -> Surface:
    """Backward theta-scheme march over the full schedule.

    Each step from level k to k + 1 solves

        (I + theta dt A) u - theta dt G_{k+1}(u)
            = (I - (1-theta) dt A) u_k + (1-theta) dt G_k(u_k) =: rhs0_k

    on the interior, with G the source of ``terms`` (none for the linear
    reference equation).  The last solve already holds the explicit half:
    it left ``(theta dt)_{k-1} (A u_k - G_k(u_k)) = rhs0_{k-1} - u_k``, so

        rhs0_k = u_k + rho_k (u_k - rhs0_{k-1}),
        rho_k = (1-theta_k) dt_k / (theta dt)_{k-1}.

    theta >= 1/2 keeps rho_k <= 1, so the recurrence never amplifies the
    last solve's rounding.  The schedule opens with the fully implicit
    Rannacher half steps, so a solve precedes every explicit half.

    Policy iteration solves each step exactly: it starts from the branch
    set that settled the previous step (the first step takes the terminal
    slice's), solves the linear system that set freezes, and repeats from
    the solution's branches until no node flips.  Every factor is of ``I
    + theta dt A(a, kappa)``, at ``(a_eff, kappa)`` for the reference and
    at :meth:`SemilinearTerms.frozen_coefficients` for a branch set.  One
    factor is kept and redone only when theta dt changes or the branch set
    is a new object.  The steps take the exact lengths of
    :func:`time_schedule`, so theta dt changes only between theta phases
    (never at the defaults, where 1 * dt/2 and 1/2 * dt are the same
    float): a step whose set did not move reuses the last factor, and the
    reference march factors once per phase.  A step still flipping after
    :data:`MAX_SOLVES_PER_STEP` solves raises ``RuntimeError``.

    Returns the :class:`Surface` of the march: its rows are the full
    slices at every schedule level from T down to 0, and its diagnostics
    count every step's linear solves and factors.
    """
    times, dts, thetas = time_schedule(grid, solver)

    def factor_of(theta_dt, a, kap):  # LU of I + theta_dt A(a, kap)
        lo, di, up = reduced_operator(grid.n_x, grid.dx, a, b, kap)
        return tridiag_factor(theta_dt * lo, 1.0 + theta_dt * di, theta_dt * up)

    surf = np.empty((dts.size + 1, grid.n_x))
    surf[0] = w_terminal
    iters = np.ones(dts.size, dtype=np.int64)
    n_factors = np.zeros(dts.size, dtype=np.int64)
    branch = (None, None)
    factor = (None, None, None)  # theta dt, branch set and LU of the last factor
    for k, (dt, theta) in enumerate(zip(dts.tolist(), thetas.tolist())):
        theta_dt = theta * dt
        c_e = (1.0 - theta) * dt
        w_new = surf[k + 1]
        u_next = surf[k, 1:-1]
        # the schedule opens with theta = 1, so rhs0 exists once c_e > 0
        rhs0 = u_next + (c_e / last_theta_dt) * (u_next - rhs0) if c_e else u_next
        last_theta_dt = theta_dt
        if terms is None:
            if factor[0] != theta_dt or factor[1] is not branch:
                factor = (theta_dt, branch, factor_of(theta_dt, a_eff, kappa))
                n_factors[k] = 1
            # the solve overwrites its right-hand side; the next step reads rhs0
            extend_slice(tridiag_solve(factor[2], rhs0.copy()), out=w_new)
            continue

        level = terms.level_terms(k + 1)
        if k == 0:
            branch, _ = terms.branches(level, extend_slice(u_next, out=w_new))
        for n_solves in range(1, MAX_SOLVES_PER_STEP + 1):
            if factor[0] != theta_dt or factor[1] is not branch:
                factor = (theta_dt, branch, factor_of(
                    theta_dt, *terms.frozen_coefficients(branch, a_eff, kappa)))
                n_factors[k] += 1
            rhs = rhs0 + theta_dt * terms.frozen_source(level, branch)
            extend_slice(tridiag_solve(factor[2], rhs), out=w_new)
            moved, n_flips = terms.branches(level, w_new, branch)
            if not n_flips:
                break
            branch = moved
        else:
            raise RuntimeError(
                f"branch solve did not settle at step {k} (t = {times[k + 1]:.6g}):"
                f" {n_flips} nodes still flipped after {n_solves} linear solves")
        iters[k] = n_solves

    return Surface(grid=grid, solver=solver, sched_values=surf,
                   diagnostics=SolveDiagnostics(iterations=iters, factors=n_factors))


def terminal_slice(claim: ClaimSpec, grid: GridSpec) -> np.ndarray:
    """Payoff evaluated on the spatial nodes; the claim must mature at the
    grid's maturity."""
    if abs(claim.maturity - grid.maturity) > 1e-12:
        raise ValueError(
            f"claim maturity {claim.maturity} != grid maturity {grid.maturity}"
        )
    return np.asarray(claim.payoff(np.exp(grid.x_nodes())), dtype=float)


def solve_semilinear(
    claim: ClaimSpec,
    cfg: MarketConfig,
    benchmark: Surface,
    side: str = "seller",
    allow_arbitrage: bool = False,
) -> Surface:
    """Solve the semilinear wealth PDE for one side of the trade.

    ``benchmark`` is the reference :class:`Surface`
    (:func:`xvaband.benchmark.benchmark_surface`): its close-out marks and
    collateral drive the source, and its grid and solver settings are the
    solve's.  Configs that violate the no-arbitrage rate ordering raise
    :class:`ArbitrageViolationError` unless ``allow_arbitrage`` is set, in
    which case a warning is emitted and the solve proceeds.
    """
    if side not in ("seller", "buyer"):
        raise ValueError(f"side must be 'seller' or 'buyer', got {side!r}")
    grid = benchmark.grid
    w_terminal = terminal_slice(claim, grid)
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

    m_fold, _ = repo_drift_split(cfg)
    b = 0.5 * cfg.sigma * cfg.sigma
    terms = SemilinearTerms(+1 if side == "seller" else -1, cfg, benchmark.sched_values)
    return march_schedule(
        w_terminal, grid, benchmark.solver, a_eff=cfg.r_D - b - m_fold, b=b,
        kappa=cfg.h_I_Q + cfg.h_C_Q + linear_rate(cfg), terms=terms)
