"""Crank-Nicolson marching for the linear reference equation and the
semilinear wealth PDE.

In log-space x = ln S the two equations share the operator structure

    w_t + a w_x + (sigma^2/2) w_xx - kappa w + G(t, x, w, w_x) = 0,
    w(T, x) = payoff(e^x),

with kappa = r_D and G = 0 for the default-free reference value; for the
adjusted value kappa and a (which holds the linear repo part) come from
:func:`xvaband.driver.equation_coefficients`, and G is the close-out source
plus the two kinks of the financing driver.  The payoff meets the lattice
in :func:`xvaband.benchmark.benchmark_surface`, whose surface gives G its
close-out and collateral marks, so :func:`solve_sides`, the one entry to
the wealth PDE, marches both sides on its lattice from its terminal row.  G
is piecewise linear in w, so each implicit step is solved exactly by policy
iteration (Howard's algorithm): freeze the branch of every kink, solve the
tridiagonal system of the linear PDE that leaves, whose convection a and
rate kappa vary by node, and repeat until no branch changes.  Steps take
the exact lengths of :func:`xvaband.grid.time_schedule`, whose Rannacher
startup makes the first step fully implicit.  Only theta in [1/2, 1] is
marched: it is stable on every lattice.  The seller and the buyer march in
one loop, as two blocks of one linear system; :func:`march_schedule` gives
the layout, the warm start and the reuse of the factor and of the explicit
half.

Boundary rows impose zero second difference in x (payoffs here are
asymptotically linear in S = e^x only at the call wing, but linearity in x
is the standard truncation closure and its error lives in the outer wings
far from the reporting region).  :func:`reduced_operator` eliminates those
rows of every operator, the reference's and each frozen one (its edge
rows make ``I + theta dt A`` no M-matrix, even at theta = 1), and the
march puts them back on the linear extension of every solved slice.
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
    MarketConfig,
    _require_count,
    validate_no_arbitrage,
)
from .driver import equation_coefficients, financing_level, level_coefficients
from .grid import GridSpec, SolveDiagnostics, SolverConfig, Surface, time_schedule

__all__ = [
    "SemilinearTerms",
    "active_backend",
    "march_schedule",
    "reduced_operator",
    "solve_sides",
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
    of ``a[-1]``); the march puts the edge nodes back on the same linear
    extension.
    """
    _require_count("n_x", n_x, 5)  # three interior rows for the boundary stencil
    m = n_x - 2
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


def _close_edges(w: np.ndarray, n_x: int) -> None:
    """Put the edge nodes of each full slice of ``n_x`` nodes in the row
    ``w`` on the linear extension of its interior, in place: the
    zero-curvature closure :func:`reduced_operator` eliminates."""
    for o in range(0, w.size, n_x):
        w[o] = 2.0 * w[o + 1] - w[o + 2]
        w[o + n_x - 1] = 2.0 * w[o + n_x - 2] - w[o + n_x - 3]


def _span(j: int, n_x: int) -> slice:
    """The interior nodes of slice j of a stacked row's interior."""
    return slice(j * n_x, (j + 1) * n_x - 2)


def _settle(diff, a, b, old):
    """Flip the branches ``old`` in place where ``diff > 0`` (``diff = +-(a -
    b)``) disagrees with them: a node counts only where ``|diff|`` exceeds
    rounding of ``|a| + |b|``.  Returns the flipped nodes, None without
    any."""
    flip = diff > 0.0
    flip ^= old
    if not np.count_nonzero(flip):
        return None
    idx = flip.nonzero()[0]
    idx = idx[np.abs(diff[idx]) > _FLIP_RTOL * (np.abs(a[idx]) + np.abs(b[idx]))]
    if not idx.size:
        return None
    old[idx] = ~old[idx]
    return idx


@dataclass(eq=False)
class SemilinearTerms:
    """Close-out source and financing driver of the wealth PDE for the sides
    ``sides`` (+1 seller, -1 buyer), marched side by side.

    For side ``s`` the marched source is the financing driver of
    :mod:`xvaband.driver` plus the intensity-adjusted financing ``h_j z_j``
    of the default legs, the settlement inflow ``h_I theta_I + h_C
    theta_C`` and ``m_fold w_x``, the linear repo part taken out of the
    convection.  In the level form of
    :mod:`xvaband.driver` this is ``-(h_I + h_C + 2 r_D - r_f-) w``, which
    the march's kappa carries, plus

        G = const_s - s (r_f+ - r_f-) (s (Y - w))^+ - s s_repo |w_x|.

    Every array here lies on the interior of the march's stacked row (see
    :func:`march_schedule`): side j's interior nodes from ``j n_x`` on, and
    between two sides the edge nodes where their slices meet, which carry
    no branch.  :meth:`level_terms` gives ``(Y, const_s)`` of a march level
    for every side at once: :func:`xvaband.driver.financing_level` with each
    side's ``c_p`` and ``c_n`` repeated over its block.  A branch set
    ``(funding, slope)`` flags the nodes where ``s (Y - w) > 0`` and where
    ``w_{i+1} > w_{i-1}`` (None for a kink of zero slope); frozen there, G
    is linear in w: :meth:`frozen_source` is its constant part and
    :meth:`frozen_coefficients` the node-wise convection and rate of the
    rest.  Every ``w`` here is the full stacked row.
    """

    sides: tuple[int, ...]
    cfg: MarketConfig
    bench_sched: np.ndarray  # (n_levels, n_x) reference slices in march order

    def __post_init__(self) -> None:
        self._n_x = n_x = self.bench_sched.shape[1]
        y_p, y_n, *c = zip(*(level_coefficients(self.cfg, s) for s in self.sides))
        # Y's coefficients are every side's; const_s's repeat over each block
        self._coefficients = (y_p[0], y_n[0], *(np.repeat(x, n_x)[1:-1] for x in c))
        side = np.repeat(np.array(self.sides, dtype=float), n_x)
        side[n_x - 1:-1:n_x] = side[n_x::n_x] = 0.0
        #: each node's side, 0 on the edges where two sides meet
        self._sign = side[1:-1]
        self._row = np.empty(side.size)  # the reference row once per side
        self._rows = self._row.reshape(len(self.sides), n_x)
        self._eq = equation_coefficients(self.cfg)

    def level_terms(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(Y, const_s) on the interior nodes of march level k."""
        self._rows[:] = self.bench_sched[k]
        return financing_level(self._coefficients, self._row[1:-1])

    def _differences(self, level, w):
        """``(diff, a, b)`` of the funding and of the slope kink on the
        interior of the row ``w``; None for a kink of zero slope.  ``diff``
        is 0 where two sides meet."""
        funding = slope = None
        if self._eq.spread:
            y_level, u = level[0], w[1:-1]
            diff = y_level - u
            diff *= self._sign
            funding = diff, y_level, u
        if self._eq.s_repo:
            up, down = w[2:], w[:-2]
            diff = up - down
            m = self._n_x - 2  # the edge nodes where two sides meet; none on one side
            diff[m::self._n_x] = diff[m + 1::self._n_x] = 0.0
            slope = diff, up, down
        return funding, slope

    def branches(self, level, w: np.ndarray):
        """Branch set of the row ``w``."""
        return tuple(None if d is None else d[0] > 0.0 for d in self._differences(level, w))

    def settle(self, level, w: np.ndarray, branch):
        """Move ``branch`` in place to the branches of the row ``w``; returns
        ``(side index, flips)`` of every side that moved."""
        flipped = []
        for d, old in zip(self._differences(level, w), branch):
            if d is not None:
                idx = _settle(*d, old)
                if idx is not None:
                    flipped.append(idx)
        if not flipped:
            return []
        per_side = np.bincount(np.concatenate(flipped) // self._n_x,
                               minlength=len(self.sides))
        return [(j, n) for j, n in enumerate(per_side.tolist()) if n]

    def frozen_coefficients(self, branch, j: int, a: float, kappa: float):
        """Node-wise convection and rate of side j's ``A u - G(u)``, the kinks
        frozen at ``branch``: the funding branch lowers A's ``kappa`` by ``r_f+
        - r_f-``, the repo branch adds ``-s s_repo`` to A's ``a`` up-slope,
        ``+s s_repo`` down."""
        funding, slope = branch
        span = _span(j, self._n_x)
        if funding is not None:
            kappa = np.where(funding[span], kappa - self._eq.spread, kappa)
        if slope is not None:
            shift = -self.sides[j] * self._eq.s_repo
            a = np.where(slope[span], a + shift, a - shift)
        return a, kappa

    def frozen_source(self, level, branch) -> np.ndarray:
        """The part of G left on the right with the kinks frozen at
        ``branch``."""
        y_level, const = level
        if branch[0] is None:
            return const
        return const - (self._eq.spread * y_level) * branch[0]


def march_schedule(
    w_terminal: np.ndarray,
    grid: GridSpec,
    solver: SolverConfig,
    a_eff: float,
    b: float,
    kappa: float,
    terms: SemilinearTerms | None = None,
) -> tuple[Surface, ...]:
    """Backward theta-scheme march over the full schedule, of the reference
    equation or of every side of ``terms`` at once.

    Each step from level k to k + 1 solves

        (I + theta dt A) u - theta dt G_{k+1}(u)
            = (I - (1-theta) dt A) u_k + (1-theta) dt G_k(u_k) =: rhs0_k

    on the interior, with G the source of a side of ``terms`` (none for the
    linear reference equation).  The last solve already holds the explicit
    half: it left ``(theta dt)_{k-1} (A u_k - G_k(u_k)) = rhs0_{k-1} -
    u_k``, so

        rhs0_k = u_k + rho_k (u_k - rhs0_{k-1}),
        rho_k = (1-theta_k) dt_k / (theta dt)_{k-1}.

    theta >= 1/2 keeps rho_k <= 1, so the recurrence never amplifies the
    last solve's rounding.  It starts from rhs0_{-1} = 0 and (theta
    dt)_{-1} = 1; the fully implicit Rannacher half steps that open the
    schedule have rho_k = 0, so there it gives rhs0_k = u_k exactly.

    The march has one block per side (one for the reference), each starting
    from ``w_terminal``.  The blocks' full slices sit side by side in one
    row of ``n_blocks * n_x`` values, whose interior is one block-diagonal
    tridiagonal system: the edge nodes where two blocks meet are identity
    rows with no coupling, which the edge closure overwrites after each
    solve.  Each step forms the level terms, the right-hand side, the solve,
    the edges and the branch check once for all blocks, as numpy calls on
    that whole row.

    Policy iteration solves each step exactly: each side starts from the
    branch set that settled its previous step (the first step takes the
    terminal slice's), the usual warm start of Howard's algorithm in time
    stepping (Forsyth & Labahn, J. Comp. Finance 11(2), 2007), solves the
    linear system that set freezes, and repeats from the solution's
    branches until no node flips.  Every solve covers every block.  A side
    that has settled while another still flips is solved again with its
    unchanged right-hand side and factor rows, so its slice and branch set
    stay bitwise where they settled, and so does its count of solves: each
    side's surface is bitwise the one a march of its block alone gives.
    The numpy calls on 800-node arrays cost mostly fixed overhead, so one
    call on both sides costs little more than one on either.

    The march holds one linear system: one buffer of the bands of every
    block's ``I + theta dt A(a, kappa)``, at ``(a_eff, kappa)`` for the
    reference and at :meth:`SemilinearTerms.frozen_coefficients` for a
    side's branch set, and one ``dgttrf`` factor of the whole.  A block's
    rows are rebuilt when its branch set moved, every block's when theta dt
    changes, and then one factor covers the system again; no pivot crosses
    an identity row, so each block's rows of it are the factor of that
    block alone.  The steps take the exact lengths of
    :func:`time_schedule`, so theta dt changes only between theta phases
    (never at the defaults, where 1 * dt/2 and 1/2 * dt are the same float):
    a step whose set did not move reuses the last factor, and the reference
    march factors once per phase.  A side still flipping after
    :data:`MAX_SOLVES_PER_STEP` solves raises ``RuntimeError``.

    Returns one :class:`Surface` per block, its rows a view of the stacked
    march: the full slices at every schedule level from T down to 0, and
    diagnostics that count every step's linear solves and the rebuilds of
    the block's rows, its factors.
    """
    times, dts, thetas = time_schedule(grid, solver)
    n_x = grid.n_x
    n_blocks = 1 if terms is None else len(terms.sides)
    branch = level = lu = bands_theta_dt = None
    # I + theta dt A of every block, lo/di/up rows in the layout of
    # reduced_operator; the identity rows between blocks are never rewritten
    bands = np.zeros((3, n_blocks * n_x - 2))
    bands[1] = 1.0
    block_bands = [bands[:, _span(j, n_x)] for j in range(n_blocks)]

    surf = np.empty((dts.size + 1, n_blocks * n_x))
    slices = surf.reshape(dts.size + 1, n_blocks, n_x)
    slices[0] = w_terminal
    rhs0 = np.zeros(n_blocks * n_x - 2)
    last_theta_dt = 1.0
    iters = np.ones((n_blocks, dts.size), dtype=np.int64)
    n_factors = np.zeros((n_blocks, dts.size), dtype=np.int64)
    for k, (dt, theta) in enumerate(zip(dts.tolist(), thetas.tolist())):
        theta_dt = theta * dt
        u_next = surf[k, 1:-1]
        w_new = surf[k + 1]
        np.subtract(u_next, rhs0, out=rhs0)
        rhs0 *= (1.0 - theta) * dt / last_theta_dt  # rho_k
        rhs0 += u_next
        last_theta_dt = theta_dt
        if terms is not None:
            level = terms.level_terms(k + 1)
            if k == 0:
                w_new[:] = surf[0]
                _close_edges(w_new, n_x)
                branch = terms.branches(level, w_new)
        if theta_dt != bands_theta_dt:  # stale: the blocks whose rows are out of date
            stale, bands_theta_dt = range(n_blocks), theta_dt

        for n_solves in range(1, MAX_SOLVES_PER_STEP + 1):
            if stale:
                for j in stale:
                    a, kap = ((a_eff, kappa) if terms is None
                              else terms.frozen_coefficients(branch, j, a_eff, kappa))
                    rows = block_bands[j]
                    for row, op in zip(rows, reduced_operator(n_x, grid.dx, a, b, kap)):
                        np.multiply(theta_dt, op, out=row)
                    rows[1] += 1.0
                    n_factors[j, k] += 1
                lu = tridiag_factor(*bands)
                stale = ()
            rhs = w_new[1:-1]
            if terms is None:
                rhs[:] = rhs0
            else:
                np.multiply(theta_dt, terms.frozen_source(level, branch), out=rhs)
                rhs += rhs0
            tridiag_solve(lu, rhs)
            _close_edges(w_new, n_x)
            moved = [] if terms is None else terms.settle(level, w_new, branch)
            if not moved:
                break
            stale = [j for j, _ in moved]
            for j in stale:
                iters[j, k] = n_solves + 1
        else:
            j, n_flips = moved[0]
            side = "seller" if terms.sides[j] > 0 else "buyer"
            raise RuntimeError(
                f"branch solve of the {side} did not settle at step {k}"
                f" (t = {times[k + 1]:.6g}): {n_flips} nodes still flipped after"
                f" {n_solves} linear solves")

    return tuple(
        Surface(grid=grid, solver=solver, sched_values=slices[:, j],
                diagnostics=SolveDiagnostics(iterations=iters[j], factors=n_factors[j]))
        for j in range(n_blocks))


def solve_sides(
    cfg: MarketConfig,
    benchmark: Surface,
    allow_arbitrage: bool = False,
) -> tuple[Surface, Surface]:
    """The seller's and the buyer's surfaces of the semilinear wealth PDE,
    marched side by side in one march of two blocks (:func:`march_schedule`).

    ``benchmark`` is the reference :class:`Surface`
    (:func:`xvaband.benchmark.benchmark_surface`): both sides start from its
    terminal row, the claim's payoff; its close-out marks and collateral
    drive the source; its grid and solver settings are the solve's.
    Configs that violate the no-arbitrage rate ordering raise
    :class:`ArbitrageViolationError` unless ``allow_arbitrage`` is set, in
    which case one warning, naming the caller's line, is emitted for both
    sides and the solve proceeds.
    """
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

    terms = SemilinearTerms((+1, -1), cfg, benchmark.sched_values)
    eq = equation_coefficients(cfg)
    return march_schedule(benchmark.sched_values[0], benchmark.grid, benchmark.solver,
                          a_eff=eq.drift - eq.m, b=eq.b, kappa=eq.kappa, terms=terms)
