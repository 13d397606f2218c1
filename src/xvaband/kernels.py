"""Solver backend identity, the tridiagonal solve and the slice extension
shared by the march.

Every solve runs one numpy/scipy implementation: the theta-scheme march
in :mod:`xvaband.pde` (LAPACK tridiagonal factor-and-solve) and the tree
induction in :mod:`xvaband.oracle`.  :func:`active_backend` names it for
reports and run logs.

Tridiagonal systems use the row convention of
:func:`xvaband.pde.reduced_operator`: row i reads
``lo[i] u[i-1] + di[i] u[i] + up[i] u[i+1]``, with ``lo[0]`` and
``up[-1]`` ignored.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

__all__ = [
    "active_backend",
    "extend_slice",
    "thomas_solve",
    "tridiag_factor",
    "tridiag_solve",
]


def active_backend() -> str:
    return "numpy"


def extend_slice(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Full slice from interior values via linear extrapolation at both ends.

    Writes into ``out`` (length ``u.size + 2``) when given.
    """
    w = np.empty(u.size + 2) if out is None else out
    w[1:-1] = u
    w[0] = 2.0 * u[0] - u[1]
    w[-1] = 2.0 * u[-1] - u[-2]
    return w


def tridiag_factor(lo: np.ndarray, di: np.ndarray, up: np.ndarray):
    """LU factors (LAPACK ``dgttrf``) of a tridiagonal matrix of size >= 3.

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


def thomas_solve(
    lo: np.ndarray, di: np.ndarray, up: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """One tridiagonal solve with the march's factor-and-solve pair.

    Gaussian elimination with partial pivoting, which on diagonally
    dominant systems pivots like the Thomas recursion.  ``rhs`` is left
    unchanged.
    """
    if di.size < 3:  # scipy's dgttrf rejects the empty second super-diagonal
        a = np.diag(di) + np.diag(lo[1:], -1) + np.diag(up[:-1], 1)
        return np.linalg.solve(a, rhs)
    return tridiag_solve(tridiag_factor(lo, di, up), np.array(rhs, dtype=float))
