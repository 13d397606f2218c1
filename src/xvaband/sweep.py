"""Parameter sweeps over market fields with deterministic CSV output.

Each sweep point re-solves both sides of the trade with one or two market
fields replaced.  Points run one after another on the calling thread, in
axis order, and :mod:`csv` writes each float cell as its shortest
round-trip text, so repeated runs produce byte-identical files.  The
points share one map of reference surfaces, which
:func:`~xvaband.xva.solve_trade` keys by the fields a reference reads, so
the default-free reference is marched once per distinct (r_D, sigma).
"""

from __future__ import annotations

import csv
import itertools
import numbers
import os
from contextlib import nullcontext
from dataclasses import dataclass, fields

from .config import ClaimSpec, MarketConfig, _require_count, apply_overrides
from .grid import GridSpec, SolverConfig, build_grid, reporting_spot
from .xva import XvaReport, hedge_at, report_from_solution, solve_trade

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "default_threads",
    "run_sweep",
    "write_csv",
    "SWEEP_COLUMNS",
]

#: Output columns after the axis columns, in emission order: the fields of
#: :class:`~xvaband.xva.XvaReport` but its spot, the seller's time-0 hedge
#: positions and the error cell.
SWEEP_COLUMNS = (*(f.name for f in fields(XvaReport) if f.name != "spot"),
                 "xi_0", "xi_I_0", "xi_C_0", "error")


@dataclass(frozen=True)
class SweepAxis:
    """One swept market field and its values, in emission order.

    ``name`` must be a :class:`~xvaband.config.MarketConfig` field.  The
    values may be any sequence of real numbers, numpy's included (say
    ``np.arange`` or ``np.linspace`` output), but not bools or strings.
    They are stored as a tuple of Python floats, the type
    :func:`~xvaband.config.apply_overrides` takes.
    """

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.name not in {f.name for f in fields(MarketConfig)}:
            raise ValueError(f"unknown sweep axis field: {self.name!r}")
        values = tuple(self.values)
        for v in values:
            if not isinstance(v, numbers.Real) or isinstance(v, bool):
                raise TypeError(
                    f"axis {self.name!r} values must be real numbers, got {v!r}")
        object.__setattr__(self, "values", tuple(map(float, values)))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class SweepSpec:
    """Claim, base market, and one or two sweep axes."""

    claim: ClaimSpec
    base: MarketConfig
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    spot: float | None = None

    def __post_init__(self) -> None:
        if self.axis2 is not None and self.axis2.name == self.axis1.name:
            raise ValueError(f"both sweep axes name {self.axis1.name!r}")


def default_threads() -> int:
    """1: sweeps run on one thread.  Kept only because the frozen perfbench
    harness calls it; it goes once ROADMAP item 7 moves the harness off it."""
    return 1


def _points(spec: SweepSpec) -> list[dict[str, float]]:
    axes = [a for a in (spec.axis1, spec.axis2) if a is not None]
    names = [a.name for a in axes]
    return [dict(zip(names, vs)) for vs in itertools.product(*(a.values for a in axes))]


def run_sweep(
    spec: SweepSpec,
    grid: GridSpec | None = None,
    solver: SolverConfig | None = None,
    threads: int | None = None,
    allow_arbitrage: bool = False,
    fail_fast: bool = False,
) -> list[dict]:
    """Solve every sweep point in axis order on the calling thread; returns
    one row dict per point.

    Per-point failures are captured in the row's ``error`` cell (numeric
    cells left empty) unless ``fail_fast`` is set.  A reporting spot off
    the lattice fails every point alike, so it raises before any march.
    ``threads`` is checked as a count when given and otherwise unused:
    it stays only because the frozen perfbench harness passes it, until
    ROADMAP item 7 moves the harness off it.
    """
    if threads is not None:
        _require_count("threads", threads)
    grid = grid or build_grid(spec.claim, spec.base)
    solver = solver or SolverConfig()
    spot = reporting_spot(spec.claim, grid, spec.spot)
    points = _points(spec)
    axis_names = list(points[0].keys())

    references: dict = {}  # shared by the points, see solve_trade

    def solve_point(overrides: dict[str, float]) -> dict:
        row: dict = {k: overrides[k] for k in axis_names}
        try:
            cfg = apply_overrides(spec.base, overrides)
            sol = solve_trade(spec.claim, cfg, grid, solver,
                              allow_arbitrage=allow_arbitrage, references=references)
            rep = report_from_solution(sol, spot)
            hedge = hedge_at(sol.seller, sol.benchmark, cfg, 0.0, spot)
            # the report's fields name all but the last four columns
            row.update((col, getattr(rep, col)) for col in SWEEP_COLUMNS[:-4])
            row.update(xi_0=hedge.xi, xi_I_0=hedge.xi_I, xi_C_0=hedge.xi_C, error="")
        except Exception as err:  # noqa: BLE001 - reported per row
            if fail_fast:
                raise
            for col in SWEEP_COLUMNS[:-1]:
                row[col] = None
            row["error"] = f"{type(err).__name__}: {err}"
        return row

    return [solve_point(p) for p in points]


def write_csv(rows: list[dict], path_or_file) -> None:
    """Write rows through :mod:`csv`, one column per key of the first row.

    ``None`` and a missing key give a blank cell, keys the first row lacks
    are dropped, and a float cell (numpy's included) is its shortest
    round-trip text, so the output is byte-stable.  Every line ends in LF.
    """
    if not rows:
        raise ValueError("no rows to write")
    own = isinstance(path_or_file, (str, os.PathLike))
    with open(path_or_file, "w", newline="") if own else nullcontext(path_or_file) as fh:
        writer = csv.DictWriter(fh, list(rows[0]), extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
