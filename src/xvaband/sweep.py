"""Parameter sweeps over market fields with deterministic CSV output.

Each sweep point re-solves both sides of the trade with one or two market
fields replaced.  Points run on a thread pool; results are emitted in
axis order regardless of completion order, and float cells are formatted
with repr so repeated runs produce byte-identical files.  The default-free reference surface
only depends on (r_D, sigma), so it is computed once per distinct pair
and shared across points.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields

from .config import ClaimSpec, MarketConfig, apply_overrides, reporting_spot
from .grid import GridSpec, SolverConfig, build_grid
from .xva import hedge_at, report_from_solution, solve_trade

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "default_threads",
    "run_sweep",
    "write_csv",
    "SWEEP_COLUMNS",
]

#: Output columns after the axis columns, in emission order.
SWEEP_COLUMNS = (
    "v_hat_0",
    "v_sell_0",
    "v_buy_0",
    "xva_sell",
    "xva_buy",
    "xva_sell_rel",
    "xva_buy_rel",
    "band_width",
    "funding_sell_0",
    "funding_buy_0",
    "xi_0",
    "xi_I_0",
    "xi_C_0",
    "error",
)


@dataclass(frozen=True)
class SweepAxis:
    """One swept market field and its values, in emission order."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
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
    """Worker count: XVA_THREADS if set, else min(8, cpu count)."""
    env = os.environ.get("XVA_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(f"XVA_THREADS must be an integer, got {env!r}") from None
        if n < 1:
            raise ValueError(f"XVA_THREADS must be >= 1, got {n}")
        return n
    return min(8, os.cpu_count() or 1)


def _points(spec: SweepSpec) -> list[dict[str, float]]:
    if spec.axis2 is None:
        return [{spec.axis1.name: v} for v in spec.axis1.values]
    return [
        {spec.axis1.name: v1, spec.axis2.name: v2}
        for v1 in spec.axis1.values
        for v2 in spec.axis2.values
    ]


def run_sweep(
    spec: SweepSpec,
    grid: GridSpec | None = None,
    solver: SolverConfig | None = None,
    threads: int | None = None,
    allow_arbitrage: bool = False,
    fail_fast: bool = False,
) -> list[dict]:
    """Solve every sweep point; returns one ordered row dict per point.

    Per-point failures are captured in the row's ``error`` cell (numeric
    cells left empty) unless ``fail_fast`` is set.
    """
    if threads is None:
        threads = default_threads()
    elif threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    grid = grid or build_grid(spec.claim, spec.base)
    solver = solver or SolverConfig()
    spot = reporting_spot(spec.claim, spec.spot)
    points = _points(spec)
    axis_names = list(points[0].keys())
    valid = {f.name for f in dataclass_fields(MarketConfig)}
    unknown = sorted(set(axis_names) - valid)
    if unknown:
        raise ValueError(f"unknown sweep axis fields: {unknown}")

    # reference surfaces keyed by the only fields they depend on
    from .benchmark import benchmark_surface

    bench_cache: dict[tuple[float, float], object] = {}
    for overrides in points:
        try:
            cfg = apply_overrides(spec.base, overrides)
        except ValueError:
            continue  # solve_point reports the bad value on its own row
        key = (cfg.r_D, cfg.sigma)
        if key not in bench_cache:
            bench_cache[key] = benchmark_surface(grid, spec.claim, cfg, solver)

    def solve_point(overrides: dict[str, float]) -> dict:
        row: dict = {k: overrides[k] for k in axis_names}
        try:
            cfg = apply_overrides(spec.base, overrides)
            sol = solve_trade(spec.claim, cfg, grid, solver,
                              allow_arbitrage=allow_arbitrage,
                              benchmark=bench_cache[(cfg.r_D, cfg.sigma)])
            rep = report_from_solution(sol, spot)
            hedge = hedge_at(sol.seller, sol.benchmark, cfg, 0.0, spot)
            # the report's fields carry the names of the first ten columns
            row.update((col, getattr(rep, col)) for col in SWEEP_COLUMNS[:10])
            row.update(xi_0=hedge.xi, xi_I_0=hedge.xi_I, xi_C_0=hedge.xi_C, error="")
        except Exception as err:  # noqa: BLE001 - reported per row
            if fail_fast:
                raise
            for col in SWEEP_COLUMNS[:-1]:
                row[col] = None
            row["error"] = f"{type(err).__name__}: {err}"
        return row

    if threads == 1 or len(points) == 1:
        return [solve_point(p) for p in points]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(solve_point, points))


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        # axis names and error text never need quoting beyond commas
        return '"' + v.replace('"', '""') + '"' if ("," in v or '"' in v) else v
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(rows: list[dict], path_or_file) -> None:
    """Write sweep rows with repr-formatted floats (byte-stable output)."""
    if not rows:
        raise ValueError("no rows to write")
    columns = list(rows[0].keys())
    own = isinstance(path_or_file, (str, os.PathLike))
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row.get(c)) for c in columns) + "\n")
    finally:
        if own:
            fh.close()
