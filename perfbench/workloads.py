"""The three workloads: what one op calls, and the gate on its output.

``op(i, pause)`` calls ``pause()`` between the parts of a long op, so that
the worker can measure the host's speed there (``calibrate.OpClock``).

An op calls only xvaband's public API, through the modules the CLI uses,
so that the traced run can wrap those calls (see ``tracing.py``).  Each
workload turns an op's output into a small record right after the op,
outside its timer, and checks the records after the timed phase.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import xvaband.oracle as oracle
import xvaband.sweep as sweep
import xvaband.xva as xva
from xvaband import (
    SolverConfig,
    SweepAxis,
    SweepSpec,
    TreeSpec,
    apply_overrides,
    bs_closed_form,
    build_grid,
)

from inputs import (
    TABLE1_AXES,
    TABLE2_AXES,
    TABLE_CLAIM,
    TABLE_COLUMNS,
    closed_form_reference,
    price_trades,
    sweep_base,
    tree_trades,
)

#: |v_hat_0 - closed form| allowed on the 801 x 400 lattice.  The draws
#: stay below 1e-5; criterion 4 shows the lattice error is second order.
CLOSED_FORM_TOL = 1e-4
#: Tree and PDE prices of one side on one market (tier-1 criterion 5).
TREE_TOL = 2e-3
#: Sweep values against the ones recorded at the default seed.
RECORDED_TOL = 1e-9
DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SIDES = ("seller", "buyer")
TREE_STEPS = 2000


class Price:
    """One op prices one trade as ``xvaband price`` does."""

    name = "price"
    trace_kwargs = {}
    n_trades = 135  # a multiple of the 15-trade stratum

    def __init__(self, seed: int, part: int, parts: int):
        self.trades = price_trades(seed, self.n_trades)
        self.part, self.parts = part, parts

    def trade(self, i: int):
        return self.trades[_index(i, self.part, self.parts, len(self.trades))]

    def op(self, i: int, pause):
        tr = self.trade(i)
        sol = xva.solve_trade(tr.claim, tr.cfg)
        rep = xva.report_from_solution(sol, tr.spot)
        hedge = xva.hedge_at(sol.seller, sol.benchmark, tr.cfg, 0.0, tr.spot)
        return sol, rep, hedge

    def digest(self, i: int, out) -> dict:
        sol, rep, hedge = out
        iters = [s.diagnostics.iterations for s in (sol.seller, sol.buyer)]
        return {"v_hat_0": rep.v_hat_0, "xva_sell": rep.xva_sell,
                "xva_buy": rep.xva_buy,
                "hedge_finite": all(map(math.isfinite, hedge.to_dict().values())),
                "picard_mean": sum(int(it.sum()) for it in iters)
                / sum(it.size for it in iters)}

    def items(self, rec: dict) -> int:
        return 1

    def check(self, i: int, rec: dict) -> str | None:
        tr = self.trade(i)
        err = abs(rec["v_hat_0"] - closed_form_reference(tr))
        if not err <= CLOSED_FORM_TOL:
            return f"trade {i} ({tr.shape}): |v_hat_0 - closed form| = {err:.2e}"
        if not rec["xva_sell"] >= rec["xva_buy"]:
            return (f"trade {i} ({tr.shape}): xva_sell {rec['xva_sell']!r} < "
                    f"xva_buy {rec['xva_buy']!r}")
        if not rec["hedge_finite"]:
            return f"trade {i} ({tr.shape}): non-finite hedge"
        return None

    def summary(self, recs: dict[int, dict]) -> dict:
        shapes = Counter(self.trade(i).shape for i in recs)
        high = [r["picard_mean"] for i, r in recs.items()
                if self.trade(i).high_intensity]
        return {"trades": len(recs), "payoff_mix": dict(sorted(shapes.items())),
                "high_intensity_share": sum(self.trade(i).high_intensity
                                            for i in recs) / len(recs),
                "high_intensity_picard_mean": sum(high) / len(high) if high else None}


class Tree:
    """One op prices both sides of one trade on the 2000-step tree."""

    name = "tree"
    trace_kwargs = {}
    n_trades = 12  # one cycle of the stratum; each needs a PDE solve to check

    def __init__(self, seed: int, part: int, parts: int):
        self.trades = tree_trades(seed, self.n_trades)
        self.part, self.parts = part, parts
        self._pde = {}
        self._first = {}

    def trade(self, i: int):
        return self.trades[self.index(i)]

    def index(self, i: int) -> int:
        return _index(i, self.part, self.parts, len(self.trades))

    def spec(self, i: int) -> TreeSpec:
        tr = self.trade(i)
        return TreeSpec(n_steps=TREE_STEPS, claim=tr.claim, cfg=tr.cfg, spot=tr.spot)

    def op(self, i: int, pause):
        spec = self.spec(i)
        prices = []
        for side in SIDES:
            if prices:
                pause()
            prices.append(oracle.tree_bsde_price(spec, side=side))
        return prices

    def digest(self, i: int, out) -> dict:
        return dict(zip(SIDES, out))

    def items(self, rec: dict) -> int:
        return len(SIDES)

    def check(self, i: int, rec: dict) -> str | None:
        k = self.index(i)
        if k not in self._pde:
            tr = self.trade(i)
            rep = xva.report_from_solution(xva.solve_trade(tr.claim, tr.cfg), tr.spot)
            self._pde[k] = {"seller": rep.v_sell_0, "buyer": rep.v_buy_0}
        first = self._first.setdefault(k, rec)
        if rec != first:
            return f"op {i}: tree prices {rec} differ from an earlier op's {first}"
        for side in SIDES:
            diff = abs(rec[side] - self._pde[k][side])
            if not diff < TREE_TOL:
                return f"op {i}: {side} tree vs PDE differ by {diff:.2e}"
        return None

    def summary(self, recs: dict[int, dict]) -> dict:
        trades = [self.trade(i) for i in recs]
        return {"trades": len(trades), "claim": "put", "n_steps": TREE_STEPS,
                "maturity": [min(t.claim.maturity for t in trades),
                             max(t.claim.maturity for t in trades)],
                "sigma": [min(t.cfg.sigma for t in trades),
                          max(t.cfg.sigma for t in trades)]}


class Sweep:
    """One op runs the canned ``table1`` and ``table2`` sweeps and writes
    their CSVs, as ``xvaband table1`` / ``xvaband table2`` do.

    Timed ops run the points on one thread (``threads=1``).  With the
    default pool of ``default_threads()`` threads, every numpy call hands
    the GIL between CPUs, which makes an op ~2x slower and its time depend
    on where the host schedules the two threads, so that runs of the same
    code spread by more than any bound.  The traced run keeps the pool
    (``trace_kwargs``) and records the pool's cost against one
    ``threads=1`` op.

    The warm-up op (op 0) runs ``table2`` alone: it reaches every code path
    of a full op in a third of the time, which keeps set-up, run several
    times per run, affordable.
    """

    name = "sweep"
    tables = ("table1", "table2")
    trace_kwargs = {"threads": None}

    def __init__(self, seed: int, part: int, parts: int):
        self.seed = seed
        self.base = sweep_base(seed)
        self.grid = build_grid(TABLE_CLAIM, self.base)
        self.solver = SolverConfig()
        axes1 = [SweepAxis(n, v) for n, v in TABLE1_AXES]
        self.specs = {
            "table1": SweepSpec(claim=TABLE_CLAIM, base=self.base, axis1=axes1[0],
                                axis2=axes1[1], spot=1.0),
            "table2": SweepSpec(claim=TABLE_CLAIM,
                                base=apply_overrides(self.base, {"alpha": 0.9}),
                                axis1=SweepAxis(*TABLE2_AXES[0]), spot=1.0),
        }
        self.v_hat = bs_closed_form(0.0, 1.0, TABLE_CLAIM, self.base.r_D, self.base.sigma)
        self._first = {}

    def op(self, i: int, pause, threads: int | None = 1):
        texts = {}
        with _pause_between_points(pause) if threads == 1 else contextlib.nullcontext():
            for table in self.tables[1:] if i == 0 else self.tables:
                spec = self.specs[table]
                rows = sweep.run_sweep(spec, self.grid, self.solver, threads=threads,
                                       allow_arbitrage=True)
                keep = list(rows[0])[: 1 if spec.axis2 is None else 2] + list(TABLE_COLUMNS)
                buf = io.StringIO()
                sweep.write_csv([{k: row[k] for k in keep} for row in rows], buf)
                texts[table] = buf.getvalue()
        return texts

    def digest(self, i: int, out) -> dict:
        return {"csv": out}

    def items(self, rec: dict) -> int:
        return sum(1 for text in rec["csv"].values()
                   for row in _parse(text)[1] if all(row))

    def recorded(self, table: str) -> str:
        return (REFERENCE_DIR / f"sweep_seed{DEFAULT_SEED}_{table}.csv").read_text()

    def check(self, i: int, rec: dict) -> str | None:
        for table, text in rec["csv"].items():
            first = self._first.setdefault(table, text)
            if text != first:
                return f"op {i}: {table} CSV bytes differ from the run's first op"
            header, rows = _parse(text)
            col = header.index("v_hat_0")
            for row in rows:
                if not all(row):
                    return f"op {i}: {table} point {row[:2]} failed"
                if not abs(float(row[col]) - self.v_hat) <= CLOSED_FORM_TOL:
                    return f"op {i}: v_hat_0 {row[col]} vs closed form {self.v_hat!r}"
            if self.seed != DEFAULT_SEED:
                continue
            ref_header, ref_rows = _parse(self.recorded(table))
            if header != ref_header or len(rows) != len(ref_rows):
                return f"op {i}: {table} layout differs from the recorded one"
            for row, ref in zip(rows, ref_rows):
                diff = max(abs(float(a) - float(b)) for a, b in zip(row, ref))
                if not diff <= RECORDED_TOL:
                    return f"op {i}: {table} row {row[:2]} is {diff:.2e} from recorded values"
        return None

    def summary(self, recs: dict[int, dict]) -> dict:
        return {"base_market": asdict(self.base),
                "tables": {"table1": [list(a) for a in TABLE1_AXES],
                           "table2": [list(a) for a in TABLE2_AXES]}}


@contextlib.contextmanager
def _pause_between_points(pause):
    """Call ``pause()`` before each sweep point.  A serial sweep op takes
    about 5 s, and the host changes speed within that, so the op is scaled
    point by point.  Rebinds the ``solve_trade`` that ``run_sweep``'s
    serial loop calls, as the traced run's spans do (``tracing.py``)."""
    solve = sweep.solve_trade

    def paused(*args, **kwargs):
        pause()
        return solve(*args, **kwargs)

    sweep.solve_trade = paused
    try:
        yield
    finally:
        sweep.solve_trade = solve


def _index(i: int, part: int, parts: int, n: int) -> int:
    """Trade of op ``i`` in worker ``part`` of ``parts``.  The workers of a
    run take turns, so that their ops together cover consecutive trades,
    and so whole strata of the generator, whatever the seed."""
    return (i * parts + part) % n


def _parse(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = csv.reader(io.StringIO(text))
    return header, rows


WORKLOADS = {cls.name: cls for cls in (Price, Sweep, Tree)}
