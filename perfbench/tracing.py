"""Spans around the public calls into each layer of xvaband.

Used by the traced run only.  :meth:`Tracer.install` rebinds the public
functions that the workloads reach, in the modules where they are looked
up, to wrappers that record one span per call; :meth:`Tracer.uninstall`
puts the originals back.  Spans stay in memory until the run ends.

Layers are the package's modules: ``benchmark`` (the default-free
reference march), ``pde`` (the seller and buyer marches), ``xva`` (trade
assembly, reports and hedges), ``sweep`` (the point pool and CSV output)
and ``oracle`` (the tree BSDE).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time

import xvaband.benchmark
import xvaband.oracle
import xvaband.sweep
import xvaband.xva

#: (function, modules whose binding of it the workloads call through).
#: ``run_sweep`` imports ``benchmark_surface`` from ``xvaband.benchmark`` at
#: call time; ``solve_trade`` reaches it and ``solve_semilinear`` through
#: ``xvaband.xva``; the sweep pool resolves the trade calls in
#: ``xvaband.sweep``.
PATCH_POINTS = (
    ("benchmark_surface", (xvaband.xva, xvaband.benchmark)),
    ("solve_semilinear", (xvaband.xva,)),
    ("solve_trade", (xvaband.xva, xvaband.sweep)),
    ("report_from_solution", (xvaband.xva, xvaband.sweep)),
    ("hedge_at", (xvaband.xva, xvaband.sweep)),
    ("run_sweep", (xvaband.sweep,)),
    ("write_csv", (xvaband.sweep,)),
    ("tree_bsde_price", (xvaband.oracle,)),
)

#: Calls of the ``xva`` layer; in the sweep pool, one point makes one of each.
XVA_CALLS = ("solve_trade", "report_from_solution", "hedge_at")


def _march_counts(out) -> dict:
    it = out.diagnostics.iterations
    return {"linear_solves": int(it.sum()), "picard_max": int(it.max()),
            "steps": int(it.size), "n_x": out.grid.n_x}


def _count_benchmark(args, kwargs, out) -> dict:
    return _march_counts(out) if out is not None else {}


def _count_semilinear(args, kwargs, out) -> dict:
    side = kwargs.get("side", args[4] if len(args) > 4 else "seller")
    return {"side": side, **(_march_counts(out) if out is not None else {})}


def _count_tree(args, kwargs, out) -> dict:
    spec = args[0] if args else kwargs["spec"]
    n = spec.n_steps
    # backward levels n-1 .. 0 hold k + 1 nodes each
    return {"levels": n, "nodes": n * (n + 1) // 2}


def _count_sweep(args, kwargs, out) -> dict:
    threads = kwargs.get("threads", args[3] if len(args) > 3 else None)
    counts = {"threads": threads or xvaband.sweep.default_threads()}
    if out is not None:
        counts["points"] = len(out)
        counts["failed_points"] = sum(1 for row in out if row["error"])
    return counts


COUNTERS = {
    "benchmark_surface": _count_benchmark,
    "solve_semilinear": _count_semilinear,
    "tree_bsde_price": _count_tree,
    "run_sweep": _count_sweep,
}


class Tracer:
    """In-memory span recorder.

    A span records its name, start, end, the span that caused it, the op it
    belongs to, its thread and whether the call raised.  Calls made on a
    pool thread are parented to the innermost span open on the thread that
    runs the op (the enclosing ``run_sweep``).
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list[dict] = []
        self._saved: list[tuple] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        outer = stack or self._op_stack
        rec = {"id": next(self._ids), "parent": outer[-1]["id"] if outer else None,
               "op": self.op, "name": name, "thread": threading.get_ident(),
               "ok": True, "start": time.perf_counter()}
        stack.append(rec)
        try:
            yield rec
        except BaseException:
            rec["ok"] = False
            raise
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    @contextlib.contextmanager
    def traced_op(self, index: int):
        """Root span of one op; binds the calling thread as the op thread."""
        self.op = index
        self._op_stack = self._stack()
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = None
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    if count is not None:
                        rec.update(count(args, kwargs, out))

        return traced

    def install(self) -> None:
        for name, modules in PATCH_POINTS:
            for module in modules:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: s["end"] - s["start"]
            - _covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def _sweep_points(spans: list[dict], sweep_span: dict) -> list[tuple[float, float]]:
    """(start, end) of each sweep point: one ``solve_trade`` and the report
    and hedge calls that follow it on the same thread."""
    by_thread: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] == sweep_span["id"] and s["name"] in XVA_CALLS:
            by_thread.setdefault(s["thread"], []).append(s)
    points = []
    for calls in by_thread.values():
        calls.sort(key=lambda s: s["start"])
        current = None
        for s in calls:
            if s["name"] == "solve_trade":
                current = [s["start"], s["end"]]
                points.append(current)
            elif current is not None:
                current[1] = s["end"]
    return [tuple(p) for p in points]


def layer_metrics(spans: list[dict], n_ops: int) -> dict[str, float]:
    """Per-layer figures: counts and times are means per traced op; ratios
    and maxima are taken over all traced ops."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def named(name):
        return by_name.get(name, [])

    def per_op(x):
        return x / n_ops

    def dur(s):
        return s["end"] - s["start"]

    bench = named("benchmark_surface")
    bench_solves = sum(s.get("linear_solves", 0) for s in bench)
    pde = named("solve_semilinear")
    pde_solves = sum(s.get("linear_solves", 0) for s in pde)
    pde_steps = sum(s.get("steps", 0) for s in pde)
    pde_busy = sum(own[s["id"]] for s in pde)
    n_x = max((s.get("n_x", 0) for s in pde), default=0)
    # float64 operands of one banded solve on the m = n_x - 2 interior nodes:
    # three diagonals, the right-hand side and the solution
    solve_bytes = 8 * 5 * (n_x - 2) if n_x else 0
    lattice_nodes = sum(s.get("steps", 0) * s.get("n_x", 0) for s in bench + pde)

    sweeps = named("run_sweep")
    point_time = wait_time = capacity = 0.0
    sweep_refs = 0
    for sw in sweeps:
        refs = [s for s in bench if s["parent"] == sw["id"]]
        sweep_refs += len(refs)
        pool_start = max([sw["start"]] + [s["end"] for s in refs])
        for a, b in _sweep_points(spans, sw):
            point_time += b - a
            wait_time += a - pool_start
        capacity += sw.get("threads", 1) * dur(sw)
    sweep_points = sum(s.get("points", 0) for s in sweeps)

    tree = named("tree_bsde_price")
    return {
        "benchmark.calls": per_op(len(bench)),
        "benchmark.busy_s": per_op(sum(own[s["id"]] for s in bench)),
        "benchmark.linear_solves": per_op(bench_solves),
        "pde.calls": per_op(len(pde)),
        "pde.seller_s": per_op(sum(dur(s) for s in pde if s["side"] == "seller")),
        "pde.buyer_s": per_op(sum(dur(s) for s in pde if s["side"] == "buyer")),
        "pde.busy_s": per_op(pde_busy),
        "pde.failed": per_op(sum(1 for s in pde if not s["ok"])),
        "pde.picard_iters": per_op(pde_solves),
        "pde.picard_mean": pde_solves / pde_steps if pde_steps else 0.0,
        "pde.picard_max": max((s.get("picard_max", 0) for s in pde), default=0),
        "pde.linear_solves": per_op(pde_solves),
        "pde.us_per_linear_solve": 1e6 * pde_busy / pde_solves if pde_solves else 0.0,
        "pde.solve_bytes_computed": solve_bytes,
        "xva.busy_s": per_op(sum(own[s["id"]] for n in XVA_CALLS for s in named(n))),
        "sweep.points": per_op(sweep_points),
        "sweep.failed_points": per_op(sum(s.get("failed_points", 0) for s in sweeps)),
        "sweep.threads": max((s.get("threads", 0) for s in sweeps), default=0),
        "sweep.point_s": per_op(point_time),
        "sweep.wait_s": per_op(wait_time),
        "sweep.parallel_efficiency": point_time / capacity if capacity else 0.0,
        "sweep.csv_s": per_op(sum(dur(s) for s in named("write_csv"))),
        "sweep.points_per_reference": sweep_points / sweep_refs if sweep_refs else 0.0,
        "oracle.calls": per_op(len(tree)),
        "oracle.busy_s": per_op(sum(own[s["id"]] for s in tree)),
        "oracle.levels": per_op(sum(s["levels"] for s in tree)),
        "oracle.nodes_computed": per_op(sum(s["nodes"] for s in tree)),
        "oracle.failed": per_op(sum(1 for s in tree if not s["ok"])),
        "op.linear_solves": per_op(bench_solves + pde_solves),
        "op.lattice_nodes": per_op(lattice_nodes),
    }
