"""Command-line interface.

Commands
--------
price        one claim, JSON report on stdout
sweep        one- or two-axis market sweep, CSV to a file or stdout
table1       canned funding-account table over alpha x r_f_minus
table2       canned funding-account table over r_f_minus at alpha = 0.9
convergence  grid-refinement study (closed-form error of the reference,
             self-convergence of the seller and of the buyer)
bench        median time of the reference solve, of the two-side solve
             that ``price`` runs and of one side of a 2000-step tree
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .benchmark import benchmark_surface, bs_closed_form
from .config import (
    ArbitrageViolationError,
    ClaimSpec,
    DEFAULT_MARKET,
    MarketConfig,
    _require_count,
    apply_overrides,
    load_market_config,
)
from .grid import SolverConfig, build_grid, reporting_spot
from .oracle import TreeSpec, tree_bsde_price
from .pde import active_backend, solve_sides
from .sweep import SweepAxis, SweepSpec, run_sweep, write_csv
from .xva import hedge_at, report_from_solution, solve_trade

__all__ = ["main"]

#: The canned funding tables of a call struck at 1 and read at spot 1: per
#: command its help text, the market fields it fixes and its one or two
#: axes.  A table owns those fields, so ``--set`` may not override them.
TABLES = {
    "table1": ("funding table over alpha x r_f_minus", {},
               SweepAxis("alpha", (0.0, 0.25, 0.75, 1.0)),
               SweepAxis("r_f_minus", (0.08, 0.2))),
    "table2": ("funding table over r_f_minus at alpha = 0.9", {"alpha": 0.9},
               SweepAxis("r_f_minus", (0.08, 0.1, 0.15, 0.2)), None),
}


def _add_claim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--claim", choices=["call", "put", "custom"], default="call")
    p.add_argument("--strike", type=float, default=None,
                   help="strike (default 1.0 for a call or a put; a custom "
                        "claim without one centres on its knots)")
    p.add_argument("--maturity", type=float, default=1.0)
    p.add_argument("--knots", default=None,
                   help="custom payoff knots as spot:value,spot:value,...")


def _add_scheme_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width-sigmas", type=float, default=6.0)
    p.add_argument("--theta", type=float, default=0.5,
                   help="θ weight in [1/2, 1]; 0.5 is Crank–Nicolson")


def _add_grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nx", type=int, default=801, help="spatial node count")
    p.add_argument("--nt", type=int, default=400, help="time step count")
    _add_scheme_args(p)


def _add_market_args(p: argparse.ArgumentParser, config_required: bool) -> None:
    p.add_argument("--config", required=config_required, default=None,
                   help="market config JSON (field names as keys)")
    p.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                   help="override one market field (repeatable)")


def _parse_number(flag: str, field: str, text: str) -> float:
    """``text`` as a float; otherwise a ``ValueError`` that names the flag,
    the field and the text."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{flag} {field}: expected a number, got {text!r}") from None


def _claim_from_args(args) -> ClaimSpec:
    knots = None
    if args.knots:
        knots = []
        for part in args.knots.split(","):
            s, sep, v = part.partition(":")
            if not sep:
                raise ValueError(f"--knots expects spot:value pairs, got {part!r}")
            knots.append((_parse_number("--knots", "spot", s),
                           _parse_number("--knots", "value", v)))
    if args.claim == "custom" and not knots:
        raise ValueError("custom claim requires --knots")
    strike = 1.0 if args.strike is None and args.claim != "custom" else args.strike
    # a call or a put rejects the knots its payoff would ignore
    return ClaimSpec(kind=args.claim, strike=strike, maturity=args.maturity,
                     knots=knots)


def _market_from_args(args, owned: tuple[str, ...] = ()) -> MarketConfig:
    """The market of ``--config`` and ``--set``; ``owned`` names the fields
    the command sweeps or fixes itself, which ``--set`` may not override."""
    cfg = load_market_config(args.config) if args.config else DEFAULT_MARKET
    overrides: dict[str, float] = {}
    for item in args.set:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects FIELD=VALUE, got {item!r}")
        name = name.strip()
        if name in owned:
            raise ValueError(f"--set {name}: {args.command} sweeps or fixes {name!r} itself")
        overrides[name] = _parse_number("--set", name, value)
    return apply_overrides(cfg, overrides) if overrides else cfg


def _solver_from_args(args) -> SolverConfig:
    return SolverConfig(theta_scheme=args.theta)


def _grid_from_args(args, claim: ClaimSpec, cfg: MarketConfig):
    return build_grid(claim, cfg, width_sigmas=args.width_sigmas,
                      n_x=args.nx, n_t=args.nt)


def cmd_price(args) -> int:
    claim = _claim_from_args(args)
    cfg = _market_from_args(args)
    solver = _solver_from_args(args)
    grid = _grid_from_args(args, claim, cfg)
    spot = reporting_spot(claim, grid, args.spot)
    sol = solve_trade(claim, cfg, grid, solver, allow_arbitrage=args.allow_arbitrage)
    report = report_from_solution(sol, spot)
    hedge = hedge_at(sol.seller, sol.benchmark, cfg, 0.0, spot)
    out = {"backend": active_backend(), **report.to_dict(),
           "hedge_seller_0": hedge.to_dict()}
    if args.log:
        with open(args.log, "w") as fh:
            for label, surf in (("benchmark", sol.benchmark), ("seller", sol.seller),
                                ("buyer", sol.buyer)):
                for rec in surf.step_records():
                    fh.write(json.dumps({"solve": label, **rec}) + "\n")
            fh.write(json.dumps({"event": "report", **report.to_dict()}) + "\n")
    print(json.dumps(out, indent=2))
    return 0


def _sweep_axis(flag: str, text: str) -> SweepAxis:
    name, sep, values = text.partition("=")
    if not sep or not values:
        raise ValueError(f"axis must be FIELD=v1,v2,..., got {text!r}")
    name = name.strip()
    return SweepAxis(name=name, values=tuple(
        _parse_number(flag, name, v) for v in values.split(",")))


def cmd_sweep(args) -> int:
    claim = _claim_from_args(args)
    axis1 = _sweep_axis("--axis", args.axis)
    axis2 = _sweep_axis("--axis2", args.axis2) if args.axis2 else None
    cfg = _market_from_args(args, tuple(a.name for a in (axis1, axis2) if a))
    solver = _solver_from_args(args)
    grid = _grid_from_args(args, claim, cfg)
    spec = SweepSpec(claim=claim, base=cfg, axis1=axis1, axis2=axis2, spot=args.spot)
    rows = run_sweep(spec, grid, solver, allow_arbitrage=args.allow_arbitrage,
                     fail_fast=args.fail_fast)
    write_csv(rows, args.out or sys.stdout)
    return 0


def cmd_table(args) -> int:
    _, fixed, axis1, axis2 = TABLES[args.command]
    axes = [a for a in (axis1, axis2) if a is not None]
    owned = (*fixed, *(a.name for a in axes))
    base = apply_overrides(_market_from_args(args, owned), fixed)
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    solver = _solver_from_args(args)
    grid = _grid_from_args(args, claim, base)
    spec = SweepSpec(claim=claim, base=base, axis1=axis1, axis2=axis2, spot=1.0)
    # The canned reference sweeps include r_f_minus points beyond the
    # validated rate ordering; price them anyway (with the usual warning).
    rows = run_sweep(spec, grid, solver, allow_arbitrage=True)
    keep = [a.name for a in axes] + [
        "v_hat_0", "v_sell_0", "v_buy_0", "xva_sell", "xva_buy",
        "funding_sell_0", "funding_buy_0",
    ]
    write_csv([{k: row[k] for k in keep} for row in rows], args.out or sys.stdout)
    return 0


def _study(case: str, grids: list, values: list[float],
           exact: float | None = None) -> list[dict]:
    """One row per level: its value, its error against ``exact`` (without
    one, against the level before) and the order log2(previous error /
    error), blank where an error is missing or zero."""
    if exact is not None:
        errors = [abs(v - exact) for v in values]
    else:
        errors = [None] + [abs(b - a) for a, b in zip(values, values[1:])]
    orders = [None] + [math.log2(a / b) if a and b else None
                       for a, b in zip(errors, errors[1:])]
    return [{"case": case, "level": lvl, "n_x": grid.n_x, "n_t": grid.n_t,
             "value": value, "error": err, "order": order}
            for lvl, (grid, value, err, order)
            in enumerate(zip(grids, values, errors, orders))]


def cmd_convergence(args) -> int:
    _require_count("--levels", args.levels, 2)
    _require_count("--base-nx", args.base_nx, 5)
    _require_count("--base-nt", args.base_nt)
    if args.base_nx % 2 == 0:
        # build_grid would solve on base_nx + 1 nodes, and the levels would
        # not halve dx
        raise ValueError(f"--base-nx must be odd, got {args.base_nx}")
    cfg = _market_from_args(args)
    solver = _solver_from_args(args)
    claim = _claim_from_args(args)
    # every level spans the same bounds, so the spot is checked once
    grids = [build_grid(claim, cfg, width_sigmas=args.width_sigmas,
                        n_x=(args.base_nx - 1) * 2 ** lvl + 1,
                        n_t=args.base_nt * 2 ** lvl)
             for lvl in range(args.levels)]
    spot = reporting_spot(claim, grids[0], args.spot)

    # the closed-form error of the default-free linear equation, then
    # self-convergence of the seller and the buyer (Richardson estimate)
    reports = []
    for grid in grids:
        sol = solve_trade(claim, cfg, grid, solver, allow_arbitrage=args.allow_arbitrage)
        reports.append(report_from_solution(sol, spot))
    rows = []
    if claim.kind in ("call", "put"):
        exact = bs_closed_form(0.0, spot, claim, cfg.r_D, cfg.sigma)
        rows += _study("linear", grids, [r.v_hat_0 for r in reports], exact)
    rows += _study("seller", grids, [r.v_sell_0 for r in reports])
    rows += _study("buyer", grids, [r.v_buy_0 for r in reports])
    write_csv(rows, args.out or sys.stdout)
    return 0


def cmd_bench(args) -> int:
    claim = ClaimSpec(kind="call", strike=1.0, maturity=1.0)
    cfg = _market_from_args(args)
    solver = _solver_from_args(args)
    grid = _grid_from_args(args, claim, cfg)
    _require_count("--repeat", args.repeat)

    # the step count of the perfbench ``tree`` workload
    tree = TreeSpec(n_steps=2000, claim=claim, cfg=cfg)
    secs: dict[str, list[float]] = {"reference": [], "sides": [], "tree": []}
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        bench = benchmark_surface(grid, claim, cfg, solver)
        secs["reference"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        sides = solve_sides(claim, cfg, bench, allow_arbitrage=args.allow_arbitrage)
        secs["sides"].append(time.perf_counter() - t0)
        for side in ("seller", "buyer"):
            t0 = time.perf_counter()
            tree_bsde_price(tree, side=side)
            secs["tree"].append(time.perf_counter() - t0)

    tails = {
        "sides": ", " + "; ".join(
            f"{side} linear solves per step (mean, max)"
            f" {surf.diagnostics.iterations.mean():.2f},"
            f" {surf.diagnostics.iterations.max()}, factors per step (mean)"
            f" {surf.diagnostics.factors.mean():.2f}"
            for side, surf in zip(("seller", "buyer"), sides)),
        "tree": f" per side, {tree.n_steps} steps",
    }
    print(f"grid: {grid.n_x} x {grid.n_t}, repeat: {args.repeat}, "
          f"backend: {active_backend()}")
    for layer, times in secs.items():
        print(f"{layer:>9}: {float(np.median(times)) * 1e3:9.2f} ms median"
              + tails.get(layer, ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xvaband",
        description="XVA band pricer under asymmetric funding, repo, and "
                    "collateral rates with bilateral default risk",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one claim, JSON to stdout")
    _add_claim_args(p)
    _add_market_args(p, config_required=True)
    _add_grid_args(p)
    p.add_argument("--spot", type=float, default=None)
    p.add_argument("--log", default=None, help="write per-step JSONL run log")
    p.set_defaults(fn=cmd_price)

    p = sub.add_parser("sweep", help="sweep one or two market fields, CSV out")
    _add_claim_args(p)
    _add_market_args(p, config_required=True)
    _add_grid_args(p)
    p.add_argument("--axis", required=True, metavar="FIELD=V1,V2,...")
    p.add_argument("--axis2", default=None, metavar="FIELD=V1,V2,...")
    p.add_argument("--spot", type=float, default=None)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--fail-fast", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    for name, (help_text, *_) in TABLES.items():
        p = sub.add_parser(name, help=help_text)
        _add_market_args(p, config_required=False)
        _add_grid_args(p)
        p.add_argument("--out", default=None)
        p.set_defaults(fn=cmd_table)

    p = sub.add_parser("convergence", help="grid refinement study")
    _add_claim_args(p)
    _add_market_args(p, config_required=False)
    _add_scheme_args(p)  # the levels' node counts come from --base-nx/--base-nt
    p.add_argument("--spot", type=float, default=None)
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--base-nx", type=int, default=101)
    p.add_argument("--base-nt", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("bench", help="time the reference, two-side and tree solves")
    _add_market_args(p, config_required=False)
    _add_grid_args(p)
    p.add_argument("--repeat", type=int, default=3)
    p.set_defaults(fn=cmd_bench)

    for name in ("price", "sweep", "convergence", "bench"):  # not the canned tables
        sub.choices[name].add_argument(
            "--allow-arbitrage", action="store_true",
            help="warn instead of failing on rate-ordering violations")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ArbitrageViolationError as err:
        print(f"error: {err}", file=sys.stderr)
        print("use --allow-arbitrage to price anyway", file=sys.stderr)
        return 1
    except (TypeError, ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
