"""The library hooks that the perfbench tracer and workers rely on.

perfbench patches public functions by module attribute and reads the
march diagnostics, the sweep's thread count and the backend name; a
change under ``src/`` that renames or moves one of them breaks the
benchmark, not the library, so it is pinned here.
"""

from pathlib import Path

import numpy as np

import xvaband
import xvaband.sweep as sweep
import xvaband.xva as xva
from xvaband import ClaimSpec, DEFAULT_MARKET, SolverConfig, SweepAxis, SweepSpec, build_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_trade_and_sweep_report_their_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    claim = ClaimSpec.call(strike=1.0, maturity=1.0)
    grid = build_grid(claim, DEFAULT_MARKET, n_x=51, n_t=10)
    spec = SweepSpec(claim=claim, base=DEFAULT_MARKET,
                     axis1=SweepAxis("r_f_minus", (0.08, 0.1)), spot=1.0)
    originals = {(module, name): getattr(module, name)
                 for name, modules in tracing.PATCH_POINTS for module in modules}

    tracer = tracing.Tracer()
    with tracer.traced_op(1):
        tracer.install()
        try:
            sol = xva.solve_trade(claim, DEFAULT_MARKET, grid, SolverConfig())
            xva.report_from_solution(sol, 1.0)
            xva.hedge_at(sol.seller, sol.benchmark, DEFAULT_MARKET, 0.0, 1.0)
            rows = sweep.run_sweep(spec, grid, SolverConfig(), threads=1,
                                   allow_arbitrage=True)
        finally:
            tracer.uninstall()

    metrics = tracing.layer_metrics(tracer.spans, 1)
    # one reference for the trade and one shared by the sweep's points
    assert metrics["benchmark.calls"] == 2
    # solve_trade marches both sides through pde.solve_sides, which the
    # tracer does not patch, so the pde layer records no span: ROADMAP
    # item 7 adds the two-side solve to PATCH_POINTS
    assert metrics["pde.calls"] == 0
    assert metrics["sweep.points"] == 2
    assert [row["error"] for row in rows] == ["", ""]
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn, f"{module.__name__}.{name} not restored"

    assert xvaband.active_backend() == "numpy"
    assert sweep.default_threads() >= 1
    for surf in (sol.benchmark, sol.seller, sol.buyer):
        iters = surf.diagnostics.iterations
        assert iters.shape == (grid.n_t + 1,)
        assert np.all(iters >= 1)
