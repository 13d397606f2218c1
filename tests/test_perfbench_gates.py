"""The benchmark's own output checks, run on the library in tier-1.

perfbench's workloads check every op's output after the timed phase and
call the whole run incorrect if one check fails; the warm-up op of each
worker is the first to be checked.  These tests run the same ``op``,
``digest`` and ``check`` of each workload on the ops a default run starts
with, so a change that breaks a check fails here before any benchmark run.
The harness is imported as it is, not edited.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def _no_pause():
    pass


def _checked(wl, i: int) -> str | None:
    return wl.check(i, wl.digest(i, wl.op(i, _no_pause)))


@pytest.mark.parametrize("part", [0, 1, 2])
def test_price_warm_up_trades_pass_their_check(workloads, part, ignore_rate_warnings):
    # op 0 of worker `part` of three prices trade `part`
    wl = workloads.Price(workloads.DEFAULT_SEED, part, 3)
    assert wl.trade(0) is wl.trades[part]
    assert _checked(wl, 0) is None


def test_a_full_sweep_op_matches_the_recorded_tables(workloads, ignore_rate_warnings):
    wl = workloads.Sweep(workloads.DEFAULT_SEED, 0, 1)
    rec = wl.digest(1, wl.op(1, _no_pause))
    # op 0 runs table2 alone; every later op runs both tables
    assert sorted(rec["csv"]) == ["table1", "table2"]
    assert wl.check(1, rec) is None


def test_tree_op_of_trade_0_passes_its_check(workloads, ignore_rate_warnings):
    wl = workloads.Tree(workloads.DEFAULT_SEED, 0, 1)
    assert _checked(wl, 0) is None
