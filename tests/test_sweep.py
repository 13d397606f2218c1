"""Parameter sweeps and their byte-stable CSV output."""

import ast
import io
import math
import threading
from pathlib import Path

import numpy as np
import pytest

import xvaband
from xvaband import (
    ArbitrageViolationError,
    SweepAxis,
    SweepSpec,
    build_grid,
    run_sweep,
    write_csv,
)
from xvaband.sweep import SWEEP_COLUMNS


@pytest.fixture(scope="module")
def coarse_grid(call_claim, market):
    return build_grid(call_claim, market, n_x=101, n_t=20)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


class TestSpecs:
    def test_axis_needs_values(self):
        with pytest.raises(ValueError, match="no values"):
            SweepAxis("alpha", ())

    def test_axes_must_name_two_fields(self, call_claim, market):
        # one field on both axes would collapse each point to axis 2's value
        with pytest.raises(ValueError, match="both sweep axes name 'alpha'"):
            SweepSpec(claim=call_claim, base=market,
                      axis1=SweepAxis("alpha", (0.0, 0.5)),
                      axis2=SweepAxis("alpha", (0.9, 1.0)))

    @pytest.mark.parametrize("values", [tuple(np.linspace(0.2, 0.4, 2)),
                                        np.array([0.2, 0.4])],
                             ids=["numpy_scalars", "numpy_array"])
    def test_axis_values_are_floats(self, values):
        # apply_overrides takes plain floats only
        axis = SweepAxis("alpha", values)
        assert axis.values == (0.2, 0.4)
        assert all(type(v) is float for v in axis.values)
        assert _csv_text([{"alpha": axis.values[0]}]) == "alpha\n0.2\n"

    @pytest.mark.parametrize("values", [np.arange(2), np.linspace(0, 1, 2, dtype=np.float32)],
                             ids=["arange", "float32"])
    def test_axis_accepts_numpy_reals(self, values):
        axis = SweepAxis("alpha", values)
        assert axis.values == (0.0, 1.0)
        assert all(type(v) is float for v in axis.values)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None])
    def test_axis_rejects_a_non_number(self, value):
        # float() turned True into 1.0 and "0.5" into 0.5
        with pytest.raises(TypeError, match="axis 'alpha' values must be real numbers"):
            SweepAxis("alpha", (0.25, value))

    @pytest.mark.parametrize("threads", [0, -1])
    def test_run_sweep_rejects_fewer_than_one_thread(self, call_claim, market,
                                                     coarse_grid, threads):
        spec = SweepSpec(claim=call_claim, base=market,
                         axis1=SweepAxis("alpha", (0.5,)))
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
            run_sweep(spec, coarse_grid, threads=threads)

    @pytest.mark.parametrize("threads", [True, 2.5, "2", np.float64(2.0)])
    def test_run_sweep_rejects_a_non_integer_thread_count(self, call_claim, market,
                                                          coarse_grid, threads):
        # True ran one thread and 2.5 ran two
        spec = SweepSpec(claim=call_claim, base=market,
                         axis1=SweepAxis("alpha", (0.5,)))
        with pytest.raises(TypeError, match="threads must be an integer"):
            run_sweep(spec, coarse_grid, threads=threads)


class TestRunSweep:
    def test_single_axis_layout(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("alpha", (0.0, 0.5, 1.0))
        )
        rows = run_sweep(spec, coarse_grid)
        assert [r["alpha"] for r in rows] == [0.0, 0.5, 1.0]
        assert list(rows[0]) == ["alpha", *SWEEP_COLUMNS]
        assert all(r["error"] == "" for r in rows)
        # the default-free reference does not depend on the collateral level
        assert len({r["v_hat_0"] for r in rows}) == 1
        assert all(r["band_width"] >= 0.0 for r in rows)

    def test_two_axes_nest_in_order(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim,
            base=market,
            axis1=SweepAxis("alpha", (0.25, 0.75)),
            axis2=SweepAxis("h_C_Q", (0.1, 0.25)),
        )
        rows = run_sweep(spec, coarse_grid)
        assert [(r["alpha"], r["h_C_Q"]) for r in rows] == [
            (0.25, 0.1),
            (0.25, 0.25),
            (0.75, 0.1),
            (0.75, 0.25),
        ]

    def test_points_of_one_r_D_and_sigma_share_one_reference(
        self, call_claim, market, coarse_grid, marches
    ):
        spec = SweepSpec(claim=call_claim, base=market,
                         axis1=SweepAxis("alpha", (0.25, 0.75)),
                         axis2=SweepAxis("r_f_minus", (0.08, 0.1)))
        rows = run_sweep(spec, coarse_grid)
        assert all(r["error"] == "" for r in rows)
        # one two-side march per point and one reference march
        assert len(marches) == len(rows) + 1

    def test_a_sweep_over_sigma_marches_one_reference_per_value(
        self, call_claim, market, coarse_grid, marches
    ):
        spec = SweepSpec(claim=call_claim, base=market,
                         axis1=SweepAxis("sigma", (0.15, 0.2, 0.3)),
                         axis2=SweepAxis("alpha", (0.25, 0.75)))
        rows = run_sweep(spec, coarse_grid)
        assert all(r["error"] == "" for r in rows)
        assert len(marches) == len(rows) + 3
        assert len({r["v_hat_0"] for r in rows}) == 3

    def test_rate_violation_is_captured_per_row(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("r_f_minus", (0.08, 0.2))
        )
        rows = run_sweep(spec, coarse_grid)
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("ArbitrageViolationError")
        assert rows[1]["v_sell_0"] is None

    def test_invalid_value_is_captured_per_row(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("alpha", (0.5, 2.0))
        )
        rows = run_sweep(spec, coarse_grid)
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("ValueError")
        assert rows[1]["xva_sell"] is None

    def test_a_vanishing_reference_leaves_a_blank_cell(self, vanishing_reference):
        claim, cfg = vanishing_reference
        spec = SweepSpec(claim=claim, base=cfg, axis1=SweepAxis("alpha", (cfg.alpha,)))
        (row,) = run_sweep(spec)
        assert row["error"] == ""
        assert row["xva_sell_rel"] is None
        assert row["xva_buy_rel"] == 0.0
        header, line = _csv_text([row]).splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells["xva_sell_rel"] == cells["error"] == ""

    def test_fail_fast_raises(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("r_f_minus", (0.2,))
        )
        with pytest.raises(ArbitrageViolationError):
            run_sweep(spec, coarse_grid, fail_fast=True)

    def test_unknown_field_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepAxis("stock_vol", (0.1,))

    @pytest.mark.parametrize("spot, message", [
        (-1.0, "spot must be positive, got -1.0"),
        (50.0, r"ln\(spot\) = 3\.9\d* outside grid"),
    ])
    def test_a_spot_off_the_lattice_is_rejected_before_any_march(
        self, call_claim, market, coarse_grid, marches, spot, message
    ):
        # every point was solved and then wrote the same error on its row
        spec = SweepSpec(claim=call_claim, base=market,
                         axis1=SweepAxis("alpha", (0.0, 0.5, 0.9)), spot=spot)
        with pytest.raises(ValueError, match=message):
            run_sweep(spec, coarse_grid, threads=1)
        assert marches == []

    def test_allow_arbitrage_prices_every_row(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("r_f_minus", (0.08, 0.2))
        )
        with pytest.warns(RuntimeWarning):
            rows = run_sweep(spec, coarse_grid, allow_arbitrage=True)
        assert all(r["error"] == "" for r in rows)
        # at this collateral level the seller borrows unsecured, so a wider
        # borrow rate raises the seller's value
        assert rows[1]["v_sell_0"] >= rows[0]["v_sell_0"]


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("alpha", (0.0, 0.9, 1.0))
        )
        first = _csv_text(run_sweep(spec, coarse_grid))
        second = _csv_text(run_sweep(spec, coarse_grid))
        assert first == second

    def test_thread_count_does_not_change_the_bytes(
        self, call_claim, market, coarse_grid, monkeypatch
    ):
        # every point runs on the calling thread, whatever threads says
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("h_C_Q", (0.1, 0.15, 0.25))
        )
        solve = xvaband.sweep.solve_trade
        idents = []

        def recorded(*args, **kwargs):
            idents.append(threading.get_ident())
            return solve(*args, **kwargs)

        monkeypatch.setattr(xvaband.sweep, "solve_trade", recorded)
        texts = []
        for threads in (None, 1, 4):
            idents.clear()
            texts.append(_csv_text(run_sweep(spec, coarse_grid, threads=threads)))
            assert idents == [threading.get_ident()] * 3
        assert texts == [texts[0]] * 3

    def test_a_numpy_spot_writes_the_same_bytes(self, call_claim, market, coarse_grid):
        axis = SweepAxis("alpha", (0.5,))
        texts = [_csv_text(run_sweep(SweepSpec(claim=call_claim, base=market,
                                               axis1=axis, spot=spot),
                                     coarse_grid, threads=1))
                 for spot in (1.0, np.float64(1.0))]
        assert texts[1] == texts[0]


class TestWriteCsv:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            write_csv([], io.StringIO())

    def test_quoting_and_blanks(self):
        rows = [{"a": 1.5, "b": None, "error": 'bad, "stuff"'}]
        text = _csv_text(rows)
        assert text.splitlines() == ["a,b,error", '1.5,,"bad, ""stuff"""']

    def test_golden_bytes_of_every_cell_kind(self, tmp_path):
        rows = [
            {"name": "a", "none": None, "empty": "", "error": 'ValueError: bad, "x"',
             "neg_zero": -0.0, "tiny": 1e-300, "nan": math.nan, "inf": math.inf,
             "ninf": -math.inf, "int": 3, "bool": True, "float": 0.1},
            # a missing column is blank and an extra one is dropped
            {"name": "b", "extra": 1.0},
        ]
        want = ("name,none,empty,error,neg_zero,tiny,nan,inf,ninf,int,bool,float\n"
                'a,,,"ValueError: bad, ""x""",-0.0,1e-300,nan,inf,-inf,3,True,0.1\n'
                "b,,,,,,,,,,,\n")
        assert _csv_text(rows) == want
        path = tmp_path / "cells.csv"
        write_csv(rows, path)
        assert path.read_bytes() == want.encode()

    def test_floats_round_trip_via_repr(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("alpha", (0.9,))
        )
        rows = run_sweep(spec, coarse_grid)
        text = _csv_text(rows)
        header, line = text.splitlines()
        cells = dict(zip(header.split(","), line.split(",")))
        assert float(cells["v_sell_0"]) == rows[0]["v_sell_0"]
        assert float(cells["xi_0"]) == rows[0]["xi_0"]

    def test_writes_to_paths(self, tmp_path, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("alpha", (0.0, 1.0))
        )
        rows = run_sweep(spec, coarse_grid)
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        assert path.read_text() == _csv_text(rows)


def test_the_package_calls_no_repr():
    # number formatting is left to csv and json, which write a float's
    # shortest round-trip text whatever its type
    for path in sorted(Path(xvaband.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "repr", (path.name, node.lineno)
