"""Parameter sweeps and their byte-stable CSV output."""

import io

import pytest

from xvaband import (
    ArbitrageViolationError,
    SweepAxis,
    SweepSpec,
    build_grid,
    run_sweep,
    write_csv,
)
from xvaband.sweep import SWEEP_COLUMNS, default_threads


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

    def test_default_threads_env(self, monkeypatch):
        monkeypatch.setenv("XVA_THREADS", "3")
        assert default_threads() == 3
        for bad in ("0", "abc", "2.5"):
            monkeypatch.setenv("XVA_THREADS", bad)
            with pytest.raises(ValueError, match="XVA_THREADS"):
                default_threads()
        monkeypatch.delenv("XVA_THREADS")
        assert default_threads() >= 1

    @pytest.mark.parametrize("threads", [0, -1])
    def test_run_sweep_rejects_fewer_than_one_thread(self, call_claim, market,
                                                     coarse_grid, threads):
        spec = SweepSpec(claim=call_claim, base=market,
                         axis1=SweepAxis("alpha", (0.5,)))
        with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
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

    def test_fail_fast_raises(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("r_f_minus", (0.2,))
        )
        with pytest.raises(ArbitrageViolationError):
            run_sweep(spec, coarse_grid, fail_fast=True)

    def test_unknown_field_rejected_up_front(self, call_claim, market, coarse_grid):
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("stock_vol", (0.1,))
        )
        with pytest.raises(ValueError, match="unknown sweep axis"):
            run_sweep(spec, coarse_grid)

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
        spec = SweepSpec(
            claim=call_claim, base=market, axis1=SweepAxis("h_C_Q", (0.1, 0.15, 0.25))
        )
        serial = _csv_text(run_sweep(spec, coarse_grid, threads=1))
        pooled = _csv_text(run_sweep(spec, coarse_grid, threads=4))
        assert serial == pooled
        monkeypatch.setenv("XVA_THREADS", "2")
        assert _csv_text(run_sweep(spec, coarse_grid)) == serial


class TestWriteCsv:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows"):
            write_csv([], io.StringIO())

    def test_quoting_and_blanks(self):
        rows = [{"a": 1.5, "b": None, "error": 'bad, "stuff"'}]
        text = _csv_text(rows)
        assert text.splitlines() == ["a,b,error", '1.5,,"bad, ""stuff"""']

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
