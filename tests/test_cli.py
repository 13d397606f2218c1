"""Command-line entry points, exercised in-process via main()."""

import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from xvaband import ClaimSpec, DEFAULT_MARKET, benchmark_surface, build_grid, compute_xva
from xvaband.cli import main

FAST_GRID = ["--nx", "201", "--nt", "50"]
TINY_GRID = ["--nx", "101", "--nt", "20"]


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "market.json"
    path.write_text(json.dumps(asdict(DEFAULT_MARKET)))
    return str(path)


@pytest.fixture(scope="module")
def bad_config_path(tmp_path_factory):
    cfg = asdict(DEFAULT_MARKET)
    cfg["r_f_plus"] = 0.1
    cfg["r_f_minus"] = 0.05  # lending above borrowing: a free lunch
    path = tmp_path_factory.mktemp("cfg") / "bad.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPrice:
    def test_json_report_on_stdout(self, config_path, capsys):
        rc = main(["price", "--config", config_path, *FAST_GRID])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["backend"] == "numpy"
        assert out["band_width"] >= 0.0
        assert out["v_sell_0"] >= out["v_buy_0"]
        assert 0.0 < out["hedge_seller_0"]["xi"] < 1.0

    def test_spot_override(self, config_path, capsys):
        rc = main(["price", "--config", config_path, *FAST_GRID, "--spot", "1.2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spot"] == 1.2
        assert out["v_hat_0"] > 0.2  # deep in the money

    def test_put_claim(self, config_path, capsys):
        rc = main(["price", "--config", config_path, "--claim", "put", *FAST_GRID])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["hedge_seller_0"]["xi"] < 0.0

    def test_custom_claim_needs_knots(self, config_path, capsys):
        rc = main(["price", "--config", config_path, "--claim", "custom", *TINY_GRID])
        assert rc == 1
        assert "knots" in capsys.readouterr().err

    @pytest.mark.parametrize("claim", ["call", "put"])
    def test_vanilla_claim_rejects_knots(self, config_path, capsys, claim):
        # the payoff would ignore them
        rc = main(["price", "--config", config_path, "--claim", claim,
                   "--knots", "0.5:0,2:1", *TINY_GRID])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: knots apply to custom claims only, a {claim} got knots=")
        assert captured.out == ""

    def test_custom_claim_smoke(self, config_path, capsys):
        rc = main([
            "price", "--config", config_path, "--claim", "custom",
            "--knots", "0.5:0.0,1.0:0.0,2.0:1.0", *TINY_GRID,
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["v_hat_0"] > 0.0

    def test_custom_claim_takes_its_strike(self, config_path, capsys):
        # the strike centres the lattice and the default spot on ln K
        rc = main(["price", "--config", config_path, "--claim", "custom",
                   "--knots", "0.5:0,2:1", "--strike", "1.5", *TINY_GRID])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        claim = ClaimSpec(kind="custom", strike=1.5, knots=((0.5, 0.0), (2.0, 1.0)))
        grid = build_grid(claim, DEFAULT_MARKET, n_x=101, n_t=20)
        report = compute_xva(claim, DEFAULT_MARKET, grid).to_dict()
        assert report["spot"] == 1.5
        assert {k: out[k] for k in report} == report

    @pytest.mark.parametrize("claim", ["call", "put"])
    def test_vanilla_claim_is_struck_at_one_by_default(self, config_path, capsys,
                                                        claim):
        texts = []
        for strike in ([], ["--strike", "1.0"]):
            assert main(["price", "--config", config_path, "--claim", claim,
                         *strike, *TINY_GRID]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]

    def test_strikeless_custom_claim_reports_at_its_lattice_centre(
        self, config_path, capsys
    ):
        rc = main([
            "price", "--config", config_path, "--claim", "custom",
            "--knots", "100:0,200:100", *TINY_GRID,
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spot"] == pytest.approx(math.sqrt(100.0 * 200.0), rel=1e-14)

    def test_set_override(self, config_path, capsys):
        rc = main([
            "price", "--config", config_path, *FAST_GRID, "--set", "alpha=1.0",
        ])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        # full collateralisation: both jump exposures coincide
        h = out["hedge_seller_0"]
        assert h["z_I"] == h["z_C"]

    @pytest.mark.parametrize(
        "flag", ["alpha", "alpha=", "vol_of_vol=0.1", "alpha=maybe"]
    )
    def test_bad_set_values(self, config_path, capsys, flag):
        rc = main(["price", "--config", config_path, *TINY_GRID, "--set", flag])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_rate_violation_fails_with_guidance(self, bad_config_path, capsys):
        rc = main(["price", "--config", bad_config_path, *TINY_GRID])
        assert rc == 1
        err = capsys.readouterr().err
        assert "r_f_plus <= r_f_minus" in err
        assert "--allow-arbitrage" in err

    def test_rate_violation_override(self, bad_config_path, capsys):
        with pytest.warns(RuntimeWarning):
            rc = main([
                "price", "--config", bad_config_path, "--allow-arbitrage", *TINY_GRID,
            ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["v_hat_0"] > 0.0

    def test_a_spot_off_the_lattice_fails_before_any_march(self, config_path,
                                                           capsys, marches):
        rc = main(["price", "--config", config_path, *TINY_GRID, "--spot", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: spot must be positive, got -1.0\n"
        assert marches == []

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["price", "--config", str(tmp_path / "nope.json"), *TINY_GRID])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("content, problem", [
        (b"", "is not valid JSON: Expecting value"),
        (b"\xff\xfe{", "is not UTF-8 text"),
    ], ids=["empty", "not-utf-8"])
    def test_unreadable_config_names_its_file(self, tmp_path, capsys, content, problem):
        path = tmp_path / "market.json"
        path.write_bytes(content)
        rc = main(["sweep", "--config", str(path), "--axis", "alpha=0,1", *TINY_GRID])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: market config {path} {problem}")
        assert "Traceback" not in err

    def test_non_numeric_config_value(self, tmp_path, capsys):
        cfg = asdict(DEFAULT_MARKET)
        cfg["sigma"] = None
        path = tmp_path / "null.json"
        path.write_text(json.dumps(cfg))
        rc = main(["price", "--config", str(path), *TINY_GRID])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sigma must be a number, got None")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["price", "convergence"])
    def test_rejects_an_unstable_theta(self, config_path, capsys, command):
        grid = {"price": TINY_GRID, "convergence": ["--base-nx", "51", "--base-nt", "10"]}
        rc = main([command, "--config", config_path, *grid[command], "--theta", "0.3"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: theta_scheme must lie in [1/2, 1]")
        assert captured.out == ""

    def test_run_log(self, config_path, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        rc = main([
            "price", "--config", config_path, *TINY_GRID, "--log", str(log),
        ])
        assert rc == 0
        capsys.readouterr()
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert records[-1]["event"] == "report"
        solves = {r["solve"] for r in records if "solve" in r}
        assert solves == {"benchmark", "seller", "buyer"}
        assert all(r["linear_solves"] >= 1 for r in records if "solve" in r)
        assert all(0 <= r["factors"] <= r["linear_solves"]
                   for r in records if "solve" in r)
        # each solve logs one record per step, in march order down to t = 0
        steps = [r for r in records if r.get("solve") == "seller"]
        assert [r["step"] for r in steps] == list(range(21))  # n_t + Rannacher
        assert steps[-1]["t"] == 0.0
        assert all(a["t"] > b["t"] for a, b in zip(steps, steps[1:]))


class TestSweep:
    ARGS = ["sweep", "--axis", "alpha=0.0,0.9", *TINY_GRID]

    def test_stdout_csv(self, config_path, capsys):
        rc = main([*self.ARGS, "--config", config_path])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("alpha,v_hat_0,")
        assert len(lines) == 3

    def test_stdout_repeats_byte_identical(self, config_path, capsys):
        main([*self.ARGS, "--config", config_path])
        first = capsys.readouterr().out
        main([*self.ARGS, "--config", config_path])
        assert capsys.readouterr().out == first

    def test_out_file_matches_stdout(self, config_path, tmp_path, capsys):
        main([*self.ARGS, "--config", config_path])
        stdout_text = capsys.readouterr().out
        out = tmp_path / "sweep.csv"
        rc = main([*self.ARGS, "--config", config_path, "--out", str(out)])
        assert rc == 0
        assert out.read_text() == stdout_text

    def test_two_axes(self, config_path, capsys):
        rc = main([
            "sweep", "--config", config_path, *TINY_GRID,
            "--axis", "alpha=0.0,1.0", "--axis2", "h_C_Q=0.1,0.25",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("alpha,h_C_Q,")
        assert len(lines) == 5

    def test_rejects_one_field_on_both_axes(self, config_path, capsys):
        rc = main(["sweep", "--config", config_path, *TINY_GRID,
                   "--axis", "alpha=0,0.5", "--axis2", "alpha=0.9,1.0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: both sweep axes name 'alpha'")
        assert captured.out == ""

    @pytest.mark.parametrize("axes", [["--axis", "alpha=0,0.5"],
                                      ["--axis", "h_C_Q=0.1,0.2", "--axis2", "alpha=0,0.5"]])
    def test_rejects_a_set_of_a_swept_field(self, config_path, capsys, axes):
        rc = main(["sweep", "--config", config_path, *TINY_GRID, *axes,
                   "--set", "alpha=0.9"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --set alpha: sweep sweeps or fixes 'alpha'")
        assert captured.out == ""

    def test_malformed_axis(self, config_path, capsys):
        rc = main(["sweep", "--config", config_path, *TINY_GRID, "--axis", "alpha"])
        assert rc == 1
        assert "axis" in capsys.readouterr().err


class TestNumberText:
    # every number the CLI parses from text names its flag, its field and
    # the text when it is not one
    @pytest.mark.parametrize("args, message", [
        (["price", "--set", "alpha=abc"], "--set alpha: expected a number, got 'abc'"),
        (["sweep", "--axis", "alpha=0.1,abc"],
         "--axis alpha: expected a number, got 'abc'"),
        (["sweep", "--axis", "alpha=0.1", "--axis2", "r_D=0.01,"],
         "--axis2 r_D: expected a number, got ''"),
        (["price", "--claim", "custom", "--knots", "1"],
         "--knots expects spot:value pairs, got '1'"),
        (["price", "--claim", "custom", "--knots", "0.5:0,x:1"],
         "--knots spot: expected a number, got 'x'"),
        (["price", "--claim", "custom", "--knots", "0.5:0,1:"],
         "--knots value: expected a number, got ''"),
    ], ids=["set", "axis", "axis2", "knot-pair", "knot-spot", "knot-value"])
    def test_names_the_flag_the_field_and_the_text(self, config_path, capsys,
                                                   args, message):
        rc = main([*args, "--config", config_path, *TINY_GRID])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestTables:
    def test_table1_shape(self, capsys, ignore_rate_warnings):
        rc = main(["table1", *FAST_GRID])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "alpha,r_f_minus,v_hat_0,v_sell_0,v_buy_0,xva_sell,xva_buy,"
            "funding_sell_0,funding_buy_0"
        )
        assert len(lines) == 9  # 4 collateral levels x 2 borrow rates

    def test_table2_shape(self, capsys, ignore_rate_warnings):
        rc = main(["table2", *FAST_GRID])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("r_f_minus,")
        assert len(lines) == 5
        # alpha pinned at 0.9 regardless of the base config
        sell = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(s > 0.0 for s in sell)

    @pytest.mark.parametrize("command", ["table1", "table2"])
    @pytest.mark.parametrize("field", ["alpha", "r_f_minus"])
    def test_rejects_a_set_of_a_field_the_table_sets(self, capsys, command, field):
        # table1 sweeps both fields; table2 sweeps r_f_minus at alpha = 0.9
        rc = main([command, *TINY_GRID, "--set", f"{field}=0.1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: --set {field}: {command} sweeps or fixes {field!r}")
        assert captured.out == ""

    def test_set_of_another_field_still_applies(self, capsys, ignore_rate_warnings):
        main(["table2", *TINY_GRID])
        plain = capsys.readouterr().out
        rc = main(["table2", *TINY_GRID, "--set", "h_C_Q=0.3"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == plain.splitlines()[0]
        assert lines[1:] != plain.splitlines()[1:]
        assert all(line.startswith(("0.08,", "0.1,", "0.15,", "0.2,")) for line in lines[1:])

    @pytest.mark.parametrize("command", ["table1", "table2"])
    def test_rejects_the_arbitrage_flag(self, capsys, command):
        # the canned tables always price past the rate ordering
        with pytest.raises(SystemExit) as exc:
            main([command, *TINY_GRID, "--allow-arbitrage"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-arbitrage" in capsys.readouterr().err


class TestConvergence:
    def test_two_levels(self, capsys):
        rc = main(["convergence", "--levels", "2", "--base-nx", "101",
                   "--base-nt", "50"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "case,level,n_x,n_t,value,error,order"
        rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
        assert [r["case"] for r in rows] == (
            ["linear"] * 2 + ["seller"] * 2 + ["buyer"] * 2)
        assert [r["n_x"] for r in rows] == ["101", "201"] * 3
        order = float(rows[1]["order"])
        assert 1.5 < order < 2.5
        assert rows[0]["error"] != ""  # closed-form error known at level 0
        # self-convergence needs two levels
        assert rows[2]["error"] == rows[4]["error"] == ""
        assert rows[3]["error"] != "" and rows[5]["error"] != ""

    def test_a_spot_off_the_lattice_fails_before_any_march(self, capsys,
                                                           marches):
        rc = main(["convergence", "--levels", "2", "--base-nx", "51",
                   "--base-nt", "10", "--spot", "50"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ln(spot) = 3.91")
        assert marches == []

    def test_each_level_solves_its_reference_once(self, monkeypatch, capsys):
        import xvaband.xva

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].n_x)
            return benchmark_surface(*args, **kwargs)

        monkeypatch.setattr(xvaband.xva, "benchmark_surface", counted)
        rc = main(["convergence", "--levels", "3", "--base-nx", "51",
                   "--base-nt", "10"])
        assert rc == 0
        assert calls == [51, 101, 201]
        lines = capsys.readouterr().out.splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == (
            ["linear"] * 3 + ["seller"] * 3 + ["buyer"] * 3)

    def test_rejects_single_level(self, capsys):
        rc = main(["convergence", "--levels", "1"])
        assert rc == 1
        assert "levels" in capsys.readouterr().err

    def test_rejects_an_even_base_nx(self, capsys):
        # build_grid would bump 100 to 101 nodes, and the printed n_x and
        # orders would describe another lattice
        rc = main(["convergence", "--levels", "3", "--base-nx", "100",
                   "--base-nt", "50"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --base-nx must be odd, got 100")
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--base-nt", "0"], "--base-nt must be >= 1, got 0"),
        (["--base-nx", "1"], "--base-nx must be >= 5, got 1"),
        (["--base-nx", "-3"], "--base-nx must be >= 5, got -3"),
    ])
    def test_rejects_a_base_count_by_its_flag(self, capsys, marches, flags, message):
        # build_grid named the lattice's n_t or n_x, not the flag, and the
        # minimum of another count
        rc = main(["convergence", "--levels", "2", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}\n")
        assert captured.out == ""
        assert marches == []

    @pytest.mark.parametrize("flag", ["--nx", "--nt"])
    def test_rejects_the_node_count_flags(self, capsys, flag):
        # the levels' node counts come from --base-nx and --base-nt only
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--levels", "2", flag, "11"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 11" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["price", "convergence"])
def test_rejects_the_removed_startup_switch(config_path, capsys, command):
    # the Rannacher startup is the only schedule
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config_path, "--no-rannacher"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-rannacher" in capsys.readouterr().err


class TestBench:
    def test_smoke(self, capsys):
        rc = main(["bench", "--nx", "101", "--nt", "10", "--repeat", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "grid: 101 x 10" in out
        assert "backend: numpy" in out
        lines = out.splitlines()
        assert [ln.split(":")[0].strip() for ln in lines[1:]] == [
            "reference", "sides", "tree"]
        assert lines[1].endswith("ms median")  # the reference row
        (line,) = [ln for ln in lines if ln.strip().startswith("sides:")]
        assert "ms median" in line
        seller, buyer = line.split("; ")
        for side, part in (("seller", seller), ("buyer", buyer)):
            assert f"{side} linear solves per step (mean, max)" in part
            assert "factors per step (mean)" in part
        (line,) = [ln for ln in lines if ln.strip().startswith("tree:")]
        assert "ms median per side, 2000 steps" in line

    def test_prices_an_arbitrageable_market_when_allowed(self, capsys):
        args = ["bench", "--nx", "51", "--nt", "20", "--repeat", "1",
                "--set", "r_f_minus=0.9"]
        assert main(args) == 1
        assert "use --allow-arbitrage" in capsys.readouterr().err
        with pytest.warns(RuntimeWarning):
            assert main([*args, "--allow-arbitrage"]) == 0
        out = capsys.readouterr().out
        assert "grid: 51 x 20" in out
        assert any(ln.strip().startswith("sides:") for ln in out.splitlines())

    def test_rejects_zero_repeat(self, capsys):
        assert main(["bench", "--nx", "101", "--nt", "10", "--repeat", "0"]) == 1
        assert "--repeat" in capsys.readouterr().err


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.skipif(
        shutil.which("xvaband") is None,
        reason="xvaband console script not on PATH (package not installed)",
    )
    def test_installed_script(self):
        out = subprocess.run(
            ["xvaband", "--help"], capture_output=True, text=True, check=True
        )
        assert "price" in out.stdout
        assert "sweep" in out.stdout

    def test_module_entry_in_a_fresh_interpreter(self, config_path):
        # the documented no-install entry: python -m xvaband.cli, PYTHONPATH=src
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "xvaband.cli", "price", "--config",
                 config_path, "--nx", "51", "--nt", "10", *argv],
                capture_output=True, text=True, env=env, cwd=root, timeout=120,
            )

        ok = run()
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["band_width"] >= 0.0
        bad = run("--set", "r_f_minus=0.01")
        assert bad.returncode == 1
        assert bad.stdout == ""
        assert any(line.startswith("error: ") for line in bad.stderr.splitlines())

    def test_import_loads_no_scipy_beyond_linalg_and_special(self):
        # cold start: the package and its CLI load only the scipy they call
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        probe = (
            "import sys, xvaband, xvaband.cli; "
            "print(' '.join(sorted({m.split('.')[1] for m in sys.modules "
            "if m.startswith('scipy.') and not m.split('.')[1].startswith('_')})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, cwd=root, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        loaded = set(out.stdout.split())
        assert loaded <= {"linalg", "special", "version"}, loaded

    def test_declared_script_entry_point(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts["xvaband"] == "xvaband.cli:main"
        module, attr = scripts["xvaband"].split(":")
        entry = getattr(importlib.import_module(module), attr)
        with pytest.raises(SystemExit) as exc:
            entry(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "price" in out
        assert "sweep" in out
