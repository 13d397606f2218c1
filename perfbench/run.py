"""xvaband benchmark: one workload per call, metrics on stdout.

    python3 perfbench/run.py --workload price|sweep|tree --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in worker processes of
its own (``worker.py``), one after another, each a single closed-loop
client that sends its next op when the last one returns.  The untraced run
(``--trace 0``) starts ``WORKERS[workload]`` workers, so that set-up is
measured several times, and splits the ``--seconds`` budget between them;
it prints the end-to-end metrics, each time scaled to a reference host
speed measured around it (``calibrate.py``).  The traced run
(``--trace 1``) starts one worker that alternates untraced and traced ops
and prints the per-layer metrics.  Every op's output is checked after the
timed phase.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, the seed and inputs, and every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Worker processes per untraced run.  Each sets up once, so set-up is
#: measured that many times, and measures for its share of --seconds.  A
#: sweep op takes about 5 s, so the sweep gets two workers.
WORKERS = {"price": 3, "sweep": 2, "tree": 3}
DEADLINE_S = 170.0
#: The highest percentile reported must have this many samples beyond it.
TAIL_BEYOND = 10


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def environment(worker_env: dict) -> dict:
    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.partition(":")[2].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        **caches,
        "platform": platform.platform(),
        **worker_env,
        "XVA_THREADS": os.environ.get("XVA_THREADS"),
        "XVA_NUMBA": os.environ.get("XVA_NUMBA"),
        "git_commit": commit or "unknown (not a git checkout)",
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples above it, but never below the median: with fewer
    than 2 * TAIL_BEYOND + 1 samples that percentile would be a low one."""
    s = sorted(samples)
    n = len(s)
    k = max(n - TAIL_BEYOND - 1, n // 2)
    return s[k], 100.0 * (k + 1) / n


def run_workers(args) -> list[dict] | None:
    parts = 1 if args.trace else WORKERS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for part in range(parts):
        budget = args.seconds / parts
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--part", str(part), "--parts", str(parts),
               "--budget", repr(budget), "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"worker {part} passed the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"worker {part} exited with {proc.returncode}", file=sys.stderr)
            return None
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return results


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKERS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "xvaband" / "__init__.py").is_file():
        print(f"no xvaband source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    results = run_workers(args)
    if results is None:
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [msg for r in results for msg in r["failures"]]
    # every sweep worker's CSV must match worker 0's: fail the odd ones' ops
    for r in results[1:]:
        if r.get("csv_digest") != results[0].get("csv_digest"):
            failed += r["attempted"] - r["failed"]
            failures.append(f"worker {r['part']}: CSV differs from worker 0's")

    ops = [op for r in results for op in r["ops"]]
    walls = [op["wall"] for op in ops]
    items = sum(r["items"] for r in results)
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls)[0],
        "items_per_s": items / sum(walls),
        "cpu_s_per_item": sum(op["cpu"] for op in ops) / max(items, 1),
    }
    # the same figures with each time scaled to the reference host speed
    # measured around it (calibrate.py)
    norm_walls = [op["scaled_wall"] for op in ops]
    tail_s, tail_pct = tail(norm_walls)
    setup_s = statistics.median(r["setup_s"] * r["setup_scale"] for r in results)
    cals = [c for r in results for c in r["cal_s"]]
    print("env: " + json.dumps(environment(results[0]["env"])))
    print("inputs: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "workers": [r["summary"] for r in results]}))
    print(f"op_tail_s is percentile {tail_pct:.1f} of {len(walls)} op samples")
    print(f"host speed: calibration kernel median {statistics.median(cals)!r} s over "
          f"{len(cals)} passes, reference {results[0]['cal_ref_s']!r} s")
    if not args.trace:
        for name, value in raw.items():
            print(f"{args.workload} unscaled {name} = {value!r}")
    print(f"{args.workload} fail_frac = {failed / attempted!r} ratio "
          f"({failed} of {attempted} ops failed)")
    for msg in failures:
        print(f"failed: {msg}")

    if args.trace:
        values = results[0]["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(norm_walls),
            "op_tail_s": tail_s,
            "items_per_s": items / sum(norm_walls),
            "cpu_s_per_item": sum(op["scaled_cpu"] for op in ops) / max(items, 1),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
