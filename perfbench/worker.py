"""One workload process: set up, measure for a time budget, check outputs.

Started by ``run.py``; prints one JSON object on stdout.  Set-up time runs
from the top of this file, before ``xvaband`` is imported, to the end of one
untimed warm-up op.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def run_op(wl, i: int, clock, **kwargs) -> tuple[dict | None, str | None]:
    """(record, error) of op ``i``, timed by ``clock``; the record is made
    after the clock stops."""
    try:
        out = wl.op(i, pause=clock.pause, **kwargs)
    except Exception as err:  # noqa: BLE001 - a failed op is counted, not fatal
        clock.stop()
        return None, f"op {i}: {type(err).__name__}: {err}"
    clock.stop()
    return wl.digest(i, out), None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--parts", type=int, required=True, help="workers in the run")
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds to measure; at least one op runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy
    import xvaband

    if not Path(xvaband.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"xvaband imported from {xvaband.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    # the canned tables price r_f_minus points beyond the rate ordering on purpose
    warnings.filterwarnings("ignore", "solving despite arbitrage", RuntimeWarning)

    from calibrate import REF_S, OpClock, calibrate
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.part, args.parts)
    times, recs, errors, inputs = {}, {}, {}, {}
    cals = []  # every kernel pass, in order

    def record(i, k, **kwargs):
        """Run op number ``i`` on input ``k``; scale it unless it is the
        warm-up."""
        inputs[i] = k
        clock = OpClock(cals[-1] if cals else None)
        rec, err = run_op(wl, k, clock, **kwargs)
        times[i] = clock.times()
        cals.extend(clock.passes[1:])
        if err is None:
            recs[i] = rec
        else:
            errors[i] = err

    record(0, 0)  # warm-up: checked, not timed
    setup_s = time.perf_counter() - T_START
    cals.append(calibrate())

    tracer = Tracer() if args.trace else None
    traced_ops = []
    start = time.perf_counter()
    timed = []
    i = 1
    while True:
        # the traced run alternates untraced and traced ops, in pairs on
        # the same input, so that their difference is the tracing overhead
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install()
            traced_ops.append(i)
        try:
            with tracer.traced_op(i) if traced else contextlib.nullcontext():
                if tracer is None:
                    record(i, i)
                else:
                    record(i, (i + 1) // 2, **wl.trace_kwargs)
        finally:
            if traced:
                tracer.uninstall()
        timed.append(i)
        i += 1
        # the traced run needs one op of each kind, however long ops take
        if time.perf_counter() - start >= args.budget and (tracer is None or traced_ops):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if tracer is not None:
        # the loop above ran at least one untraced (odd) and one traced op
        traced_p50 = statistics.median(times[j]["wall"] for j in traced_ops)
        untraced_p50 = statistics.median(times[j]["wall"] for j in timed
                                         if j not in traced_ops)
        per_layer = layer_metrics(tracer.spans, len(traced_ops))
        per_layer.update({
            "trace.ops": len(traced_ops),
            "trace.op_p50_s": traced_p50,
            "trace.untraced_op_p50_s": untraced_p50,
            "trace.overhead_s": traced_p50 - untraced_p50,
            "sweep.serial_s": 0.0,
        })
        if args.workload == "sweep":
            # one untraced op as the untraced run times it, on one thread,
            # against the pool's ops above
            record(i, i)
            per_layer["sweep.serial_s"] = times[i]["wall"]

    failures = dict(errors)
    for j, rec in recs.items():
        msg = wl.check(inputs[j], rec)
        if msg is not None:
            failures[j] = msg

    result = {
        "part": args.part,
        "setup_s": setup_s,
        "setup_scale": REF_S / cals[0][0],
        "cal_ref_s": REF_S,
        "ops": [times[j] for j in timed],
        "cal_s": [wall for wall, _ in cals],
        "items": sum(wl.items(recs[j]) for j in timed if j in recs and j not in failures),
        "attempted": len(times),
        "failed": len(failures),
        "failures": [failures[j] for j in sorted(failures)],
        "peak_rss_mb": peak_rss_mb,
        "summary": wl.summary({inputs[j]: recs[j] for j in timed if j in recs}),
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "backend": xvaband.active_backend()},
        "per_layer": per_layer,
    }
    full = [j for j in sorted(recs) if len(recs[j].get("csv", ())) == 2]
    if full:  # a sweep op with both tables
        text = json.dumps(recs[full[0]]["csv"], sort_keys=True).encode()
        result["csv_digest"] = hashlib.sha256(text).hexdigest()
    if tracer is not None:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"per_layer": per_layer, "spans": tracer.spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
