"""twistorcheck benchmark: one closed-loop client, one workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fixtures|fiber|exact --seed N \\
        --seconds S --trace 0|1

The run imports twistorcheck from ``src/``, builds the workload's inputs
from the seed, does one warm-up op, then runs whole cycles of ops until
their summed op time reaches ``--seconds`` (and at least 100 ops, so the
p90 has ten samples beyond it).  Each op is checked by its oracle outside
the timer.  After the loop, the workload's known-defect census runs once,
untimed.

Every time is reported at the nominal speed of the reference work (see
``reference.py``), which is timed right before each op: the host's CPU
speed drifts too much between runs for raw wall time to be compared.  Raw
wall times are printed above the result line.  The loop stops on
normalised time, so one seed gives the same ops on a fast or a slow host.

``--trace 0`` reports the end-to-end metrics; set-up time is the median of
five set-ups: this process's own and four fresh interpreters.  ``--trace 1``
wraps twistorcheck's public functions (see ``tracer.py``) and reports the
per-layer metrics, per op.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference                # the script's own directory is on sys.path
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100
SETUP_SAMPLES = 5
THROUGHPUT_SLICES = 10
WALL_LIMIT_S = 120.0          # stop mid-cycle past this, to exit in time
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fixtures", "fiber", "exact"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up seconds and exit")
    return ap.parse_args(argv)


def set_up(workload):
    """Import, build, generate inputs and run one warm-up op.

    Returns (inputs, seconds, seconds at the reference speed).
    """
    def work():
        inputs = workload.setup()
        workload.run_op(inputs[0])
        return inputs
    return reference.normalised_span(work)


def percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


def throughput(latencies, ok, slices=THROUGHPUT_SLICES):
    """Passing ops per second: median over equal consecutive slices of the run.

    A median over slices keeps a short burst of load from elsewhere on the
    machine from moving the figure the way one whole-run ratio would.
    """
    n = len(latencies)
    slices = max(1, min(slices, n))
    rates = []
    for i in range(slices):
        lo, hi = i * n // slices, (i + 1) * n // slices
        rates.append(sum(ok[lo:hi]) / sum(latencies[lo:hi]))
    return statistics.median(rates)


def timed_loop(workload, inputs, seconds, tracer=None):
    """Whole cycles of ops until ``seconds`` of normalised op time and MIN_OPS ops.

    A reference unit is timed right before each op, outside the op timer.
    Returns per-op latencies, reference times and pass flags (in op
    order), the failures of each failed op, up to three tracebacks, and the
    summed op time.
    """
    latencies, refs, ok, failures, errors = [], [], [], [], []
    busy = norm_busy = 0.0
    wall_start = time.perf_counter()
    done = False
    while not done:
        for inp in inputs:
            refs.append(reference.time_reference())
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                out, err = workload.run_op(inp), None
            except Exception as exc:  # a refusal or crash is a failed op
                out, err = None, exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op(elapsed)
            latencies.append(elapsed)
            busy += elapsed
            norm_busy += elapsed * reference.NOMINAL_REF_S / refs[-1]
            if err is not None:
                found = [("exception", f"{type(err).__name__}: {err}")]
                if len(errors) < 3:
                    errors.append("".join(traceback.format_exception(err)))
            else:
                found = workload.check(inp, out)
            ok.append(not found)
            if found:
                failures.append(found)
            if time.perf_counter() - wall_start > WALL_LIMIT_S:
                done = True
                break
        else:
            done = norm_busy >= seconds and len(latencies) >= MIN_OPS
    return latencies, refs, ok, failures, errors, busy


def setup_probe_samples(args, count):
    """Set-up seconds measured in ``count`` fresh interpreters, one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in BLAS_ENV:
        os.environ[key] = "1"
    for rel in ("src/twistorcheck/__init__.py", "fixtures", "reports"):
        if not (ROOT / rel).exists():
            print(f"perfbench: {rel} is missing from {ROOT}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        inputs, _, setup_s = set_up(workload)
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        return measure(args, workload, inputs, setup_s)
    finally:
        workload.close()


def measure(args, workload, inputs, setup_s) -> int:
    import numpy as np

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    try:
        latencies, refs, ok, failures, errors, busy = timed_loop(
            workload, inputs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = len(latencies), len(failures)
    cases, census = workload.census()

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"closed loop, 1 client, cycle of {len(inputs)} inputs")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} "
          + " ".join(f"{k}={os.environ[k]}" for k in BLAS_ENV))
    print(f"ops attempted={attempted} failed={failed} "
          f"fail_ratio={failed / attempted:.6f} busy_s={busy:.3f}")
    by_oracle = {}
    for found in failures:
        for oracle, _ in found:
            by_oracle[oracle] = by_oracle.get(oracle, 0) + 1
    for oracle, count in sorted(by_oracle.items()):
        print(f"  failed oracle {oracle}: {count}")
    for found in failures[:20]:
        for oracle, detail in found:
            print(f"  FAIL [{oracle}] {detail}")
    for text in errors:
        print(text.rstrip())
    if args.workload == "fixtures":
        same, total = workload.identical_reports()
        print(f"reports byte-identical: {same}/{total}")
    print(f"census: {cases} known-defect case(s), {len(census)} failing")
    for what, where, found in census:
        for oracle, detail in found:
            print(f"  census {what} [{oracle}] {where}: {detail}")

    print(f"raw wall ms: p50={statistics.median(latencies) * 1e3:.3f} "
          f"reference unit p50={statistics.median(refs) * 1e3:.4f} ms "
          f"(nominal {reference.NOMINAL_REF_S * 1e3:.4f} ms)")
    normalised = reference.normalise(latencies, refs)
    ordered = sorted(normalised)
    p50_ms = statistics.median(ordered) * 1e3
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics().items()}
        metrics["traced.op_ms.p50"] = {"value": p50_ms, "unit": "ms"}
        metrics["census.cases"] = {"value": cases, "unit": "count"}
        metrics["census.failed"] = {"value": len(census), "unit": "count"}
        dump_trace(args, tracer)
    else:
        setups = [setup_s] + setup_probe_samples(args, SETUP_SAMPLES - 1)
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        metrics = {
            "ops_per_s": {"value": throughput(normalised, ok), "unit": "1/s"},
            "op_ms.p50": {"value": p50_ms, "unit": "ms"},
            "op_ms.p90": {"value": percentile(ordered, 0.9) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def dump_trace(args, tracer):
    """Write the per-op span aggregates next to the checkout's other outputs."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "ops": tracer.per_op}, fh)
    print(f"per-op spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
