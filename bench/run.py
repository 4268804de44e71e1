"""tricomplete benchmark: one workload, one seed, fresh processes.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Workloads (see bench/workloads.py): metric-fuzz, perfection-sweep,
cli-session.  Each is a closed loop with one client.  The seed picks the
items and their order; --seconds sets how many items a process runs,
ceil(T * RATE / PROCESSES) capped at the workload's pool, so a run always
does the same work for the same arguments and, at T = 30, takes about T
seconds on an uncontended 2-core x86 machine.

--trace 0 runs the workload in PROCESSES fresh processes, one after
another, each building its own inputs.  Co-tenants of a shared host slow a
process by up to 2x in bursts, and how hard they hit drifts over minutes.
So set-up and each item take their fastest time over the processes
(interference only ever adds time), and every time is scaled to the
reference machine's speed: between items each worker times a fixed
elimination kernel (bench/probe.py, not tricomplete code), and times are
multiplied by PROBE_REF_S over the run's 10th-percentile probe time.
wall_s is the sum of the items' times and items_per_s the item count over
it; peak_rss_mb is the median over the processes.

--trace 1 alternates two untraced and two traced processes and reports
per-layer metrics from the first traced one; trace.overhead_s is the
difference of the timed phases, each item at its fastest, and the two
traced processes must agree on every count.

Human-readable lines come first; the last line of stdout is one JSON
object with keys correct, attempted, failed and metrics.  Items that fail
(raise, disagree with their oracle or their reference digest) are counted
in "failed"; "correct" is false when any item other than a known defect of
the recorded code fails, or when processes disagree on an output.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROCESSES = 8
DEADLINE_S = 170.0
# 10th percentile of the probe's time (bench/probe.py) on the reference
# machine; reported times are scaled to that host speed
PROBE_REF_S = 4.0e-4
RATE = {"metric-fuzz": 42, "perfection-sweep": 28, "cli-session": 38}

LAYER_METRICS = [
    ("linalg.rref", ("calls", "entries", "self_s")),
    ("rmodule.RModuleMap", ("calls", "self_s")),
    ("rmodule.jordan_basis", ("calls", "self_s")),
    ("rmodule.projective_cover_and_syzygy", ("calls", "self_s", "distinct_ratio")),
    ("rmodule.hom_basis", ("calls", "self_s", "distinct_ratio")),
    ("complexes.ChainMap", ("calls", "self_s")),
    ("complexes.Complex", ("calls",)),
    ("complexes.cone", ("calls", "self_s")),
    ("complexes.cohomology_data", ("calls", "self_s")),
    ("complexes.projective_resolution", ("calls", "self_s", "degrees")),
    ("complexes.derived_hom", ("calls", "self_s")),
    ("complexes.chain_map_space", ("self_s",)),
    ("metric.length", ("calls", "self_s")),
    ("metric.GoodMetric.ball_level", ("calls", "self_s")),
    ("metric.equivalent", ("self_s",)),
    ("metric.check_good_axioms", ("self_s",)),
    ("cauchy.is_cauchy", ("self_s",)),
    ("cauchy.colimit", ("self_s",)),
    ("completion.is_perfect", ("calls",)),
    ("completion.in_S", ("self_s",)),
    ("completion.sing_hom", ("self_s",)),
    ("randomgen.Sampler.complex", ("self_s",)),
    ("randomgen.Sampler.chain_map", ("self_s",)),
    ("workspace.parse_workspace", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
]
UNITS = {"calls": "count", "entries": "count", "degrees": "count", "self_s": "s",
         "distinct_ratio": "ratio"}


class RunError(Exception):
    pass


def run_worker(args, items: int, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--items", str(items), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish within the run's deadline")
    if proc.returncode != 0:
        raise RunError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_scale(reports: list[dict]) -> tuple[float, float]:
    """Factor from this run's host speed to the reference machine's, and
    the run's 10th-percentile probe time it comes from."""
    p10 = statistics.quantiles([t for r in reports for t in r["probe_s"]], n=10)[0]
    return PROBE_REF_S / p10, p10


def end_to_end(reports: list[dict], items: int, scale: float) -> dict:
    item_s = [scale * min(lat) for lat in zip(*(r["latency_s"] for r in reports))]
    item_ms = sorted(1000.0 * t for t in item_s)
    wall_s = sum(item_s)
    return {
        "setup_s": metric(scale * min(r["setup_s"] for r in reports), "s"),
        "wall_s": metric(wall_s, "s"),
        "items_per_s": metric(items / wall_s, "1/s"),
        "item_ms.p50": metric(statistics.median(item_ms), "ms"),
        "item_ms.p90": metric(statistics.quantiles(item_ms, n=10)[8] if items > 1 else item_ms[0], "ms"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
    }


def counts(report: dict) -> dict:
    return {label: {k: v for k, v in fields.items() if k != "self_s"}
            for label, fields in report["layers"].items()}


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    out = {}
    for label, fields in LAYER_METRICS:
        for field in fields:
            out["%s.%s" % (label, field)] = metric(traced[0]["layers"][label][field], UNITS[field])
    fastest = [sum(map(min, zip(*(r["latency_s"] for r in reports)))) for reports in (untraced, traced)]
    out["trace.overhead_s"] = metric(fastest[1] - fastest[0], "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one tricomplete benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "tricomplete" / "__init__.py").is_file():
        sys.stderr.write("no tricomplete sources under %s/src: nothing to measure\n" % ROOT)
        return 2
    items = max(1, math.ceil(args.seconds * RATE[args.workload] / PROCESSES))
    try:
        if args.trace:
            reports = [run_worker(args, items, trace, deadline) for trace in (0, 1, 0, 1)]
        else:
            reports = [run_worker(args, items, 0, deadline) for _ in range(PROCESSES)]
    except RunError as e:
        sys.stderr.write("benchmark failed: %s\n" % e)
        return 1

    items = len(reports[0]["ids"])
    digests = {r["run_digest"] for r in reports}
    failed = sum(len(r["failures"]) for r in reports)
    attempted = items * len(reports)
    correct = len(digests) == 1 and not any(r["unexpected_failures"] for r in reports)
    if args.trace:
        untraced, traced = reports[0::2], reports[1::2]
        correct = (correct and not any(r["wrappers_installed"] for r in untraced)
                   and all(r["wrappers_installed"] for r in traced)
                   and counts(traced[0]) == counts(traced[1]))
        metrics = per_layer(untraced, traced)
    else:
        scale, p10 = host_scale(reports)
        metrics = end_to_end(reports, items, scale)

    print("workload %s  seed %d  %d items x %d processes  trace %d" % (
        args.workload, args.seed, items, len(reports), args.trace))
    if not args.trace:
        print("  host speed: probe p10 %.4f ms; times scaled by %.4f" % (1000 * p10, scale))
    for name, m in metrics.items():
        print("  %-45s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-45s %14.6g (%d of %d items)" % ("fail_ratio", failed / attempted, failed, attempted))
    for f in sorted({(f["item"], f["reason"]) for r in reports for f in r["failures"]}):
        print("  failed item %d: %s" % f)
    print("  output digest %s%s" % (sorted(digests)[0], "" if len(digests) == 1 else
                                    "  (processes disagree: %d digests)" % len(digests)))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
