"""One fresh process of a benchmark run: set up, run the timed phase once,
verify every item, and print one JSON line.

    python3 bench/worker.py --workload NAME --seed S --items N --trace 0|1

Set-up (imports, input generation, fixture loading) is timed separately
from the timed phase.  Item outputs are checked against each workload's
oracle and against the reference digests in bench/reference/ after the
timed phase, with the tracer removed.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def prepare() -> None:
    """Work from the repository root and import tricomplete from this
    checkout's src/, never from elsewhere."""
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"  # argparse wraps usage errors to the terminal width
    sys.path.insert(0, str(ROOT / "src"))
    import tricomplete

    if Path(tricomplete.__file__).resolve().parent != ROOT / "src" / "tricomplete":
        raise SystemExit("tricomplete imported from %s, not from this checkout" % tricomplete.__file__)


def reference_digests(name: str) -> dict[int, str | None]:
    """Pool index -> SHA-256 of the rendered output; None marks a known defect."""
    out = {}
    path = BENCH / "reference" / (name + ".sha256")
    for line in path.read_text().splitlines():
        index, digest = line.split()
        out[int(index)] = None if digest == "-" else digest
    return out


def select(workload, seed: int, items: int) -> list[int]:
    return random.Random(seed).sample(range(workload.pool), min(items, workload.pool))


PROBE_EVERY_S = 0.02


def run_items(workload, inputs: list) -> tuple[list, list[float], list[float]]:
    """Run the items one after another; before the first item and then at
    most every PROBE_EVERY_S between items, time the host-speed probe.
    Returns the results, each item's latency and the probe times."""
    from probe import probe
    from workloads import Raised

    results, latencies, probes = [], [], []
    clock = time.perf_counter
    last_probe = float("-inf")
    for item in inputs:
        if clock() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = clock()
        t0 = clock()
        try:
            result = workload.run(item)
        except Exception as exc:  # an escaping error is a failed item, not a crashed run
            result = Raised(exc)
        latencies.append(clock() - t0)
        results.append(result)
    return results, latencies, probes


def verify(workload, ids, inputs, results, reference) -> tuple[list[str], list[dict]]:
    """Digest every item and check it; returns digests and failures."""
    from workloads import Raised

    digests, failures = [], []
    for index, item, result in zip(ids, inputs, results):
        text = result.text if isinstance(result, Raised) else workload.render(index, result)
        digest = hashlib.sha256(text.encode()).hexdigest()
        digests.append(digest)
        if isinstance(result, Raised):
            reason = text
        elif index not in reference:
            reason = "no reference digest for pool item %d" % index
        elif reference[index] is not None and reference[index] != digest:
            reason = "output differs from the reference digest"
        else:
            try:
                reason = workload.check(index, item, result)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = "oracle cannot read the output: %r" % exc
        if reason:
            failures.append({"item": index, "reason": reason})
    return digests, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--items", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare()
    import tracer
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    reference = reference_digests(args.workload)
    ids = select(workload, args.seed, args.items)
    inputs = [workload.build(index) for index in ids]
    gc.collect()
    setup_s = time.perf_counter() - T_START

    trace = tracer.Tracer() if args.trace else None
    if trace:
        trace.install()
    wrappers = tracer.installed_wrappers()
    results, latencies, probes = run_items(workload, inputs)
    layers = {}
    if trace:
        trace.uninstall()
        layers = trace.summary()

    digests, failures = verify(workload, ids, inputs, results, reference)
    known = workload.known_defects()
    report = {
        "ids": ids,
        "setup_s": setup_s,
        "latency_s": latencies,
        "probe_s": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "run_digest": hashlib.sha256("".join(sorted(
            "%d %s\n" % (i, d) for i, d in zip(ids, digests))).encode()).hexdigest(),
        "failures": failures,
        "unexpected_failures": [f for f in failures if f["item"] not in known],
        "wrappers_installed": wrappers,
        "layers": layers,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
