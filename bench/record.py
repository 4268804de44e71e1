"""Record the reference digests of every pool item.

    python3 bench/record.py [WORKLOAD ...]

Runs every item a workload can draw, in one process, and writes
bench/reference/<workload>.sha256 with one "index digest" line per item.
An item that fails its oracle stops the recording, except a known defect
that still fails: it is written as "-", so it is judged by its oracle
alone and counts as failed until it is fixed.
"""

import sys

import worker


def record(name: str) -> None:
    import workloads

    workload = workloads.WORKLOADS[name]()
    ids = list(range(workload.pool))
    inputs = [workload.build(index) for index in ids]
    results, latencies, _ = worker.run_items(workload, inputs)
    digests, failures = worker.verify(workload, ids, inputs, results, {i: None for i in ids})
    known = workload.known_defects()
    failing = {f["item"] for f in failures}
    unexpected = [f for f in failures if f["item"] not in known]
    if unexpected:
        raise SystemExit("%s: not recording, items fail their oracle: %s" % (name, unexpected))
    lines = ["%d %s" % (i, "-" if i in failing else d) for i, d in zip(ids, digests)]
    (worker.BENCH / "reference" / (name + ".sha256")).write_text("\n".join(lines) + "\n")
    print("%s: %d items in %.1f s, %d known defects" % (name, len(ids), sum(latencies), len(failing)))


if __name__ == "__main__":
    worker.prepare()
    for name in sys.argv[1:] or ["metric-fuzz", "perfection-sweep", "cli-session"]:
        record(name)
