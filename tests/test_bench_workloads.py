"""The benchmark's correctness gate, run in-process: every pool item of
every workload goes through the benchmark worker's own verify, against its
reference digests, and may fail only if the workload marks it as a known
defect.  This works from the repository root with an 80-column terminal,
as a benchmark worker does."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.mark.parametrize("name", ["metric-fuzz", "perfection-sweep", "cli-session"])
def test_every_pool_item_matches_its_reference_and_oracle(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage errors to the terminal width
    monkeypatch.syspath_prepend(str(BENCH))
    import worker
    import workloads

    workload = workloads.WORKLOADS[name]()
    ids = list(range(workload.pool))
    inputs = [workload.build(index) for index in ids]
    results = []
    for item in inputs:
        try:
            results.append(workload.run(item))
        except Exception as exc:  # a failed item, as in worker.run_items
            results.append(workloads.Raised(exc))
    _, failures = worker.verify(workload, ids, inputs, results, worker.reference_digests(name))
    assert [f for f in failures if f["item"] not in workload.known_defects()] == []
