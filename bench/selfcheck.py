"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload at a tiny size through run.py, untraced and traced.
The traced run alternates two untraced and two traced processes and is
only correct when all four give identical output digests (the tracer's
wrappers change no verdict), the two traced ones give identical per-layer
counts, no wrapper is installed in an untraced process and some are in a
traced one.  The self-check requires both runs to be correct and to print
exactly the metrics BENCHMARK.json declares.  Exits 0 when every check
holds, 1 otherwise.
"""

import json
import subprocess
import sys

import run

SEED = 7


def check(name: str, trace: int, declared: dict) -> list[str]:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=run.DEADLINE_S + 10)
    if proc.returncode != 0:
        return ["run.py --trace %d exited with %d: %s" % (trace, proc.returncode, proc.stderr)]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"]:
        problems.append("run.py --trace %d is not correct:\n%s" % (trace, "\n".join(lines[:-1])))
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        problems.append("run.py --trace %d prints %s, BENCHMARK.json declares %s"
                        % (trace, sorted(printed.items()), sorted(declared.items())))
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = [{m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer")]
    failed = False
    for w in spec["workloads"]:
        problems = check(w["name"], 0, declared[0]) + check(w["name"], 1, declared[1])
        for p in problems:
            print("FAIL %s: %s" % (w["name"], p))
        if not problems:
            print("ok   %s" % w["name"])
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
