"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the metric names and units the benchmark prints match
BENCHMARK.json, by running short spec-mix runs with and without
tracing, and that the output checks refuse what they must: a corrupted
reference digest is reported as a failure, never passed.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from worker import load_reference, run_requests, setup  # noqa: E402


def check_names() -> list[str]:
    problems = []
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names a workload workloads.py does not define")
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != table:
            problems.append(f"BENCHMARK.json {section} differs from run.py: "
                            f"{sorted(set(declared.items()) ^ set(table.items()))}")
        trace = "1" if section == "per_layer" else "0"
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload",
                               "spec-mix", "--seed", "0", "--seconds", "1",
                               "--trace", trace], cwd=ROOT, capture_output=True,
                              text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"--trace {trace} run failed: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"--trace {trace} result keys {sorted(result)}")
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        if printed != declared:
            problems.append(f"--trace {trace} printed {sorted(printed)}, BENCHMARK.json "
                            f"declares {sorted(declared)}")
        report = "\n".join(proc.stdout.strip().splitlines()[:-1])
        problems += [f"--trace {trace} report does not name {name}"
                     for name in declared if name not in report]
    return problems


def check_corrupted_digest() -> list[str]:
    requests = [r for r in workloads.requests_for("spec-mix", 0) if not r.get("malformed")]
    requests = requests[:20]
    reference = load_reference("spec-mix")
    specs, _, _ = setup(requests)
    order = list(range(len(requests)))
    clean = run_requests(requests, order, specs, reference, seed=0)
    if clean["failed"]:
        return [f"the true reference fails: {clean['failures']}"]
    corrupted = copy.deepcopy(reference)
    key = workloads.request_key(requests[3])
    digest = corrupted[key][0]
    corrupted[key][0] = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad = run_requests(requests, order, specs, corrupted, seed=0)
    if bad["failed"] != 1 or bad["wrong"] != 1 or "digest" not in bad["failures"][0]:
        return [f"a corrupted digest was not reported as one failure: {bad}"]
    return []


def main() -> int:
    problems = check_corrupted_digest() + check_names()
    for p in problems:
        print(f"FAIL: {p}")
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
