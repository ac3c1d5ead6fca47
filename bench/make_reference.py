"""Regenerate the reference digests in bench/reference/.

    PYTHONPATH=src python3 bench/make_reference.py [WORKLOAD ...]

Runs every request of each workload's catalog once, checks it against
the closed forms and ball invariants, and writes
{request key: [SHA-256 of the canonical output, vertices built]}.  It
refuses to pin an output that fails a check.  Malformed requests get no
digest: they are checked by exit code and message.  Regenerate only when
an output is meant to change, and say why in the change that does it.
"""

from __future__ import annotations

import json
import random
import sys
import time

import workloads
from checks import check, digest
from execute import execute
from tracing import originals, patched
from worker import REFERENCE_DIR, setup


def make(workload: str) -> int:
    requests = workloads.catalog(workload)
    specs, _, _ = setup(requests)
    built: list = []
    build_ball = originals()["build_ball"]

    def counting_build(*args, **kwargs):
        ball = build_ball(*args, **kwargs)
        built.append(len(ball))
        return ball
    rng = random.Random("reference")
    state: dict = {}
    reference = {}
    slow = []
    bad = 0
    with patched({"build_ball": counting_build}):
        for req in requests:
            if req.get("malformed"):
                continue
            key = workloads.request_key(req)
            built.clear()
            t = time.perf_counter()
            result = execute(req, specs, state)
            slow.append((time.perf_counter() - t, key))
            pinned = {key: [digest(req, result), None]}
            problems = check(req, result, pinned, rng, state)
            if problems:
                print(f"FAIL {key}: {problems}", file=sys.stderr)
                bad += 1
                continue
            reference[key] = [pinned[key][0], sum(built) if built else None]
    if bad:
        print(f"{workload}: {bad} requests failed their checks; nothing written",
              file=sys.stderr)
        return 1
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{workload}.json", "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    slow.sort(reverse=True)
    print(f"{workload}: {len(reference)} digests; slowest "
          + ", ".join(f"{s * 1000:.0f} ms" for s, _ in slow[:3]))
    return 0


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    return max(make(name) for name in names)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
