"""One pass of a workload, in a fresh interpreter.

``run.py`` starts it as ``python3 bench/worker.py WORKLOAD SEED MODE PASS``
and reads one JSON object from the last line of its standard output.
PASS numbers the pass; it seeds the order the pass runs its requests in.

Modes:
  setup   import endslab and parse and elaborate every spec, then stop
  plain   set up, then run the pass's request list and check every output
  traced  the same with spans and act counters, then the layer
          microbenchmarks on samples of the pass's own balls
  memory  set up, then run the requests with the largest balls under
          tracemalloc (the memory pass; never timed)

A fresh process per pass keeps peaks and caches from carrying over.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import resource
import signal
import sys
import time
import tracemalloc
from pathlib import Path

import workloads
from workloads import request_key

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MAX_FAILURES_SHOWN = 5
PROBE_VERTICES = 250
EDGE_PROBES = 4  # probes just before and just after each interval
SAMPLE_PERIOD_S = 0.01  # between probes inside an interval


def speed_probe() -> int:
    """ns for a fixed piece of pure-Python work: a BFS over tuple points.

    The machine's speed drifts by up to 1.5x within seconds, so run.py
    scales each timed interval by the probes taken just before, during
    and just after it (``Probed``).  The probe is the benchmark's own code
    and never calls endslab, so a change to endslab does not move it.
    The collector is off during the probe so that a large live ball
    cannot add a collection to it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter_ns()
        seen = {(0, 0): 0}
        frontier = [(0, 0)]
        for p in frontier:
            if len(seen) > PROBE_VERTICES:
                break
            for d in (1, -1, 2, -2):
                q = (p[0] + d, p[1] ^ d)
                if q not in seen:
                    seen[q] = len(seen)
                    frontier.append(q)
        return time.perf_counter_ns() - t
    finally:
        if collecting:
            gc.enable()


class Probed:
    """Times an interval and probes the machine's speed around and inside it.

    EDGE_PROBES probes run just before the interval and as many just
    after.  Inside it a timer signal runs one every SAMPLE_PERIOD_S, so a
    request of seconds is scaled by its own speed, not only by that of
    its ends; the time those probes take is taken out of the interval.
    After the block, ``ns`` is the interval and ``probe_ns`` the mean of
    its probes.
    """

    def __init__(self):
        self.probes: list[int] = []
        self.inside_ns = 0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t = time.perf_counter_ns()
        self.probes.append(speed_probe())
        self.inside_ns += time.perf_counter_ns() - t

    def __enter__(self):
        self.probes = [speed_probe() for _ in range(EDGE_PROBES)]
        self.inside_ns = 0
        self.start = time.perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.ns = time.perf_counter_ns() - self.start - self.inside_ns
        self.probes += [speed_probe() for _ in range(EDGE_PROBES)]
        self.probe_ns = sum(self.probes) / len(self.probes)
        return False


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as fh:
        return json.load(fh)


def setup(requests: list[dict]):
    """Import endslab and elaborate every spec.

    Returns (specs, seconds, mean probe ns of the set-up).
    """
    speed_probe()  # the first run of the probe warms the interpreter up
    with Probed() as timed:
        from execute import prepare

        specs = prepare(requests)
    return specs, timed.ns / 1e9, timed.probe_ns


def run_requests(requests, order, specs, reference, seed, tracer=None) -> dict:
    """Time each request in the pass's order; check each output outside its
    timed interval.  Latencies come back in request-list order."""
    from checks import check
    from execute import execute

    rng = random.Random(f"checks:{seed}")
    state: dict = {}
    lat_ns = [0] * len(requests)
    probe_ns = [0.0] * len(requests)
    probed = Probed()
    failed = wrong = 0
    failures = []
    for i in order:
        req = requests[i]
        gc.collect()  # each request starts from the same collector state
        root = None
        if tracer is not None:
            tracer.request = i
            root = tracer.open("request")
        with probed:
            try:
                result, error = execute(req, specs, state), None
            except Exception as exc:  # a request that raises counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
        lat_ns[i], probe_ns[i] = probed.ns, probed.probe_ns
        if tracer is not None:
            tracer.close(root)
            tracer.observe_pending()
        problems = [error] if error else check(req, result, reference, rng, state)
        result = None  # release the ball before the next request builds one
        if problems:
            failed += 1
            wrong += not req.get("malformed")
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append(f"{request_key(req)[:160]}: {problems[0][:200]}")
    return {"lat_ns": lat_ns, "probe_ns": probe_ns, "attempted": len(requests),
            "failed": failed, "wrong": wrong, "failures": failures}


def memory_requests(requests: list[dict], reference: dict) -> list[dict]:
    """The request with the largest ball, and the one with the largest profile."""
    def size(req):
        ref = reference.get(request_key(req))
        return ref[1] if ref and ref[1] else 0

    def profiles(req):
        return req["kind"] in ("ends", "head_ends") or (
            req["kind"] == "cli" and req["argv"][0] == "ends")

    candidates = [r for r in requests if r["kind"] != "path" and not r.get("malformed")]
    chosen = [max(candidates, key=size)]
    with_profile = [r for r in candidates if profiles(r)]
    if with_profile:
        top = max(with_profile, key=size)
        if top is not chosen[0]:
            chosen.append(top)
    return chosen


def memory_pass(requests, specs, reference) -> dict:
    """tracemalloc peaks of the largest requests' ball builds and profiles."""
    from execute import execute
    from tracing import memory_wrappers, patched

    peaks: dict = {}
    tracemalloc.start()
    try:
        with patched(memory_wrappers(peaks)):
            for req in memory_requests(requests, reference):
                execute(req, specs, {})
    finally:
        tracemalloc.stop()
    return peaks


def main(argv: list[str]) -> int:
    workload, seed, mode, pass_index = argv[0], int(argv[1]), argv[2], int(argv[3])
    requests = workloads.requests_for(workload, seed)
    tracer = None
    guard = contextlib.nullcontext()
    if mode == "traced":
        # the wrappers are in place before the set-up, which then records
        # its parse and elaborate spans; a traced pass's setup_s is not used
        from tracing import Tracer, patched
        tracer = Tracer(seed)
        guard = patched(tracer.wrappers())
    with guard:
        specs, setup_s, setup_probe_ns = setup(requests)
        out: dict = {"mode": mode, "setup_s": setup_s, "setup_probe_ns": setup_probe_ns}
        if mode == "memory":
            out["peaks"] = memory_pass(requests, specs, load_reference(workload))
        elif mode in ("plain", "traced"):
            order = workloads.pass_order(workload, seed, pass_index)
            out.update(run_requests(requests, order, specs, load_reference(workload),
                                    seed, tracer))
            out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elif mode != "setup":
            raise ValueError(f"unknown mode {mode!r}")
    if tracer is not None:
        from tracing import layer_metrics, request_vertices
        out["layers"] = layer_metrics(tracer, sum(out["lat_ns"]))
        out["vertices"] = sorted(request_vertices(tracer).values())
        out["spans"] = [s.as_list() for s in tracer.spans]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
