"""The endslab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports endslab from
``src/``.  It starts one worker interpreter at a time, each running one
pass of the workload's seeded request list (``worker.py``), until about
S seconds have gone, and reports the medians.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced pass (alternating with plain passes, which give the tracing
overhead) plus a tracemalloc memory pass.  A readable report comes
first; the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The traced run writes
its spans to bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (the benchmark's own modules sit beside this file)

MIN_PASSES = 2
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10  # requests a tail percentile must have beyond it
# Times are scaled to a machine on which worker.speed_probe takes this long:
# each interval is multiplied by PROBE_REFERENCE_NS over the mean of the
# probes run around and inside it (worker.Probed).
PROBE_REFERENCE_NS = 250_000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "groups.multiply_ns": "ns",
    "groups.lookup_ns": "ns",
    "groups.hash_distinct_ratio": "ratio",
    "wreath.multiply_ns": "ns",
    "actions.act_calls": "count",
    "actions.act_calls_per_vertex": "calls/vertex",
    "actions.act_ns": "ns",
    "actions.act_share": "ratio",
    "actions.self_share": "ratio",
    "balls.build_s": "s",
    "balls.build_self_s": "s",
    "balls.vertices_per_s": "1/s",
    "balls.vertices": "count",
    "balls.edges": "count",
    "balls.cut_s": "s",
    "balls.export_s": "s",
    "balls.peak_alloc_mib": "MiB",
    "balls.self_share": "ratio",
    "ends.profile_s": "s",
    "ends.profile_share": "ratio",
    "ends.profile_peak_alloc_mib": "MiB",
    "ends.path_ms": "ms",
    "ends.path_found_ratio": "ratio",
    "ends.quotient_s": "s",
    "ends.self_share": "ratio",
    "dsl.parse_us": "us",
    "dsl.elaborate_us": "us",
    "dsl.self_share": "ratio",
    "cli.request_ms": "ms",
    "cli.self_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, mode: str, pass_index: int = 0) -> dict:
    env = dict(os.environ)
    env.pop("ENDSLAB_BUDGET", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same dict layouts, so exact counts repeat
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), workload,
                           str(seed), mode, str(pass_index)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               start: float) -> list[dict]:
    """Pass workers, one at a time, until the next would overrun the budget."""
    modes = ("plain", "traced") if trace else ("plain",)
    first = time.monotonic()
    results = []
    while True:
        n = len(results)
        results.append(run_worker(workload, seed, modes[n % len(modes)], n))
        now = time.monotonic()
        per_pass = (now - first) / len(results)
        if len(results) >= MIN_PASSES and now - start + per_pass > seconds:
            return results


def tail(slots: list[float]):
    """(percentile, value) of the highest percentile with TAIL_BEYOND requests beyond it."""
    m = len(slots)
    if m <= TAIL_BEYOND:
        return None
    rank = m - TAIL_BEYOND  # 1-based nearest rank
    return 100.0 * rank / m, sorted(slots)[rank - 1]


def repeat_share(requests: list[dict]) -> float:
    """Share of the requests naming a spec whose spec an earlier one named."""
    specs = [req["spec"] for req in requests if "spec" in req]
    return 1 - len(set(specs)) / len(specs)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def scaled_latencies(result: dict) -> list[float]:
    """A pass's request latencies in ns, scaled by the probes around each."""
    return [lat * PROBE_REFERENCE_NS / probe
            for lat, probe in zip(result["lat_ns"], result["probe_ns"])]


def end_to_end(workload, seed, passes) -> tuple[dict, list[str]]:
    plain = [r for r in passes if r["mode"] == "plain"]
    setups = list(plain)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(workload, seed, "setup"))
    setup_s = [r["setup_s"] * PROBE_REFERENCE_NS / r["setup_probe_ns"] for r in setups]
    lats = [scaled_latencies(r) for r in plain]
    walls = [sum(lat) / 1e9 for lat in lats]
    slots = [statistics.median(lat) / 1e6 for lat in zip(*lats)]
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "request_p50_ms": metric(statistics.median(slots), "ms"),
    }
    probe = statistics.median(p for r in plain for p in r["probe_ns"]) / 1e6
    raw_wall = statistics.median(sum(r["lat_ns"]) for r in plain) / 1e9
    raw_setup = statistics.median(r["setup_s"] for r in setups)
    lines = [f"speed probe      {probe * 1e3:.1f} us median, against "
             f"{PROBE_REFERENCE_NS / 1e3:g} us at the reference speed the times below "
             f"are scaled to",
             f"setup_s          {metrics['setup_s']['value']:.4f} s    median of "
             f"{len(setup_s)} fresh interpreters ({raw_setup:.4f} s unscaled)",
             f"wall_s           {metrics['wall_s']['value']:.4f} s    median of "
             f"{len(walls)} passes, sum of request latencies, checks excluded "
             f"({raw_wall:.4f} s unscaled)",
             f"request_p50_ms   {metrics['request_p50_ms']['value']:.3f} ms   median of "
             f"{len(slots)} requests, each the median over the passes"]
    t = tail(slots)
    if t is None:
        lines.append(f"request_tail_ms  omitted: {len(slots)} requests leave no percentile "
                     f"with {TAIL_BEYOND} beyond it")
    else:
        metrics["request_tail_ms"] = metric(t[1], "ms")
        lines.append(f"request_tail_ms  {t[1]:.3f} ms   p{t[0]:.1f}: {TAIL_BEYOND} of "
                     f"{len(slots)} requests beyond it")
    rss = statistics.median(r["maxrss_kib"] for r in plain) / 1024
    metrics["peak_rss_mib"] = metric(rss, "MiB")
    lines.append(f"peak_rss_mib     {rss:.2f} MiB  median over the pass processes "
                 f"(ru_maxrss)")
    return metrics, lines


def per_layer(passes, memory) -> tuple[dict, list[str], dict]:
    plain = [r for r in passes if r["mode"] == "plain"]
    traced = [r for r in passes if r["mode"] == "traced"]
    layers = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    layers["balls.peak_alloc_mib"] = memory.get("build_ball", 0) / 2 ** 20
    layers["ends.profile_peak_alloc_mib"] = memory.get("profile_from_ball", 0) / 2 ** 20
    layers["trace.overhead_ratio"] = (
        statistics.median(sum(scaled_latencies(r)) for r in traced)
        / statistics.median(sum(scaled_latencies(r)) for r in plain))
    metrics = {name: metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    lines = []
    for name, unit in PER_LAYER.items():
        value = layers[name]
        shown = "n/a (not run by the requests)" if value == 0 else f"{value:.6g} {unit}"
        lines.append(f"{name:30s} {shown}")
    shares = ", ".join(f"{layer} {layers[layer + '.self_share']:.1%}"
                       for layer in ("dsl", "actions", "balls", "ends", "cli"))
    lines.append(f"self time per layer, as a share of request time: {shares}")
    return metrics, lines, layers


def describe(workload, requests, passes, layers) -> list[str]:
    malformed = sum(1 for r in requests if r.get("malformed"))
    lines = [f"requests per pass {len(requests)} ({malformed} malformed); growth "
             f"{workloads.GROWTH[workload]}; share of requests whose spec repeats an "
             f"earlier one {repeat_share(requests):.3f}"]
    traced = [r for r in passes if r["mode"] == "traced"]
    if traced:
        v = traced[0]["vertices"]
        lines.append(f"vertices per request (requests that build a ball: {len(v)}) "
                     f"min {v[0]} median {statistics.median(v):g} max {v[-1]}; "
                     f"act calls per vertex {layers['actions.act_calls_per_vertex']:.4f}; "
                     f"distinct hashes per vertex "
                     f"{layers['groups.hash_distinct_ratio']:.4f}")
    return lines


def write_trace(workload, seed, passes) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "span_columns": ["name", "start_ns", "end_ns", "parent", "request",
                                    "act_calls", "act_ns"],
                   "passes": [r["spans"] for r in passes if r["mode"] == "traced"]}, fh)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "endslab" / "__init__.py").is_file():
        print(f"bench: no endslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    requests = workloads.requests_for(args.workload, args.seed)
    try:
        start = time.monotonic()
        if args.trace:
            # the memory pass comes first and counts against --seconds
            memory = run_worker(args.workload, args.seed, "memory")["peaks"]
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                            start)
        if args.trace:
            metrics, lines, layers = per_layer(passes, memory)
        else:
            metrics, lines = end_to_end(args.workload, args.seed, passes)
            layers = {}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    wrong = sum(r["wrong"] for r in passes)
    kinds = collections.Counter(r["mode"] for r in passes)
    print(f"workload {args.workload}  seed {args.seed}  passes: "
          + ", ".join(f"{n} {mode}" for mode, n in kinds.items()))
    print("\n".join(describe(args.workload, requests, passes, layers)))
    print("\n".join(lines))
    print(f"failed_ratio     {failed / attempted:.4f}      {failed} of {attempted} requests "
          f"failed; {failed - wrong} of them malformed requests not refused with exit 2 "
          f"and a one-line message")
    for line in dict.fromkeys(line for r in passes for line in r["failures"]):
        print(f"  failed: {line}")
    if args.trace:
        print(f"trace written to {write_trace(args.workload, args.seed, passes)}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
