"""Spans, act counters and layer microbenchmarks for the traced pass.

Spans are recorded from the benchmark's side of each call into endslab.
For the length of a pass, ``patched`` replaces the library functions a
request calls with wrappers, in the ``endslab`` package that
``execute.py`` calls through and in ``endslab.cli`` and ``endslab.ends``,
which look the same names up at call time.  So calls made inside
``cli_main``, ``ends_profile`` and ``quotient_schreier_pair`` are
recorded too.  Every ball is built through a counting ``PointedAction``
whose ``act`` counts calls and their time; act time is charged to the
innermost open span.  Nothing in ``src/`` changes.  Splitting
``build_ball`` into its sweep, boundary pass and edge emission would
need spans inside the library.
"""

from __future__ import annotations

import importlib
import random
import statistics
import time
import tracemalloc

# the modules whose names a pass replaces, and the names; the first module
# that lists a name holds the original function
PATCHED = {
    "endslab": ("parse_spec", "elaborate", "build_ball", "profile_from_ball",
                "three_segment_path", "delete_and_split", "leaf_decomposition",
                "quotient_schreier_pair", "to_json_dict", "to_dot"),
    "endslab.cli": ("cli_main", "parse_spec", "elaborate", "build_ball",
                    "delete_and_split", "leaf_decomposition", "to_dot", "to_json_dict",
                    "quotient_schreier_pair", "three_segment_path"),
    "endslab.ends": ("build_ball", "profile_from_ball"),
    "execute": ("json_dumps",),
}
# layer of each span name; "request" spans are the benchmark's own glue
SPAN_NAMES = {
    "parse_spec": "dsl.parse_spec",
    "elaborate": "dsl.elaborate",
    "build_ball": "balls.build_ball",
    "delete_and_split": "balls.delete_and_split",
    "leaf_decomposition": "balls.leaf_decomposition",
    "to_json_dict": "balls.to_json_dict",
    "to_dot": "balls.to_dot",
    "json_dumps": "balls.json_dumps",
    "profile_from_ball": "ends.profile_from_ball",
    "three_segment_path": "ends.three_segment_path",
    "quotient_schreier_pair": "ends.quotient_schreier_pair",
    "cli_main": "cli.cli_main",
}
LOOKUP_REPEATS = 5
MICRO_REPEATS = 7


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "act_calls", "act_ns")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.act_calls = 0
        self.act_ns = 0

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.request,
                self.act_calls, self.act_ns]


class Tracer:
    """In-memory spans plus the samples the layer microbenchmarks use."""

    def __init__(self, seed: int):
        self.spans: list[Span] = []
        self.stack: list[tuple[int, Span]] = []  # (index, span) of open spans
        self.request = "setup"
        self.rng = random.Random(f"trace:{seed}")
        self.balls = []        # (request, vertices, edges, distinct hashes)
        self.pending = []      # (request, ball, uncounted act) not yet sampled
        self.lookup = [0, 0]   # total ns, lookups
        self.mul_samples = {"groups": [], "wreath": []}
        self.act_samples = []
        self.paths = [0, 0]    # found, tried

    # -- spans

    def open(self, name: str) -> Span:
        parent = self.stack[-1][0] if self.stack else None
        span = Span(name, time.perf_counter_ns(), parent, self.request)
        self.stack.append((len(self.spans), span))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        span_name = SPAN_NAMES[name]

        def traced(*args, **kwargs):
            span = self.open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    # -- the counting action

    def counting(self, action):
        from endslab import PointedAction

        if getattr(action.act, "counting", False):
            return action
        inner = action.act
        stack = self.stack
        clock = time.perf_counter_ns

        def act(g, p):
            if not stack:  # checks and analysis run outside every span
                return inner(g, p)
            t = clock()
            q = inner(g, p)
            span = stack[-1][1]
            span.act_ns += clock() - t
            span.act_calls += 1
            return q

        act.counting = True
        return PointedAction(action.group, act, action.basepoint, action.label)

    def traced_build_ball(self, build_ball):
        traced = self.wrap("build_ball", build_ball)

        def build(action, gens, radius, *args, **kwargs):
            ball = traced(self.counting(action), gens, radius, *args, **kwargs)
            self.pending.append((self.request, ball, action.act))
            return ball
        return build

    def traced_path(self, three_segment_path):
        traced = self.wrap("three_segment_path", three_segment_path)

        def path(*args, **kwargs):
            from endslab import ThreeSegmentPath

            res = traced(*args, **kwargs)
            self.paths[0] += isinstance(res, ThreeSegmentPath)
            self.paths[1] += 1
            return res
        return path

    def wrappers(self) -> dict:
        """The traced function for each name ``patched`` replaces."""
        found = originals()
        wrapped = {name: self.wrap(name, fn) for name, fn in found.items()}
        wrapped["build_ball"] = self.traced_build_ball(found["build_ball"])
        wrapped["three_segment_path"] = self.traced_path(found["three_segment_path"])
        return wrapped

    # -- samples from each ball, taken after the request's timed interval

    def observe_pending(self) -> None:
        """Sample the balls the last request built, then let them go."""
        for request, ball, act in self.pending:
            self.observe_ball(request, ball, act)
        self.pending.clear()

    def observe_ball(self, request, ball, act) -> None:
        from endslab import WreathGroup

        n = len(ball.points)
        distinct = len({hash(p) for p in ball.points})
        self.balls.append((request, n, len(ball.edges), distinct))
        group = ball.action.group
        gens = ball.gens.elements
        layer = "wreath" if isinstance(group, WreathGroup) else "groups"
        fresh = []
        for v in self.rng.sample(range(n), min(n, max(4, n // 256), 512)):
            s = gens[self.rng.randrange(len(gens))]
            self.mul_samples[layer].append((group.multiply, s, ball.witness[v]))
            self.act_samples.append((act, s, ball.points[v]))
            q = act(s, ball.points[v])
            if q in ball.index:
                fresh.append(q)
        if not fresh:
            return
        # dict lookups of freshly acted points, as build_ball makes them;
        # small samples loop several times so the clock's cost stays small
        get = ball.index.get
        loops = max(1, 256 // len(fresh))
        runs = []
        for _ in range(LOOKUP_REPEATS):
            t = time.perf_counter_ns()
            for _ in range(loops):
                for q in fresh:
                    get(q)
            runs.append(time.perf_counter_ns() - t)
        self.lookup[0] += statistics.median(runs) / loops
        self.lookup[1] += len(fresh)


def originals() -> dict:
    """The library function behind each name ``patched`` replaces."""
    found: dict = {}
    for module_name, names in PATCHED.items():
        module = importlib.import_module(module_name)
        for name in names:
            found.setdefault(name, getattr(module, name))
    return found


def memory_wrappers(peaks: dict) -> dict:
    """Wrappers that record the tracemalloc peak of each ball build and profile."""
    def measured(name, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                peaks[name] = max(peaks.get(name, 0), peak)
        return wrapper

    found = originals()
    return {name: measured(name, found[name])
            for name in ("build_ball", "profile_from_ball")}


class patched:
    """Point endslab's module-level names at wrappers for the length of a pass.

    ``wrappers`` maps names of ``PATCHED`` to their replacements; names it
    leaves out keep the library's function.
    """

    def __init__(self, wrappers: dict):
        self.wrappers = wrappers
        self.saved = []

    def __enter__(self):
        for module_name, names in PATCHED.items():
            module = importlib.import_module(module_name)
            for name in names:
                if name in self.wrappers:
                    self.saved.append((module, name, getattr(module, name)))
                    setattr(module, name, self.wrappers[name])
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self.saved):
            setattr(module, name, fn)
        return False


# ---------------------------------------------------------------------------
# microbenchmarks on the samples


def _ns_per_call(samples) -> float:
    if not samples:
        return 0.0
    runs = []
    for _ in range(MICRO_REPEATS):
        t = time.perf_counter_ns()
        for fn, a, b in samples:
            fn(a, b)
        runs.append(time.perf_counter_ns() - t)
    return statistics.median(runs) / len(samples)


def layer_metrics(tracer: Tracer, pass_ns: int) -> dict:
    """Per-layer numbers of one traced pass, from its spans and samples.

    Times and shares cover the pass's requests; the per-call dsl times
    also include the set-up's parse and elaborate calls.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end - s.start
    total, self_ns = {}, {}         # requests only
    calls, all_ns = {}, {}          # set-up included
    act_calls = act_ns = 0
    for i, s in enumerate(spans):
        d = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        all_ns[s.name] = all_ns.get(s.name, 0) + d
        if s.request == "setup":
            continue
        total[s.name] = total.get(s.name, 0) + d
        layer = s.name.split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + d - child_ns[i] - s.act_ns
        act_calls += s.act_calls
        act_ns += s.act_ns
    build = [s for s in spans if s.name == "balls.build_ball" and s.request != "setup"]
    build_ns = sum(s.end - s.start for s in build)
    build_act_ns = sum(s.act_ns for s in build)
    request_ns = max(pass_ns, 1)
    vertices = sum(b[1] for b in tracer.balls)

    def t(name):
        return total.get(name, 0)

    def per_call(name, scale):
        return all_ns[name] / calls[name] / scale if name in calls else 0.0

    m = {
        "groups.multiply_ns": _ns_per_call(tracer.mul_samples["groups"]),
        "groups.lookup_ns": tracer.lookup[0] / tracer.lookup[1] if tracer.lookup[1] else 0.0,
        "groups.hash_distinct_ratio": (sum(b[3] for b in tracer.balls) / vertices
                                       if vertices else 0.0),
        "wreath.multiply_ns": _ns_per_call(tracer.mul_samples["wreath"]),
        "actions.act_calls": act_calls,
        "actions.act_calls_per_vertex": act_calls / vertices if vertices else 0.0,
        "actions.act_ns": _ns_per_call(tracer.act_samples),
        "actions.act_share": build_act_ns / build_ns if build_ns else 0.0,
        "balls.build_s": build_ns / 1e9,
        "balls.build_self_s": (build_ns - build_act_ns) / 1e9,
        "balls.vertices_per_s": vertices / (build_ns / 1e9) if build_ns else 0.0,
        "balls.vertices": vertices,
        "balls.edges": sum(b[2] for b in tracer.balls),
        "balls.cut_s": (t("balls.delete_and_split") + t("balls.leaf_decomposition")) / 1e9,
        "balls.export_s": (t("balls.to_json_dict") + t("balls.json_dumps")
                           + t("balls.to_dot")) / 1e9,
        "ends.profile_s": t("ends.profile_from_ball") / 1e9,
        "ends.profile_share": t("ends.profile_from_ball") / request_ns,
        "ends.path_ms": per_call("ends.three_segment_path", 1e6),
        "ends.path_found_ratio": (tracer.paths[0] / tracer.paths[1]
                                  if tracer.paths[1] else 0.0),
        "ends.quotient_s": t("ends.quotient_schreier_pair") / 1e9,
        "dsl.parse_us": per_call("dsl.parse_spec", 1e3),
        "dsl.elaborate_us": per_call("dsl.elaborate", 1e3),
        "cli.request_ms": per_call("cli.cli_main", 1e6),
    }
    # self time of each layer as a share of the pass's request time: the
    # most a faster layer can save, since nothing else contends
    for layer in ("dsl", "balls", "ends", "cli"):
        m[f"{layer}.self_share"] = self_ns.get(layer, 0) / request_ns
    m["actions.self_share"] = act_ns / request_ns
    return m


def request_vertices(tracer: Tracer) -> dict:
    """Vertices built per request id (requests that built at least one ball)."""
    out: dict = {}
    for request, n, _, _ in tracer.balls:
        if request != "setup":
            out[request] = out.get(request, 0) + n
    return out
