"""Turning benchmark requests into calls on endslab.

Requests call the library through the ``endslab`` package, and export
through ``json_dumps`` below.  The traced and memory passes replace those
names with wrappers for the length of a pass (``tracing.patched``), so
the request code is the same in every pass.
"""

from __future__ import annotations

import contextlib
import io
import json

import endslab
import endslab.cli

json_dumps = json.dumps  # the traced pass wraps it with the other exports


def request_spec(req: dict):
    """The spec text a request elaborates, or None."""
    return req.get("spec") if req["kind"] != "path" else None


def prepare(requests: list[dict]) -> dict:
    """Parse and elaborate every spec of a request list (the set-up work).

    Returns {spec text: (action, gens)}.  The specs of malformed cli
    requests are parsed too; their errors are expected and dropped.
    """
    from endslab.dsl import SpecError

    specs = {}
    for req in requests:
        text = request_spec(req)
        if text is None or text in specs:
            continue
        if req["kind"] == "cli" and "--spec" not in req["argv"]:
            continue
        try:
            specs[text] = endslab.elaborate(endslab.parse_spec(text))
        except SpecError:
            if not req.get("malformed"):
                raise
    return specs


class Result:
    """What a request produced: its output plus the balls it built."""

    def __init__(self, output, balls=(), complete=True):
        self.output = output
        self.balls = list(balls)
        # simplified balls drop loops and parallel edges, so the check that
        # every in-ball act result has its edge does not apply to them
        self.complete = complete


def _cut_summary(cut) -> dict:
    return {"components": [len(c) for c in cut.components],
            "touching": list(cut.touching)}


def _path_dict(res) -> dict:
    if isinstance(res, endslab.ThreeSegmentPath):
        return {"found": True, "to_z": list(res.to_z), "z_to_zp": list(res.z_to_zp),
                "zp_to_y": list(res.zp_to_y), "z": res.z, "z_prime": res.z_prime,
                "candidates_checked": res.candidates_checked,
                "injective": res.injective}
    return {"found": False, "reason": res.reason,
            "candidates_checked": res.candidates_checked, "injective": res.injective}


def _quotient_spec(params, group):
    name = params[0]
    if name == "mod":
        return endslab.IntModQuotient(params[1])
    if name == "diagonal":
        return endslab.DiagonalLatticeQuotient(tuple(params[1]))
    if name == "divisor":
        return endslab.CyclicDivisorQuotient(group.modulus, params[1])
    if name == "sign":
        return endslab.SignQuotient(group.degree)
    raise ValueError(f"unknown quotient {name!r}")


def execute(req: dict, specs: dict, state: dict) -> Result:
    """Run one request; ``state`` carries the Z^2 ball that path requests share."""
    kind = req["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = endslab.cli.cli_main(list(req["argv"]))
        return Result({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})

    if kind == "path":
        ball = state["path_ball"]
        group = ball.action.group
        x = ball.index[endslab.IntVector(tuple(req["x"]))]
        y = ball.index[endslab.IntVector(tuple(req["y"]))]
        cut = [v for v, d in enumerate(ball.dist) if d <= req["cut"]]
        sd = endslab.coordinate_split(group, ball.gens, n_axes=(0,))
        res = endslab.three_segment_path(ball, x, y, cut, sd)
        return Result(_path_dict(res))

    action, gens = specs[req["spec"]]
    if kind in ("ends", "head_ends"):
        if kind == "head_ends":
            action = endslab.head_projection_action(action.group)
        ball = endslab.build_ball(action, gens, req["K"])
        profile = endslab.profile_from_ball(ball, req["k"])
        return Result({"profile": profile.to_json_dict()}, [ball])

    if kind == "path_ball":
        ball = endslab.build_ball(action, gens, req["R"])
        state["path_ball"] = ball
        return Result({"vertices": len(ball), "edges": len(ball.edges)}, [ball])

    if kind == "ball":
        ball = endslab.build_ball(action, gens, req["R"])
        if req["export"] == "json":
            text = json_dumps(endslab.to_json_dict(ball), indent=2)
        else:
            text = endslab.to_dot(ball)
        output = {"export": text}
        if req["cut"] is not None:
            removed = [v for v, d in enumerate(ball.dist) if d <= req["cut"]]
            output["cut"] = _cut_summary(endslab.delete_and_split(ball, removed))
        return Result(output, [ball])

    if kind == "leaves":
        ball = endslab.build_ball(action, gens, req["R"])
        x0 = action.group.orbit_reps[0]
        report = []
        for leaf, vertices in endslab.leaf_decomposition(ball).items():
            hub = ball.index.get(endslab.PairPoint(leaf, x0))
            entry = {"leaf": endslab.point_label(leaf), "size": len(vertices)}
            if hub is not None:
                entry["hub_cut"] = _cut_summary(endslab.delete_and_split(ball, [hub]))
            report.append(entry)
        return Result({"leaves": report}, [ball])

    if kind == "quotient":
        group = action.group
        q = _quotient_spec(req["quotient"], group)
        pair = endslab.quotient_schreier_pair(group, q, endslab.TrivialSubgroup(), gens,
                                              req["R"])
        return Result({"source": [len(pair.source_ball), len(pair.source_ball.edges)],
                       "quotient": [len(pair.quotient_ball),
                                    len(pair.quotient_ball.edges)],
                       "isomorphic": pair.isomorphic},
                      [pair.source_ball, pair.quotient_ball], complete=False)

    raise ValueError(f"unknown request kind {kind!r}")
