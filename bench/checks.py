"""Output checks, run outside the timed region of every request.

A request passes when its canonical output matches the reference digest
in ``reference.json``, its closed forms hold (ball sizes, profile rows,
verdicts, quotient isomorphism) and every ball it built satisfies the
orbital-graph invariants, checked from outside the library: symmetric
pairing, |dist(u) - dist(v)| <= 1 on every edge, BFS order, and edges
that agree with ``act`` on a seeded sample.  A malformed request passes
when it is refused with exit code 2 and a one-line ``endslab`` message.
"""

from __future__ import annotations

import hashlib
import json
import re

from workloads import request_key

ACT_SAMPLE = 48  # edges and vertices re-derived through act per ball


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_output(req: dict, result) -> str:
    """The canonical JSON text whose SHA-256 the reference pins."""
    if req["kind"] == "path_ball":
        from endslab.balls import to_json_dict  # never a traced wrapper
        return canonical(to_json_dict(result.balls[0]))
    if req["kind"] != "cli":
        return canonical(result.output)
    out = result.output
    stdout = out["stdout"]
    if req["argv"][0] in ("ends", "leaves") or (
            req["argv"][0] == "ball" and "dot" not in req["argv"]):
        stdout = json.loads(stdout)
    return canonical({"code": out["code"], "stdout": stdout})


def digest(req: dict, result) -> str:
    return hashlib.sha256(canonical_output(req, result).encode()).hexdigest()


# ---------------------------------------------------------------------------
# balls


def check_ball(ball, rng, complete: bool = True) -> list[str]:
    """Invariants of a finished ball, re-derived from its public fields."""
    problems = []
    n = len(ball.points)
    dist = ball.dist
    pairing = ball.gens.pairing
    gens = ball.gens.elements
    act = ball.action.act
    if n == 0 or ball.basepoint_index != 0 or dist[0] != 0:
        return ["basepoint is not vertex 0 at distance 0"]
    if ball.points[0] != ball.action.basepoint:
        problems.append("vertex 0 is not the action's basepoint")
    if len(dist) != n or len(ball.index) != n:
        problems.append("points, dist and index differ in length")
    if any(pairing[pairing[i]] != i for i in range(len(pairing))):
        problems.append("generator pairing is not an involution")
    if any(b < a for a, b in zip(dist, dist[1:])) or dist[-1] > ball.radius:
        problems.append("vertices are not in BFS order")
    has_parent = bytearray(n)
    has_parent[0] = 1
    for u, v, g in ball.edges:
        du, dv = dist[u], dist[v]
        if du == dv + 1:
            has_parent[u] = 1
        elif dv == du + 1:
            has_parent[v] = 1
        elif du != dv:
            problems.append(f"edge {u}-{v} joins distances {du} and {dv}")
            break
        if g > pairing[g]:
            problems.append(f"edge {u}-{v} carries the non-representative label {g}")
            break
    if not all(has_parent):
        problems.append("some vertex has no neighbour one step closer to the basepoint")

    edges = ball.edges
    for e in rng.sample(range(len(edges)), min(ACT_SAMPLE, len(edges))):
        u, v, g = edges[e]
        if act(gens[g], ball.points[u]) != ball.points[v]:
            problems.append(f"edge {u}-{v} label {g} disagrees with act")
            break
        if act(gens[pairing[g]], ball.points[v]) != ball.points[u]:
            problems.append(f"edge {u}-{v}: the paired label does not lead back")
            break
    if complete:
        sample = set(rng.sample(range(n), min(ACT_SAMPLE, n)))
        targets = {}
        for u, v, g in edges:
            if u in sample:
                targets[(u, g)] = v
            if v in sample:
                targets[(v, pairing[g])] = u
        for u in sample:
            for i, s in enumerate(gens):
                w = ball.index.get(act(s, ball.points[u]))
                if w is not None and targets.get((u, i)) != w:
                    problems.append(f"act of generator {i} at vertex {u} lands in the "
                                    f"ball without an edge")
                    break
    for v in rng.sample(range(n), min(ACT_SAMPLE, n)):
        if ball.index.get(ball.points[v]) != v:
            problems.append(f"index does not map vertex {v} back to itself")
            break
    return problems


def check_ball_json(payload: dict) -> list[str]:
    """The same invariants on an exported ball (``endslab ball`` JSON)."""
    dist = payload["dist"]
    pairing = payload["pairing"]
    n = len(payload["vertices"])
    if not n or len(dist) != n or dist[payload["basepoint"]] != 0:
        return ["exported ball has no basepoint at distance 0"]
    if any(pairing[pairing[i]] != i for i in range(len(pairing))):
        return ["exported pairing is not an involution"]
    if any(b < a for a, b in zip(dist, dist[1:])) or dist[-1] > payload["radius"]:
        return ["exported vertices are not in BFS order"]
    has_parent = bytearray(n)
    has_parent[0] = 1
    for u, v, g in payload["edges"]:
        if abs(dist[u] - dist[v]) > 1 or g > pairing[g]:
            return [f"exported edge {u}-{v} breaks the ball invariants"]
        if dist[u] != dist[v]:
            has_parent[u if dist[u] > dist[v] else v] = 1
    if not all(has_parent):
        return ["exported vertex without a neighbour one step closer"]
    return []


# ---------------------------------------------------------------------------
# request-level checks


def _check_expect(req: dict, result) -> list[str]:
    expect = req.get("expect", {})
    problems = []
    ball = result.balls[0] if result.balls else None
    if "vertices" in expect and len(ball) != expect["vertices"]:
        problems.append(f"|B_R| = {len(ball)}, closed form {expect['vertices']}")
    if "edges" in expect and len(ball.edges) != expect["edges"]:
        problems.append(f"{len(ball.edges)} edges, closed form {expect['edges']}")
    profile = result.output.get("profile")
    if "matrix" in expect and profile["matrix"] != expect["matrix"]:
        problems.append("profile rows differ from the closed form")
    if "verdict" in expect and profile["verdict"] != expect["verdict"]:
        problems.append(f"verdict {profile['verdict']}, expected {expect['verdict']}")
    if "isomorphic" in expect and result.output["isomorphic"] != expect["isomorphic"]:
        problems.append("quotient pair is not pointed-labeled isomorphic")
    return problems


def _check_path(req: dict, result, state) -> list[str]:
    from endslab import IntVector

    out = result.output
    if not out["found"]:
        return []
    ball = state["path_ball"]
    act = ball.action.act
    gens = ball.gens.elements
    # generators 0, 1 move the first coordinate (N); 2, 3 the second (H)
    h_labels, n_labels = (2, 3), (0, 1)
    cut = req["cut"]
    x = ball.index.get(IntVector(tuple(req["x"])))
    y = ball.index.get(IntVector(tuple(req["y"])))
    segments = ((out["to_z"], h_labels, x, out["z"]),
                (out["z_to_zp"], n_labels, out["z"], out["z_prime"]),
                (out["zp_to_y"], h_labels, out["z_prime"], y))
    for path, labels, start, end in segments:
        if path[0] != start or path[-1] != end:
            return ["path segment has the wrong endpoints"]
        for p, q in zip(path, path[1:]):
            if ball.dist[q] <= cut or ball.dist[p] <= cut:
                return ["path enters the cut"]
            if not any(act(gens[i], ball.points[p]) == ball.points[q] for i in labels):
                return [f"path step {p}->{q} is not an edge of its segment's labels"]
    return []


MESSAGE = re.compile(r"^endslab[\w -]*: \S")


def check_malformed(req: dict, result) -> list[str]:
    out = result.output
    if out["code"] != 2:
        return [f"{req['malformed']}: exit code {out['code']}, expected 2"]
    lines = [line for line in out["stderr"].splitlines() if line.strip()]
    if "Traceback" in out["stderr"] or not lines or not MESSAGE.match(lines[-1]):
        return [f"{req['malformed']}: no one-line endslab message on stderr"]
    if req["malformed"] == "parse" and not re.match(r"^endslab: line \d+, column \d+: ",
                                                    lines[-1]):
        return ["parse error message lacks its line and column"]
    if out["stdout"]:
        return [f"{req['malformed']}: refused request printed to stdout"]
    return []


def _check_cli(req: dict, result) -> list[str]:
    out = result.output
    if out["code"] != 0:
        return [f"exit code {out['code']}: {out['stderr'].strip()[:200]}"]
    argv = req["argv"]
    if argv[0] == "verify":
        lines = out["stdout"].splitlines()
        if not lines or not all(line.startswith("PASS: ") for line in lines):
            return ["verify did not pass"]
    if argv[0] == "ball" and "dot" not in argv:
        return check_ball_json(json.loads(out["stdout"]))
    return []


def check(req: dict, result, reference: dict, rng, state: dict) -> list[str]:
    """Every check of one request; an empty list means it passed."""
    if req.get("malformed"):
        return check_malformed(req, result)
    if req["kind"] == "cli":
        problems = _check_cli(req, result)
    elif req["kind"] == "path":
        problems = _check_path(req, result, state)
    else:
        problems = _check_expect(req, result)
    for ball in result.balls:
        problems += check_ball(ball, rng, complete=result.complete)
    if problems:
        return problems
    ref = reference.get(request_key(req))
    if ref is None:
        return ["no reference digest for this request"]
    if digest(req, result) != ref[0]:
        return ["output digest differs from the reference"]
    return []
