"""The library names the benchmark calls, read from its sources.

The bench files are parsed with ``ast`` and never imported, so a rename or
removal in ``endslab`` that a bench request kind depends on fails here,
whether or not a tier-1 run or ``bench/selftest.py`` executes that kind.
"""

import ast
import importlib
import inspect
from pathlib import Path

from endslab import (
    PairPoint,
    PointedAction,
    build_ball,
    elaborate,
    imprimitive_action,
    lamplighter,
    leaf_decomposition,
    parse_spec,
    to_json_dict,
)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _trees():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(BENCH.glob("*.py"))}


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _patched(tree):
    """``PATCHED`` of bench/tracing.py: the names a traced pass replaces,
    by module."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and [_dotted(t) for t in node.targets] == ["PATCHED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py assigns no PATCHED")


def bench_names():
    """Every dotted name under ``endslab`` that the bench reads: attribute
    chains on ``endslab``, imported modules, names imported from them, and
    the library names a traced pass replaces."""
    trees = _trees()
    names = {f"{module}.{name}" for module, patched in _patched(trees["tracing"]).items()
             if module.split(".")[0] == "endslab" for name in patched}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted and dotted.split(".")[0] == "endslab":
                    names.add(dotted)
            elif isinstance(node, ast.Import):
                names.update(a.name for a in node.names if a.name.split(".")[0] == "endslab")
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "endslab":
                    names.update(f"{node.module}.{a.name}" for a in node.names)
    return names


def resolve(dotted):
    """The object a dotted name denotes: each part an attribute of the one
    before, or else a submodule of it."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i in range(1, len(parts)):
        if not hasattr(obj, parts[i]):
            importlib.import_module(".".join(parts[:i + 1]))
        obj = getattr(obj, parts[i])
    return obj


def test_every_library_name_the_bench_reads_resolves():
    names = bench_names()
    # the wreath-coset leaves requests label each leaf and look up its hub
    # with these two, and no other request kind reaches them; a traced pass
    # replaces the last
    assert {"endslab.point_label", "endslab.PairPoint", "endslab.ends.build_ball"} <= names
    missing = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []


def test_the_counting_action_is_built_positionally():
    # Tracer.counting rebuilds an action as PointedAction(group, step,
    # basepoint, label): each such call binds, and the rebuilt action
    # builds the same ball, labelled by its group as before
    signature = inspect.signature(PointedAction)
    calls = [node for tree in _trees().values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and _dotted(node.func) in
             ("PointedAction", "endslab.PointedAction")]
    assert calls
    for call in calls:
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
    w, gens = lamplighter(2)
    action = imprimitive_action(w)
    rebuilt = PointedAction(action.group, action.act, action.basepoint, action.label)
    assert str(rebuilt) == str(action)
    ball, fresh = build_ball(rebuilt, gens, 3), build_ball(action, gens, 3)
    assert (ball.table, ball.dist) == (fresh.table, fresh.dist)
    assert to_json_dict(ball) == to_json_dict(fresh)


def test_leaves_requests_find_each_hub_at_the_first_orbit_rep():
    # bench/execute.py reads the hub position of a leaves request as
    # group.orbit_reps[0] and looks up (leaf, x0) in the ball's index
    action, gens = elaborate(parse_spec("imprimitive(wreath(Sym(3), Z^2, translation))"))
    group = action.group
    assert group.orbit_reps == (group.top_action.basepoint,)
    ball = build_ball(action, gens, 3)
    leaves = leaf_decomposition(ball)
    assert (len(ball), len(leaves)) == (62, 6)
    for leaf in leaves:
        assert PairPoint(leaf, group.orbit_reps[0]) in ball.index
