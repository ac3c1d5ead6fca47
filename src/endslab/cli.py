"""Command line interface.

Subcommands: ball (build and export a graph ball), ends (ends profile),
leaves (leaf decomposition of an imprimitive ball), verify <check> (named
structural checks; each takes only the options it reads, as VERIFY_CHECKS
lists them), fixtures (list built-in rule actions).  Exit codes: 0
success, 1 check or computation failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from json.encoder import encode_basestring_ascii as _json_string
from typing import Optional, Sequence

from . import __version__
from .actions import (
    RULE_ACTIONS,
    ActionError,
    IntModQuotient,
    PairPoint,
    TrivialSubgroup,
    point_labels,
    translation_action,
)
from .balls import (
    DEFAULT_VERTEX_BUDGET,
    BallOverflowError,
    build_ball,
    delete_and_split,
    leaf_decomposition,
    simplify,
    to_dot,
    to_json_dict,  # bench/tracing.py patches this name here
    to_json_text,
)
from .dsl import SpecError, elaborate, parse_spec
from .ends import (
    coordinate_split,
    ends_profile,
    quotient_schreier_pair,
    three_segment_path,
    ThreeSegmentPath,
)
from .groups import (
    Cyclic,
    FreeAbelian,
    GroupError,
    SymmetricGroup,
    nonidentity_gens,
)
from .wreath import WreathGroup, imprimitive_action

BUDGET_ENV = "ENDSLAB_BUDGET"


class UsageError(Exception):
    """A bad command line or environment setting (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing the usage and exiting."""

    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


radius_arg = _int_at_least(0)
budget_arg = _int_at_least(1)


def resolve_budget(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(BUDGET_ENV)
    if not env:
        return DEFAULT_VERTEX_BUDGET
    try:
        return budget_arg(env)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{BUDGET_ENV}: {exc}") from None


def parse_k_values(text: str) -> Sequence[int]:
    """Ascending inner radii k >= 0 from "1..4" (a range, never listed) or "1,2,4"."""
    lo, sep, hi = text.partition("..")
    try:
        ks = (range(int(lo), int(hi) + 1) if sep
              else sorted(int(part) for part in text.split(",")))
    except ValueError:
        ks = []
    if not ks or ks[0] < 0:
        raise argparse.ArgumentTypeError(
            f'expected radii >= 0 as "1..4" or "1,2,4", got {text!r}')
    return ks


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)`` for the values the reports hold: dicts
    with str keys, lists, str, int, bool and None.  Any other value raises
    ``TypeError``.  A list of only ints or only strs, such as a profile row
    or a leaf's labels, is checked by type and joined at C level.  It writes
    the ``ends`` and ``leaves`` reports; ``ball`` JSON comes from
    ``endslab.balls.to_json_text``."""
    return _json_text(obj, "")


def _json_text(obj, indent: str) -> str:
    kind = type(obj)
    if kind is str:
        return _json_string(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is list:
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds == {str}:
            items = map(_json_string, obj)
        else:
            items = [_json_text(x, inner) for x in obj]
        return f"[\n{inner}{sep.join(items)}\n{indent}]"
    if kind is dict:
        if not obj:
            return "{}"
        for key in obj:
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [f"{_json_string(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return f"{{\n{inner}{sep.join(items)}\n{indent}}}"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def cmd_ball(args) -> int:
    action, gens = elaborate(parse_spec(args.spec))
    ball = build_ball(action, gens, args.radius, args.budget)
    if args.format == "dot":
        out = to_dot(ball)
    else:
        out = to_json_text(ball)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        print(out)
    return 0


def cmd_ends(args) -> int:
    if args.k[-1] >= args.K:
        raise UsageError(f"max inner radius {args.k[-1]} must be smaller than "
                         f"the outer radius --K {args.K}")
    action, gens = elaborate(parse_spec(args.spec))
    # a list too large for memory fails at once; the profile's set() of a range would grow
    profile = ends_profile(action, gens, list(args.k), args.K, args.budget)
    print(json_text(profile.to_json_dict()))
    return 0


def _leaf_ball(args, command: str):
    """The ball of a wreath spec under its imprimitive action."""
    action, gens = elaborate(parse_spec(args.spec))
    if not isinstance(action.group, WreathGroup):
        raise UsageError(f"{command} needs a wreath-product spec")
    if not isinstance(action.basepoint, PairPoint):
        action = imprimitive_action(action.group)
    return build_ball(action, gens, args.radius, args.budget)


def leaves_report(ball) -> dict:
    """The report of ``endslab leaves`` on a ball of ``PairPoint``
    vertices: each leaf with its vertex labels, and the edges between
    leaves."""
    leaves = leaf_decomposition(ball)
    group = ball.action.group
    labels = point_labels(ball.points, group.label)
    return {
        "radius": ball.radius,
        "vertex_count": len(ball),
        "leaf_count": len(leaves),
        "leaves": [
            {
                "leaf": leaf_label,
                "size": len(vs),
                "vertices": [labels[v] for v in vs],
            }
            for leaf_label, vs in zip(point_labels(leaves, group.base.label),
                                      leaves.values())
        ],
        "cross_leaf_edges": sum(
            1 for u, v, _ in ball.edges
            if u != v and ball.points[u].leaf != ball.points[v].leaf),
    }


def cmd_leaves(args) -> int:
    print(json_text(leaves_report(_leaf_ball(args, "leaves"))))
    return 0


def _check_quotient(args) -> list[tuple[bool, str]]:
    group = FreeAbelian(1)
    pair = quotient_schreier_pair(group, IntModQuotient(args.modulus),
                                  TrivialSubgroup(), group.standard_gens(),
                                  args.radius, args.budget)
    ok = pair.isomorphic
    return [(ok,
             f"Sch(Z, {args.modulus}Z; +-1) and Cayley(C({args.modulus}); +-1) "
             f"simplified balls at radius {args.radius} "
             f"{'are' if ok else 'are NOT'} pointed-labeled isomorphic")]


def _check_leaf_disconnect(args) -> list[tuple[bool, str]]:
    ball = _leaf_ball(args, "leaf-disconnect")
    group = ball.action.group
    x0 = group.top_action.basepoint
    leaves = leaf_decomposition(ball)
    results = []
    for leaf, vs in leaves.items():
        # only a delta at x0 changes a leaf, so a shortest path into l passes (l, x0)
        hub = ball.index[PairPoint(leaf, x0)]
        cut = delete_and_split(ball, [hub])
        rest = set(vs) - {hub}
        leaked = [c for c in cut.components
                  if set(c) & rest and not set(c) <= set(vs)]
        ok = not leaked
        comp_desc = []
        for c, touch in zip(cut.components, cut.touching):
            if set(c) <= rest:
                comp_desc.append(f"size {len(c)} ({'touching' if touch else 'isolated'})")
        results.append((ok, f"leaf {group.base.label(leaf, {})}: deleting its hub leaves "
                            f"leaf components [{', '.join(comp_desc) or 'none'}] "
                            f"with {'no' if ok else 'SOME'} edges to other leaves"))
    return results


def _check_three_segment(args) -> list[tuple[bool, str]]:
    # Z x Z as a semidirect product with trivial action: N the first axis,
    # H the second.  Endpoints are sampled so that their H-lines miss the
    # cut (the path construction needs each endpoint's H-orbit graph to be
    # one-ended or disjoint from the cut) and with enough radius margin
    # for the detour to stay inside the ball.
    group = FreeAbelian(2)
    gens = group.standard_gens()
    action = translation_action(group)
    ball = build_ball(action, gens, args.radius, args.budget)
    cut = [v for v in range(len(ball)) if ball.dist[v] <= args.cut_radius]
    sd = coordinate_split(group, gens, n_axes=(0,))
    rng = random.Random(args.seed)
    margin = args.radius - args.cut_radius - 2
    # the H-line through (a, b) is the column {a} x Z; it misses B(r) iff |a| > r
    survivors = [v for v in range(len(ball))
                 if ball.dist[v] <= margin
                 and abs(ball.points[v][0]) > args.cut_radius]
    if len(survivors) < 2:
        raise UsageError(f"--cut-radius {args.cut_radius} leaves fewer than two endpoints"
                         f" within --radius {args.radius}; need 2 * cut + 3 <= radius")
    ok_all = True
    for _ in range(args.pairs):
        x, y = rng.sample(survivors, 2)
        res = three_segment_path(ball, x, y, cut, sd)
        good = isinstance(res, ThreeSegmentPath) and res.injective
        ok_all = ok_all and good
    return [(ok_all,
             f"{args.pairs} random vertex pairs joined by three-segment "
             f"paths around the radius-{args.cut_radius} cut, with the "
             f"candidate map injective")]


def _check_complete_graph(args) -> list[tuple[bool, str]]:
    results = []
    for group in (Cyclic(5), SymmetricGroup(3)):
        gens = nonidentity_gens(group)
        ball = build_ball(translation_action(group), gens, 1, args.budget)
        n = group.order()
        # simplify masks loops, so every table entry left is an edge u-v
        pairs = {frozenset((e // len(gens), v))
                 for e, v in enumerate(simplify(ball).table) if v >= 0}
        expected = {frozenset((u, v)) for u in range(n) for v in range(u + 1, n)}
        ok = len(ball) == n and pairs == expected
        results.append((ok, f"Cayley({group}; all non-identity elements) ball "
                            f"R=1 is K_{n}: {ok}"))
    return results


# each verify check: its function and the options it reads, as
# {flag: (type, default)}; every check also reads --budget
VERIFY_CHECKS = {
    "quotient": (_check_quotient, {"--radius": (radius_arg, 4),
                                   "--modulus": (_int_at_least(1), 4)}),
    "leaf-disconnect": (_check_leaf_disconnect,
                        {"--spec": (str, "wreath(C(3), C(2), regular)"),
                         "--radius": (radius_arg, 8)}),
    "three-segment-path": (_check_three_segment,
                           {"--radius": (radius_arg, 12), "--cut-radius": (radius_arg, 2),
                            "--pairs": (_int_at_least(1), 20), "--seed": (int, 0)}),
    "complete-graph": (_check_complete_graph, {}),
}


def cmd_verify(args) -> int:
    failed = False
    for ok, message in VERIFY_CHECKS[args.check][0](args):
        print(f"{'PASS' if ok else 'FAIL'}: {message}")
        failed = failed or not ok
    return 1 if failed else 0


def cmd_fixtures(args) -> int:
    for name in sorted(RULE_ACTIONS):
        _, description = RULE_ACTIONS[name]
        print(f"{name}: {description}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="endslab",
        description="orbital/Schreier graph balls and ends estimation for "
                    "finitely generated groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ball = sub.add_parser("ball", help="materialize a graph ball")
    p_ball.add_argument("--spec", required=True, help='e.g. "Z^2" or '
                        '"wreath(C(2), Z, translation)"')
    p_ball.add_argument("--radius", type=radius_arg, required=True)
    p_ball.add_argument("--format", choices=("json", "dot"), default="json")
    p_ball.add_argument("--output", "-o")
    p_ball.add_argument("--budget", type=budget_arg)
    p_ball.set_defaults(func=cmd_ball)

    p_ends = sub.add_parser("ends", help="compute an ends profile")
    p_ends.add_argument("--spec", required=True)
    p_ends.add_argument("--k", type=parse_k_values, required=True,
                        help='inner radii, "1..4" or "1,2,4"')
    p_ends.add_argument("--K", type=int, required=True, help="outer radius")
    p_ends.add_argument("--budget", type=budget_arg)
    p_ends.set_defaults(func=cmd_ends)

    p_leaves = sub.add_parser("leaves", help="leaf decomposition of an "
                                             "imprimitive ball")
    p_leaves.add_argument("--spec", required=True)
    p_leaves.add_argument("--radius", type=radius_arg, required=True)
    p_leaves.add_argument("--budget", type=budget_arg)
    p_leaves.set_defaults(func=cmd_leaves)

    p_verify = sub.add_parser("verify", help="run a named structural check")
    checks = p_verify.add_subparsers(dest="check", required=True)
    for name, (_, options) in VERIFY_CHECKS.items():
        p_check = checks.add_parser(name)
        for flag, (kind, default) in options.items():
            p_check.add_argument(flag, type=kind, default=default)
        p_check.add_argument("--budget", type=budget_arg)
        p_check.set_defaults(func=cmd_verify)

    p_fix = sub.add_parser("fixtures", help="list built-in rule actions")
    p_fix.set_defaults(func=cmd_fixtures)
    return parser


# exit code for each error a command reports as one line: 2 for usage and
# spec errors (elaboration reports every library refusal of a spec as an
# ElaborationError, a SpecError), 1 for a computation that cannot finish.
# The first isinstance match wins, so subclasses come before ActionError.
EXIT_CODES = {
    UsageError: 2,
    SpecError: 2,
    BallOverflowError: 1,
    ActionError: 1,
    GroupError: 1,
}


def cli_main(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "budget" in args:
            args.budget = resolve_budget(args.budget)
        return args.func(args)
    except SystemExit as exc:  # --help and --version
        return exc.code if isinstance(exc.code, int) else 2
    except tuple(EXIT_CODES) as exc:
        print(f"endslab: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    except MemoryError:
        print("endslab: out of memory", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``endslab ball ... | head``): send
        # the unwritten output to devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
