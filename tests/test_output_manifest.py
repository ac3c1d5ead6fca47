import json
import random

import pytest

from endslab.actions import PairPoint, point_labels
from endslab.balls import delete_and_split, simplify, to_json_dict, to_json_text
from endslab.cli import json_text, leaves_report
from endslab.ends import profile_from_ball
from endslab.groups import point_label
from endslab.wreath import WreathGroup

from oracles import components
from output_manifest import MANIFEST, compute_manifest, manifest_balls


@pytest.fixture(scope="module")
def balls():
    return manifest_balls()


def test_outputs_match_the_manifest(balls):
    # every output kind of the manifest's balls and CLI draws, byte for byte;
    # a change that alters one regenerates the manifest and says why
    assert compute_manifest(balls) == json.loads(MANIFEST.read_text())


def test_json_text_matches_json_dumps_on_the_reports(balls):
    for ball in balls:
        reports = [to_json_dict(ball),
                   profile_from_ball(ball, range(ball.radius)).to_json_dict()]
        if isinstance(ball.points[0], PairPoint):
            reports.append(leaves_report(ball))
        for report in reports:
            assert json_text(report) == json.dumps(report, indent=2)


def test_to_json_text_matches_json_dumps_of_the_dict(balls):
    for ball in balls:
        for b in (ball, simplify(ball)):
            assert to_json_text(b) == json.dumps(to_json_dict(b), indent=2)


def test_point_labels_match_point_label(balls):
    # a base family's label is point_label; a wreath group states its own
    for ball in balls:
        if not isinstance(ball.action.group, WreathGroup):
            assert (point_labels(ball.points, ball.action.group.label)
                    == [point_label(p) for p in ball.points])


def test_group_labels_match_one_point_at_a_time(balls):
    for ball in balls:
        label = ball.action.group.label
        assert point_labels(ball.points, label) == [label(p, {}) for p in ball.points]


def _oracle_cut(ball, removed):
    """The components of the ball minus ``removed`` by the oracle's DFS over
    the edge list, in ``delete_and_split``'s order, and whether each
    reaches distance R."""
    adj = {v: set() for v in range(len(ball))}
    for u, v, _ in ball.edges:
        adj[u].add(v)
        adj[v].add(u)
    comps = sorted(tuple(sorted(c)) for c in components(adj, lambda v: v not in removed))
    return tuple(comps), tuple(any(ball.dist[v] == ball.radius for v in c) for c in comps)


def test_cuts_match_the_component_oracle(balls):
    # removed sets that are not distance prefixes: none, the basepoint hub,
    # one seeded vertex and seeded samples of about a quarter and a half
    rng = random.Random(26)
    for ball in balls:
        n = len(ball)
        for b in (ball, simplify(ball)):
            for removed in (set(), {0}, {rng.randrange(n)},
                            set(rng.sample(range(n), n // 4)),
                            set(rng.sample(range(n), n // 2))):
                cut = delete_and_split(b, removed)
                assert cut.removed == frozenset(removed)
                assert (cut.components, cut.touching) == _oracle_cut(b, removed)
