import json

import pytest

from endslab.actions import PairPoint, point_label, point_labels
from endslab.balls import to_json_dict
from endslab.cli import json_text, leaves_report
from endslab.ends import profile_from_ball

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


def test_point_labels_match_point_label(balls):
    for ball in balls:
        assert point_labels(ball.points) == [point_label(p) for p in ball.points]
