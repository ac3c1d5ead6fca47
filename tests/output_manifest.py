"""The byte-identical output manifest: one SHA-256 per output kind.

The ball kinds hash the 108 balls of ``random_fixture_balls() +
generated_spec_balls() + stepping_balls()``: indented JSON, DOT, the
transition table, ``dist``, witness labels, the ends profile over
k = 0..R-1, and, for imprimitive balls, the leaf decomposition.  The CLI
kinds hash the exit code, stdout and stderr of ``endslab ball --spec S
--radius 2`` over 3,000 seed-11 ``random_spec`` draws, most of which
elaboration refuses, and the ``cli.typed`` kinds the same over 600
seed-12 ``random_typed_spec`` draws, whose items belong to their groups.
The ``cli.ends`` kinds run ``endslab ends --k 0..1 --K 3`` on those 600
typed draws, and the ``cli.leaves`` kinds ``endslab leaves --radius 3``
on their wreath draws, so all three JSON reports are pinned.
A change that alters any output changes the manifest, and says which
outputs and why.

Regenerate with ``PYTHONPATH=src python tests/output_manifest.py``.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from endslab.actions import PairPoint, point_label
from endslab.balls import leaf_decomposition, to_dot, to_json_dict
from endslab.cli import cli_main
from endslab.dsl import print_spec
from endslab.ends import profile_from_ball

from test_balls import generated_spec_balls, random_fixture_balls, stepping_balls
from test_dsl import random_spec, random_typed_spec

MANIFEST = Path(__file__).with_name("output_manifest.json")
CLI_DRAWS = 3000
TYPED_DRAWS = 600


def _sha256(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _leaves(ball):
    if not isinstance(ball.points[0], PairPoint):
        return None
    return [[point_label(leaf), vs] for leaf, vs in leaf_decomposition(ball).items()]


BALL_KINDS = {
    "json": lambda ball: json.dumps(to_json_dict(ball), indent=2),
    "dot": to_dot,
    "table": lambda ball: json.dumps(ball.table),
    "dist": lambda ball: json.dumps(ball.dist),
    "witness_labels": lambda ball: json.dumps(
        [ball.action.group.label(w, {}) for w in ball.witness]),
    "profile": lambda ball: json.dumps(
        profile_from_ball(ball, range(ball.radius)).to_json_dict()),
    "leaves": lambda ball: json.dumps(_leaves(ball)),
}


def manifest_balls():
    return [*random_fixture_balls(), *generated_spec_balls(), *stepping_balls()]


def draw_specs(draw, seed, draws):
    rng = random.Random(seed)
    return [draw(rng) for _ in range(draws)]


def cli_outputs(argvs):
    """(exit code, stdout, stderr) of ``cli_main`` on each argument list;
    an argument list drawn again reuses its first run."""
    runs = {}
    outputs = []
    for argv in argvs:
        key = tuple(argv)
        if key not in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
            runs[key] = (code, out.getvalue(), err.getvalue())
        outputs.append(runs[key])
    return outputs


def cli_corpora() -> dict:
    """The argument lists of each CLI corpus, by manifest prefix."""
    typed = draw_specs(random_typed_spec, 12, TYPED_DRAWS)

    def ball(specs):
        return [["ball", "--spec", print_spec(s), "--radius", "2"] for s in specs]

    return {
        "cli": ball(draw_specs(random_spec, 11, CLI_DRAWS)),
        "cli.typed": ball(typed),
        "cli.ends": [["ends", "--spec", print_spec(s), "--k", "0..1", "--K", "3"]
                     for s in typed],
        "cli.leaves": [["leaves", "--spec", print_spec(s), "--radius", "3"]
                       for s in typed if s.group is not None and s.group.kind == "wreath"],
    }


def compute_manifest(balls) -> dict:
    manifest = {"balls": len(balls)}
    for kind, render in BALL_KINDS.items():
        manifest[f"ball.{kind}"] = _sha256(map(render, balls))
    for prefix, argvs in cli_corpora().items():
        outputs = cli_outputs(argvs)
        manifest[f"{prefix}_draws"] = len(outputs)
        manifest[f"{prefix}.exit"] = _sha256(str(code) for code, _, _ in outputs)
        manifest[f"{prefix}.stdout"] = _sha256(out for _, out, _ in outputs)
        manifest[f"{prefix}.stderr"] = _sha256(err for _, _, err in outputs)
    return manifest


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(compute_manifest(manifest_balls()), indent=2) + "\n")
    sys.stdout.write(f"wrote {MANIFEST}\n")
