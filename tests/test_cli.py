import argparse
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import endslab
from endslab.actions import SUPPORTED_SUBGROUPS, PairPoint
from endslab.balls import DEFAULT_VERTEX_BUDGET, leaf_decomposition
from endslab.cli import _leaf_ball, cli_main, json_text, parse_k_values
from endslab.dsl import print_spec

from test_dsl import random_spec


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_k_values():
    assert list(parse_k_values("1..4")) == [1, 2, 3, 4]
    assert parse_k_values("1,2,5") == [1, 2, 5]


def test_ends_subcommand_json(capsys):
    code, out, err = run(capsys, "ends", "--spec", "Z", "--k", "1..4", "--K", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "STABLE(2)"
    assert payload["k_values"] == [1, 2, 3, 4]
    assert payload["K"] == 12
    assert all(x == 2 for row in payload["matrix"] for x in row)
    assert set(payload) == {"k_values", "K", "matrix", "verdict", "budget",
                            "truncated"}


def test_ends_deterministic_output(capsys):
    _, out1, _ = run(capsys, "ends", "--spec", "wreath(C(2), Z, translation)",
                     "--k", "1..2", "--K", "4")
    _, out2, _ = run(capsys, "ends", "--spec", "wreath(C(2), Z, translation)",
                     "--k", "1..2", "--K", "4")
    assert out1 == out2


def test_ball_json_and_dot(capsys, tmp_path):
    code, out, _ = run(capsys, "ball", "--spec", "C(4)", "--radius", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"][payload["basepoint"]] == "0"
    assert len(payload["vertices"]) == 4

    target = tmp_path / "ball.dot"
    code, out, _ = run(capsys, "ball", "--spec", "C(4)", "--radius", "2",
                       "--format", "dot", "-o", str(target))
    assert code == 0
    assert target.read_text().startswith("graph ball {")


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_ball_output_file_holds_stdout(capsys, tmp_path, fmt):
    argv = ["ball", "--spec", "wreath(C(2), Z, translation)", "--radius", "3",
            "--format", fmt]
    code, out, _ = run(capsys, *argv)
    target = tmp_path / f"ball.{fmt}"
    assert run(capsys, *argv, "--output", str(target)) == (0, "", "")
    assert code == 0 and target.read_bytes() == out.encode()


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "ball", "--spec", "Z^", "--radius", "3")
    assert code == 2
    assert "column 3" in err


def test_elaboration_error_exit_code(capsys):
    code, _, err = run(capsys, "ends", "--spec", "F(2) / 3", "--k", "1..2",
                       "--K", "4")
    assert code == 2
    assert "endslab" in err


def test_usage_error_exit_code(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_leaves_report(capsys):
    code, out, _ = run(capsys, "leaves", "--spec",
                       "wreath(C(3), C(2), regular)", "--radius", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["leaf_count"] == 3
    assert all(leaf["size"] == 2 for leaf in payload["leaves"])
    assert payload["cross_leaf_edges"] == 3


def test_verify_checks_pass(capsys):
    for argv in (["verify", "quotient"],
                 ["verify", "quotient", "--modulus", "6"],
                 ["verify", "leaf-disconnect", "--spec",
                  "wreath(C(3), C(2), regular)"],
                 ["verify", "leaf-disconnect", "--spec",
                  "wreath(C(2), Z, translation)"],
                 ["verify", "three-segment-path"],
                 ["verify", "complete-graph"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert "PASS" in out and "FAIL" not in out


def test_verify_failure_exit_code(capsys):
    # an impossible quotient radius still passes; force failure via a spec
    # whose leaves cannot be checked: a non-wreath spec errors out instead
    code, _, err = run(capsys, "verify", "leaf-disconnect", "--spec", "Z")
    assert code == 2


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "f2_four_ends" in out


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ENDSLAB_BUDGET", "10")
    code, _, err = run(capsys, "ball", "--spec", "F(2)", "--radius", "5")
    assert code == 1
    assert "exceeded 10 vertices" in err
    # an explicit flag wins over the environment
    code, out, _ = run(capsys, "ball", "--spec", "F(2)", "--radius", "2",
                       "--budget", "100")
    assert code == 0


def test_sym9_coset_ball_never_walks_the_subgroup(capsys):
    # K is all of Sym(9): its coset law reads the two generators, so a
    # radius-0 ball takes milliseconds where listing the 362,880 members of K
    # took seconds
    t0 = time.perf_counter()
    code, out, err = run(capsys, "ball", "--spec", "Sym(9) / {(0 1), (0 1 2 3 4 5 6 7 8)}",
                         "--radius", "0", "--budget", "1")
    elapsed = time.perf_counter() - t0
    assert (code, err) == (0, "")
    assert out == json.dumps({"radius": 0, "basepoint": 0,
                              "generators": [f"({i} {i + 1})" for i in range(8)],
                              "pairing": list(range(8)), "vertices": ["()"], "dist": [0],
                              "edges": [[0, 0, i] for i in range(8)]}, indent=2) + "\n"
    assert elapsed < 2.0, elapsed


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


# argv, environment, expected exit code: every refusal is one line on stderr
ERROR_CASES = [
    (["ends", "--spec", "Z", "--k", "1..20", "--K", "5"], {}, 2),
    (["ends", "--spec", "Z", "--k", "4", "--K", "4"], {}, 2),
    (["ball", "--spec", "Z", "--radius", "-1"], {}, 2),
    (["leaves", "--spec", "wreath(C(3), C(2), regular)", "--radius", "-1"], {}, 2),
    (["ends", "--spec", "Z", "--k", "a..b", "--K", "6"], {}, 2),
    (["ends", "--spec", "Z", "--k", "1,,2", "--K", "6"], {}, 2),
    (["ends", "--spec", "Z", "--k", "3..1", "--K", "6"], {}, 2),
    # a range is checked by its endpoints; listing it would fail to allocate
    (["ends", "--spec", "Z", "--k", "0..1000000000000000", "--K", "5"], {}, 2),
    (["ball", "--spec", "Z", "--radius", "3", "--budget", "0"], {}, 2),
    (["ball", "--spec", "Z", "--radius", "3", "--budget", "-3"], {}, 2),
    (["ball", "--spec", "Z", "--radius", "3"], {"ENDSLAB_BUDGET": "abc"}, 2),
    (["ball", "--spec", "Z", "--radius", "3"], {"ENDSLAB_BUDGET": "0"}, 2),
    (["leaves", "--spec", "Z", "--radius", "2"], {}, 2),
    (["ball", "--spec", "Z"], {}, 2),
    (["ball", "--spec", "Z^²", "--radius", "1"], {}, 2),
    (["ball", "--spec", "F(2)", "--radius", "5", "--budget", "10"], {}, 1),
    (["verify", "quotient", "--budget", "1"], {}, 1),
    (["verify", "complete-graph", "--budget", "1"], {}, 1),
    (["verify", "quotient"], {"ENDSLAB_BUDGET": "1"}, 1),
    (["verify", "quotient", "--modulus", "0"], {}, 2),
    (["verify", "three-segment-path", "--cut-radius", "20"], {}, 2),
    (["verify", "three-segment-path", "--cut-radius", "-3"], {}, 2),
    (["verify", "three-segment-path", "--pairs", "-1"], {}, 2),
    # each check takes only the options it reads
    (["verify", "quotient", "--spec", "Z^2"], {}, 2),
    (["verify", "complete-graph", "--radius", "0"], {}, 2),
    (["verify", "three-segment-path", "--spec", "F(2)"], {}, 2),
    (["verify", "quotient", "--pairs", "3"], {}, 2),
    (["verify", "leaf-disconnect", "--modulus", "7"], {}, 2),
    (["ball", "--spec", "Z", "--radius", "1", "--output", "/dev/null/x"], {}, 2),
    (["ball", "--spec", "wreath(C(5), wreath(Z^2, Z, translation), translation)",
      "--radius", "2"], {}, 2),
    (["ball", "--spec", "wreath(wreath(C(2), Z, translation), Z, translation)",
      "--radius", "2"], {}, 2),
    (["ball", "--spec", "rule(nope)", "--radius", "2"], {}, 2),
    (["ball", "--spec", "wreath(C(2), Z, rule(f2_four_ends))", "--radius", "2"], {}, 2),
    (["ball", "--spec", "wreath(" * 5000 + "Z", "--radius", "2"], {}, 2),
    # listing this range fails to allocate at once
    (["ends", "--spec", "C(3)", "--k", "0..1000000000000000",
      "--K", "1000000000000001"], {}, 1),
]
# the one stderr line of spec errors that the library, not the spec
# language, refuses; each is also an exit-2 row of ERROR_CASES
SPEC_ERROR_LINES = {
    "F(27)": "free group rank must lie in 1..26, got 27",
    "C(3) / [1]": "vector generator [1] needs Z^1, not C(3)",
    "F(2) / {a}": f"GeneratedSubgroup requires Z^k or a finite group; supported cases: "
                  f"{SUPPORTED_SUBGROUPS}",
    "Z^2 / 3": "integer generator 3 needs Z or C(m), not Z^2",
    "wreath(C(2), Z, translation) with gens {1}":
        "integer generator 1 needs Z or C(m), not C(2) wr Z",
    "Z^2 / [0, 0, 0]": "vector generator [0, 0, 0] needs Z^3, not Z^2",
    "Z^2 / [[1, 0], [0, 0, 0]]": "vector generator [0, 0, 0] needs Z^3, not Z^2",
    "Z^2 / [1]": "vector generator [1] needs Z^1, not Z^2",
}
ERROR_CASES += [(["ball", "--spec", spec, "--radius", "2"], {}, 2) for spec in SPEC_ERROR_LINES]


def _case_id(argv, env):
    args = [a if len(a) <= 80 else f"{a[:20]}...({len(a)} characters)" for a in argv]
    return " ".join(args) + "".join(f" {k}={v}" for k, v in env.items())


@pytest.mark.parametrize("argv, env, expected", ERROR_CASES,
                         ids=[_case_id(argv, env) for argv, env, _ in ERROR_CASES])
def test_error_exit_codes(capsys, monkeypatch, argv, env, expected):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("endslab: ")


@pytest.mark.parametrize("spec, line", SPEC_ERROR_LINES.items(), ids=list(SPEC_ERROR_LINES))
def test_spec_error_lines(capsys, spec, line):
    assert run(capsys, "ball", "--spec", spec, "--radius", "2") == (2, "", f"endslab: {line}\n")


def module_env():
    """Environment in which ``python -m endslab.cli`` imports this checkout."""
    src = str(Path(endslab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_exit_code():
    # main() passes cli_main's code to sys.exit in a fresh interpreter
    proc = subprocess.run([sys.executable, "-m", "endslab.cli", "ball", "--spec", "Z",
                           "--radius", "-1"],
                          capture_output=True, text=True, env=module_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_closed_stdout_is_not_a_traceback():
    # the R=7 DOT export is larger than a pipe buffer, so the writer is
    # still printing when the reader closes its end
    proc = subprocess.Popen([sys.executable, "-m", "endslab.cli", "ball", "--spec",
                             "F(2)", "--radius", "7", "--format", "dot"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=module_env())
    try:
        assert proc.stdout.readline() == b"graph ball {\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert "Traceback" not in err.decode()
    assert err == b""


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1]
    code = example.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=module_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["GROWING", "(4, 12, 36, 108)", "4"]


def readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("endslab ")]


def test_readme_cli_examples_run(capsys):
    examples = readme_cli_examples()
    assert len(examples) == 10
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out, argv


def test_repeated_calls_match_fresh_processes(capsys):
    # cli_main reuses one parser, so nothing a call sets may reach the next
    for argv in (["verify", "quotient"],
                 ["ball", "--spec", "Z", "--radius", "-1"],
                 ["ends", "--spec", "Z", "--k", "1..3", "--K", "9"],
                 ["verify", "complete-graph"]):
        in_process = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "endslab.cli", *argv],
                              capture_output=True, text=True, env=module_env(),
                              timeout=60)
        assert in_process == (proc.returncode, proc.stdout, proc.stderr), argv


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_modules(monkeypatch):
    """The bench's request catalog, executor and digest modules; the bench
    is only read."""
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import execute
    import workloads
    return checks, execute, workloads


def _digest_mismatches(monkeypatch, workload, keep):
    """Keys of the catalog requests that ``keep`` selects whose output
    digest differs from the workload's pinned reference."""
    checks, execute, workloads = _bench_modules(monkeypatch)
    reference = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    requests = {workloads.request_key(req): req for req in workloads.catalog(workload)
                if keep(req)}
    specs = execute.prepare(list(requests.values()))
    mismatched = [key for key, req in requests.items()
                  if checks.digest(req, execute.execute(req, specs, {})) != reference[key][0]]
    return requests, reference, mismatched


def test_spec_mix_catalog_matches_reference_digests(monkeypatch):
    # every valid request of the benchmark's spec-mix catalog against its
    # pinned output digest
    requests, reference, mismatched = _digest_mismatches(
        monkeypatch, "spec-mix", lambda req: not req.get("malformed"))
    assert set(requests) == set(reference)
    assert mismatched == []


def test_wreath_coset_lattice_and_quotient_requests_match_reference_digests(monkeypatch):
    # the lattice cosets and quotient pairs of the wreath-coset catalog: 12
    # lattice balls, 8 cylinder profiles and 5 quotient pairs
    requests, _, mismatched = _digest_mismatches(
        monkeypatch, "wreath-coset",
        lambda req: req["kind"] == "quotient" or " / [" in req["spec"])
    assert len(requests) == 25
    assert mismatched == []


def _names_a_small_wreath_ball(req):
    """A request that names a wreath product, unless it is a lamplighter
    Cayley ball of radius 12 or more."""
    spec = req.get("spec", "")
    lamplighter_ball = req["kind"] == "ball" and spec.startswith("wreath(C(2), Z, ")
    return "wreath(" in spec and not (lamplighter_ball and req["R"] >= 12)


def test_wreath_coset_wreath_requests_match_reference_digests(monkeypatch):
    # the wreath products of the wreath-coset catalog: 36 Cayley balls with
    # their JSON or DOT export, 9 leaf decompositions and 6 head projections
    requests, _, mismatched = _digest_mismatches(
        monkeypatch, "wreath-coset", _names_a_small_wreath_ball)
    assert len(requests) == 51
    assert mismatched == []


def test_every_leaf_hub_lies_in_its_ball(monkeypatch):
    # only a delta step at the top basepoint x0 changes the leaf, so
    # each leaf l of an imprimitive ball holds (l, x0) no farther out than
    # any of its other points: leaf-disconnect reads each hub from the ball
    _, _, workloads = _bench_modules(monkeypatch)
    leaf_requests = [req["argv"] for req in workloads.spec_mix_families()["imprimitive"]]
    assert len(leaf_requests) == 25
    for argv in leaf_requests:
        ball = _leaf_ball(argparse.Namespace(spec=argv[argv.index("--spec") + 1],
                                             radius=int(argv[argv.index("--radius") + 1]),
                                             budget=DEFAULT_VERTEX_BUDGET), "leaves")
        x0 = ball.action.group.top_action.basepoint
        for leaf, vs in leaf_decomposition(ball).items():
            hub = ball.index.get(PairPoint(leaf, x0))
            assert hub is not None, (argv, leaf)
            assert ball.dist[hub] <= min(ball.dist[v] for v in vs), (argv, leaf)


def test_bench_patch_points_resolve(monkeypatch):
    # the traced bench pass looks each patched name up with getattr, so an
    # import edit in cli.py or ends.py must keep every one of them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing

    found = tracing.originals()
    assert len(found) == 12
    assert all(callable(fn) for fn in found.values())


# the fuzz's spec edits insert or replace one of these characters: the
# spec language's own, and no quote, so a repr can only come from a message
EDIT_CHARACTERS = "()[]{},^/.-+ 0123456789abcxyzACFSZ"


def fuzzed_argv(rng):
    """A seeded argument list: an edited ``random_spec`` and a command with
    radii, budgets and check options that are now and then invalid or left
    out."""
    text = print_spec(random_spec(rng))
    for _ in range(rng.choice((0, 0, 1, 2))):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(EDIT_CHARACTERS) + text[i + (edit == 2):]

    def pick(flag, valid, invalid=("-1", "x", None)):
        value = rng.choice(valid if rng.random() < 0.85 else invalid)
        return [] if value is None else [flag, value]

    radius = ("0", "1", "2", "3")
    budget = ("1", "40", "5000", None, None, None)
    command = rng.choice(("ball", "ends", "leaves", "verify", "verify", "fixtures"))
    if command == "ball":
        return (["ball", "--spec", text, *pick("--radius", radius),
                 *pick("--format", ("json", "dot"), ("svg", None)), *pick("--budget", budget)])
    if command == "ends":
        return (["ends", "--spec", text,
                 *pick("--k", ("0..1", "1..3", "1,2"), ("3..1", "-1", "x", "", None)),
                 *pick("--K", ("2", "4")), *pick("--budget", budget)])
    if command == "leaves":
        return ["leaves", "--spec", text, *pick("--radius", radius), *pick("--budget", budget)]
    if command == "fixtures":
        return ["fixtures"]
    check = rng.choice(("quotient", "leaf-disconnect", "three-segment-path",
                        "complete-graph", "nope", None))
    options = {
        "quotient": [*pick("--radius", radius), *pick("--modulus", ("1", "3"), ("0", "x"))],
        "leaf-disconnect": ["--spec", text, *pick("--radius", radius)],
        "three-segment-path": [*pick("--radius", ("5", "7", None)),
                               *pick("--cut-radius", ("0", "1", None), ("2", "9", "-1")),
                               *pick("--pairs", ("0", "1", "3", None)),
                               *pick("--seed", ("0", "5"))],
    }.get(check, [])
    return ["verify", *([] if check is None else [check]), *options, *pick("--budget", budget)]


def test_cli_fuzz_reports_every_outcome_in_one_line(capsys):
    # every argument list ends in a documented exit code with at most one
    # stderr line, and each usage or spec error is one "endslab...:" line;
    # a traceback or a value's repr would reach the user here
    rng = random.Random(5)
    for _ in range(2000):
        argv = fuzzed_argv(rng)
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        lines = err.splitlines()
        assert len(lines) <= 1, (argv, err)
        if code == 2:
            assert len(lines) == 1 and re.match(r"endslab[^:]*: ", lines[0]), (argv, err)
        assert not re.search(r"(?<![\w'\"])b['\"]", err), (argv, err)  # a bytes repr


@pytest.mark.parametrize("value", [
    "", '"', "\\", "é", "\x00", "\u2028", " ", "a\nb\tc", "\U0001f600",
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[]]],
    True, False, None, 0, -7, 2**64 + 1, -(2**70),
    [True, 1], [1, True], [False, 0, None], [1, "1"], ["a", None],
    [1, 2, 3], ["x", "é", '"'], [[1, 2], [3]], {"k": [1, "two", [True, None]]},
    {"é": 1, "\x00": {"": [0]}, '"': None},
])
def test_json_text_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), [1, 2.0], [(1,)], {1: "a"}, {"a": {None: 1}}, {"a": [1, (2,)]},
])
def test_json_text_refuses_other_values(value):
    with pytest.raises(TypeError):
        json_text(value)
