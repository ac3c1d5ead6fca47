"""Seeded request lists for the four benchmark workloads.

Stdlib only: this module never imports endslab, so building a request
list costs nothing that the set-up time measures.  A request is a plain
dict, a kind plus its parameters; ``execute.py`` turns it into calls on
the endslab API or into a ``cli_main`` argument list.

Each API workload is a list of slots.  A slot lists alternatives of equal
cost (relabelled generating sets, other seeded pairs) and the seed picks
one per slot, so every seed does the same amount of work on different
inputs.  spec-mix instead samples a fixed quota from each family of a
catalog.  The union of all alternatives is the workload's catalog, and
``reference.json`` holds a reference digest for every request in it.

Closed forms that the checks compare against are computed here, from
the request parameters alone.
"""

from __future__ import annotations

import itertools
import json
import math
import random

WORKLOADS = ("free-tree", "plane-annulus", "wreath-coset", "spec-mix")

GROWTH = {
    "free-tree": "exponential (trees of F(2), F(3); four rays)",
    "plane-annulus": "polynomial (Z^2 quadratic, Z^3 cubic)",
    "wreath-coset": "exponential lamplighters plus finite Schreier graphs",
    "spec-mix": "mixed, every family and action kind, balls <= ~10^3",
}


def request_key(req: dict) -> str:
    """The canonical text of a request; it keys the reference digests."""
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# closed forms


def free_ball_size(rank: int, radius: int) -> int:
    """|B_R| of the Cayley graph of F(n) on a free basis."""
    return 1 + 2 * rank * ((2 * rank - 1) ** radius - 1) // (2 * rank - 2)


def free_sphere_size(rank: int, k: int) -> int:
    """|S_k| of the same tree; also e(k, K') for every K' > k."""
    return 2 * rank * (2 * rank - 1) ** (k - 1)


def lattice_ball_size(rank: int, radius: int) -> int:
    """|B_R(Z^k)| on a signed unit basis (2R^2+2R+1 for k = 2)."""
    return sum(2 ** i * math.comb(rank, i) * math.comb(radius, i)
               for i in range(rank + 1))


def _ends(spec: str, K: int, ks, **expect) -> dict:
    req = {"kind": "ends", "spec": spec, "K": K, "k": list(ks)}
    if expect:
        req["expect"] = expect
    return req


def _free_ends(rank: int, basis: str, K: int, ks) -> dict:
    ks = list(ks)
    rows = [[free_sphere_size(rank, k)] * (K - k) for k in ks]
    # GROWING needs three inner radii and two columns in every row
    verdict = ("GROWING" if len(ks) >= 3 and K - ks[-1] >= 2
               else f"AT_MOST({rows[-1][0]})")
    return _ends(f"F({rank}) with gens {basis}", K, ks,
                 vertices=free_ball_size(rank, K), edges=free_ball_size(rank, K) - 1,
                 matrix=rows, verdict=verdict)


def _lattice_ends(rank: int, basis: str, K: int, ks) -> dict:
    ks = list(ks)
    return _ends(f"Z^{rank} with gens {basis}", K, ks,
                 vertices=lattice_ball_size(rank, K),
                 matrix=[[1] * (K - k) for k in ks], verdict="STABLE(1)")


def _rule_ends(basis: str, K: int, ks) -> dict:
    ks = list(ks)
    return _ends(f"rule(f2_four_ends) with gens {basis}", K, ks,
                 vertices=4 * K + 1, matrix=[[4] * (K - k) for k in ks],
                 verdict="STABLE(4)")


# ---------------------------------------------------------------------------
# relabelled generating sets: images of a basis under signed permutations,
# so every variant spans the same graph up to relabelling and costs the same


def signed_letter_bases(rank: int) -> list[str]:
    out = []
    for perm in itertools.permutations("abc"[:rank]):
        for signs in itertools.product((False, True), repeat=rank):
            out.append("{" + ", ".join(c.upper() if s else c
                                       for c, s in zip(perm, signs)) + "}")
    return out


def signed_unit_bases(rank: int) -> list[str]:
    out = []
    for perm in itertools.permutations(range(rank)):
        for signs in itertools.product((1, -1), repeat=rank):
            vecs = []
            for axis, sign in zip(perm, signs):
                v = [0] * rank
                v[axis] = sign
                vecs.append("[" + ", ".join(map(str, v)) + "]")
            out.append("{" + ", ".join(vecs) + "}")
    return out


F2_BASES = signed_letter_bases(2)
F3_BASES = signed_letter_bases(3)
Z2_BASES = signed_unit_bases(2)
Z3_BASES = signed_unit_bases(3)


# ---------------------------------------------------------------------------
# free-tree


def _free_tree_slots() -> list[list[list[dict]]]:
    slots = []
    # one spec at growing K: the repeats a ball cache or an incremental
    # ball would serve; F(2) K=10 (118,097 vertices) is the largest request
    slots.append([[_free_ends(2, b, K, range(1, 5)) for K in range(6, 11)]
                  for b in F2_BASES])
    slots.append([[_free_ends(3, b, K, range(1, 4)) for K in (4, 5, 6)]
                  for b in F3_BASES])
    for K, ks in ((8, range(1, 7)), (7, range(2, 6)), (7, range(1, 5)),
                  (7, range(3, 6)), (7, range(1, 4)), (7, range(2, 5)),
                  (7, range(3, 7)), (6, range(1, 6)), (6, range(2, 5)),
                  (6, range(1, 4)), (6, range(1, 5)), (6, range(2, 5)),
                  (6, range(3, 6))):
        slots.append([[_free_ends(2, b, K, ks)] for b in F2_BASES])
    for K, ks in ((5, range(1, 4)), (5, range(2, 5)), (5, range(1, 5)),
                  (5, range(2, 4)), (4, range(1, 4)), (4, range(1, 3))):
        slots.append([[_free_ends(3, b, K, ks)] for b in F3_BASES])
    for K in (200, 210, 220, 230, 240, 250, 260, 270, 280, 290, 300, 310, 320, 330,
              340):
        slots.append([[_rule_ends(b, K, range(1, 5))] for b in F2_BASES])
    return slots


# ---------------------------------------------------------------------------
# plane-annulus

PATH_RADIUS = 40
PATH_CUTS = (4, 6, 8)
PATH_POOL = 100  # catalog pairs per cut radius
PATHS_PER_CUT = 20


def path_pairs(cut_radius: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Catalog pairs of Z^2 points for three-segment paths.

    Each endpoint's H-line (the column {a} x Z) misses the cut ball and
    the point lies within a margin of the radius-40 ball, the
    precondition ``endslab verify three-segment-path`` samples under.
    """
    margin = PATH_RADIUS - cut_radius - 2
    survivors = [(a, b) for a in range(-margin, margin + 1)
                 for b in range(-margin, margin + 1)
                 if abs(a) + abs(b) <= margin and abs(a) > cut_radius]
    rng = random.Random(f"path-pool-{cut_radius}")
    return [tuple(rng.sample(survivors, 2)) for _ in range(PATH_POOL)]


def _plane_annulus_slots() -> list[list[list[dict]]]:
    slots = []
    # fifteen requests build a ball, so the tail percentile (ten requests
    # beyond it) falls on a profile rather than on a path pair, and on one
    # of six K=40 profiles of equal cost rather than on a single request
    for K in (80, 70, 60, 50, 45):
        slots.append([[_lattice_ends(2, b, K, range(1, K // 3 + 1))]
                      for b in Z2_BASES])
    slots.append([[_lattice_ends(2, Z2_BASES[(j + i) % len(Z2_BASES)], 40, range(1, 14))
                   for i in range(6)] for j in range(len(Z2_BASES))])
    for K in (20, 16, 12):
        slots.append([[_lattice_ends(3, b, K, range(1, K // 3 + 1))]
                      for b in Z3_BASES])
    slots.append([[{"kind": "path_ball", "spec": "Z^2", "R": PATH_RADIUS,
                    "expect": {"vertices": lattice_ball_size(2, PATH_RADIUS)}}]])
    for c in PATH_CUTS:
        pool = path_pairs(c)
        for _ in range(PATHS_PER_CUT):
            slots.append([[{"kind": "path", "cut": c,
                            "x": list(x), "y": list(y)}] for x, y in pool])
    return slots


# ---------------------------------------------------------------------------
# wreath-coset

LAMPLIGHTER = "wreath(C(2), Z, {})"
TOP_WORDS = ("translation", "regular")  # the same action, two spellings


def _wreath_ball(spec_fmt: str, R: int, export: str, cut: int) -> list[list[dict]]:
    return [[{"kind": "ball", "spec": spec_fmt.format(w), "R": R,
              "export": export, "cut": cut}] for w in TOP_WORDS]


def _wreath_coset_slots() -> list[list[list[dict]]]:
    slots = []
    # Cayley balls of wreath products: act is the lamplighter multiply
    for R, export in ((14, "json"), (13, "dot"), (12, "json"), (11, "dot"),
                      (10, "json")):
        slots.append([alt for k in (2, 3, 4)
                      for alt in _wreath_ball(LAMPLIGHTER, R, export, cut=k)])
    for spec_fmt, R, export in (("wreath(C(3), Z, {})", 8, "dot"),
                                ("wreath(C(3), Z, {})", 7, "json"),
                                ("wreath(C(2), Z^2, {})", 6, "json"),
                                ("wreath(C(2), Z^2, {})", 5, "dot"),
                                ("wreath(Sym(3), Z, {})", 6, "dot"),
                                ("wreath(Sym(3), Z, {})", 5, "json")):
        slots.append([alt for k in (1, 2)
                      for alt in _wreath_ball(spec_fmt, R, export, cut=k)])
    # Schreier graphs of Sym(n) modulo generated subgroups: act is the
    # coset min-reduction over the subgroup's members
    for spec, R in (("Sym(8) / {(0 1 2 3 4 5 6 7)}", 8),
                    ("Sym(8) / {(0 1 2 3)(4 5 6 7)}", 7),
                    ("Sym(7) / {(0 1)(2 3), (0 2)(1 3)}", 9),
                    ("Sym(7) / {(0 1 2 3 4 5 6)}", 8)):
        slots.append([[_ends(spec, R, range(1, 3))]])
    for spec, R, export in (("Sym(7) / {(0 1 2)}", 8, "json"),
                            ("Sym(7) / {(0 1 2 3 4)}", 8, "dot")):
        slots.append([[{"kind": "ball", "spec": spec, "R": R,
                        "export": export, "cut": k}] for k in (1, 2)])
    # Z^2 modulo lattices: cylinders (two ends) and finite tori
    for K in (40, 30):
        slots.append([[_ends(f"Z^2 / [{d}, 0]", K, range(1, 9),
                             verdict="STABLE(2)")] for d in (5, 6, 7, 8)])
    for a, c in ((30, 30), (24, 36), (20, 40)):
        slots.append([[{"kind": "ball", "spec": f"Z^2 / [[{a}, {b}], [0, {c}]]",
                        "R": 40, "export": "json", "cut": 3}]
                      for b in (1, 2, 3, 5)])
    # imprimitive balls: leaf decomposition and one hub cut per leaf
    for spec, R in (("imprimitive(wreath(Sym(3), Z^2, {}))", 9),
                    ("imprimitive(wreath(Sym(3), Z^2, {}))", 7),
                    ("imprimitive(wreath(C(3), Z, {}))", 14),
                    ("imprimitive(wreath(C(5), Z, {}))", 12),
                    ("imprimitive(wreath(C(4), C(6), regular))", 12)):
        slots.append([[{"kind": "leaves", "spec": spec.format(w), "R": R}]
                      for w in TOP_WORDS])
    # head projection: the lamplighter acting on Z through its head
    for K in (120, 90, 60):
        slots.append([[{"kind": "head_ends", "spec": LAMPLIGHTER.format(w),
                        "K": K, "k": list(range(1, 11)),
                        "expect": {"vertices": 2 * K + 1, "verdict": "STABLE(2)"}}]
                      for w in TOP_WORDS])
    # quotient pairs: Sch(G, preimage(K)) against Sch(G/N, K), simplified;
    # the lattice's two orientations are the only alternatives of equal cost
    iso = {"isomorphic": True}
    slots.append([[{"kind": "quotient", "spec": "Z", "quotient": ["mod", 320],
                    "R": 161, "expect": iso}]])
    slots.append([[{"kind": "quotient", "spec": "Z^2", "quotient": ["diagonal", m],
                    "R": 30, "expect": iso}] for m in ([24, 30], [30, 24])])
    slots.append([[{"kind": "quotient", "spec": "C(720)", "quotient": ["divisor", 240],
                    "R": 400, "expect": iso}]])
    slots.append([[{"kind": "quotient", "spec": "Sym(7)", "quotient": ["sign"],
                    "R": 4, "expect": iso}]])
    return slots


# ---------------------------------------------------------------------------
# spec-mix: several hundred small cli_main requests

def _cli(argv: list[str], family: str) -> dict:
    # a verify check without --spec is identified by all of its arguments
    spec = argv[argv.index("--spec") + 1] if "--spec" in argv else " ".join(argv)
    return {"kind": "cli", "argv": argv, "spec": spec, "family": family}


def _ball_or_ends(spec: str, R: int, i: int, family: str, ends_ok=True) -> dict:
    """Rotate through the commands so each spec gets one of them."""
    choice = i % 3 if ends_ok and R >= 5 else i % 2
    if choice == 0:
        return _cli(["ball", "--spec", spec, "--radius", str(R)], family)
    if choice == 1:
        return _cli(["ball", "--spec", spec, "--radius", str(R), "--format", "dot"],
                    family)
    return _cli(["ends", "--spec", spec, "--k", f"1..{min(4, R - 1)}",
                 "--K", str(R)], family)


def spec_mix_families() -> dict[str, list[dict]]:
    fam: dict[str, list[dict]] = {}

    out = []
    i = 0
    for a in range(1, 10):
        for b in range(a + 1, 10):
            out.append(_ball_or_ends(f"Z with gens {{{a}, {b}}}", 240 // b, i, "Z"))
            i += 1
    for a in range(1, 13):
        out.append(_ball_or_ends(f"Z with gens {{{a}}}", 300, i, "Z"))
        i += 1
    fam["Z"] = out

    vecs2 = ["[1, 0]", "[0, 1]", "[1, 1]", "[1, -1]", "[2, 1]", "[1, 2]",
             "[2, -1]", "[-1, 2]"]
    vecs3 = ["[1, 0, 0]", "[0, 1, 0]", "[0, 0, 1]", "[1, 1, 0]", "[0, 1, 1]",
             "[1, 0, 1]", "[1, 1, 1]"]
    out = []
    for i, pair in enumerate(itertools.combinations(vecs2, 2)):
        out.append(_ball_or_ends("Z^2 with gens {" + ", ".join(pair) + "}", 14, i, "Zk"))
    for i, triple in enumerate(itertools.combinations(vecs2[:6], 3)):
        out.append(_ball_or_ends("Z^2 with gens {" + ", ".join(triple) + "}", 9, i,
                                 "Zk"))
    for i, triple in enumerate(itertools.combinations(vecs3, 3)):
        out.append(_ball_or_ends("Z^3 with gens {" + ", ".join(triple) + "}", 5, i,
                                 "Zk"))
    fam["Zk"] = out

    out = []
    for i, n in enumerate(range(40, 400, 9)):
        spec = f"C({n})" if i % 2 else f"C({n}) with gens {{{1 + i % 5}, {2 + i % 7}}}"
        out.append(_ball_or_ends(spec, n // 2, i, "C", ends_ok=False))
    fam["C"] = out

    words = ["a", "b", "A", "B", "ab", "ba", "aB", "Ab", "aab", "abb", "bab", "aba"]
    out = []
    for i, pair in enumerate(itertools.combinations(words, 2)):
        out.append(_ball_or_ends("F(2) with gens {" + ", ".join(pair) + "}", 4, i, "F",
                                 ends_ok=False))
    for i, triple in enumerate(itertools.combinations(["a", "b", "c", "ab", "bc"], 3)):
        out.append(_ball_or_ends("F(3) with gens {" + ", ".join(triple) + "}", 3, i, "F",
                                 ends_ok=False))
    fam["F"] = out

    cycles = {4: ["(0 1)", "(0 1 2 3)", "(1 2)", "(0 2)", "(0 1 2)", "(2 3)"],
              5: ["(0 1)", "(0 1 2 3 4)", "(1 2)", "(0 1 2)", "(3 4)", "(0 2 4)"],
              6: ["(0 1)", "(0 1 2 3 4 5)", "(0 1 2)", "(3 4 5)", "(2 3)"]}
    out = []
    i = 0
    for n, cyc in cycles.items():
        for pair in itertools.combinations(cyc, 2):
            out.append(_ball_or_ends(f"Sym({n}) with gens {{{', '.join(pair)}}}",
                                     8 if n == 6 else 12, i, "Sym", ends_ok=False))
            i += 1
    fam["Sym"] = out

    out = []
    i = 0
    for n in range(20, 400, 19):
        out.append(_ball_or_ends(f"Z / {n}", n // 2, i, "coset", ends_ok=False))
        i += 1
    for a, b, c in ((12, 1, 15), (10, 3, 20), (16, 5, 12), (9, 4, 25), (20, 7, 10),
                    (14, 2, 14), (8, 3, 30), (18, 11, 9)):
        out.append(_ball_or_ends(f"Z^2 / [[{a}, {b}], [0, {c}]]", 20, i, "coset",
                                 ends_ok=False))
        i += 1
    for d in range(3, 12):
        out.append(_ball_or_ends(f"Z^2 / [{d}, 0]", 24, i, "coset"))
        i += 1
    for n, d in ((60, 4), (90, 6), (120, 8), (84, 12), (200, 10), (150, 3)):
        out.append(_ball_or_ends(f"C({n}) / {d}", 40, i, "coset", ends_ok=False))
        i += 1
    for spec in ("Sym(5) / {(0 1)}", "Sym(5) / trivial", "Sym(6) / {(0 1 2)}",
                 "Sym(6) / {(0 1), (2 3)}", "Sym(6) / {(0 1 2 3 4 5)}",
                 "Sym(5) / {(0 1 2 3 4)}", "F(2) / trivial", "Z^2 / trivial"):
        out.append(_ball_or_ends(spec, 8 if spec.startswith("Sym(6)") else 5, i,
                                 "coset", ends_ok=False))
        i += 1
    fam["coset"] = out

    out = []
    i = 0
    for m, n in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3),
                 (5, 2), (5, 3), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2)):
        out.append(_ball_or_ends(f"wreath(C({m}), C({n}), regular)", 30, i, "wreath",
                                 ends_ok=False))
        i += 1
    for m, n, d in ((2, 6, 2), (2, 6, 3), (2, 8, 4), (3, 6, 2), (2, 9, 3), (3, 4, 2)):
        out.append(_ball_or_ends(f"wreath(C({m}), C({n}), coset({d}))", 20, i, "wreath",
                                 ends_ok=False))
        i += 1
    for spec, R in (("wreath(C(2), Z, translation)", 7), ("wreath(C(2), Z, regular)", 6),
                    ("wreath(C(3), Z, translation)", 5), ("wreath(C(3), Z, regular)", 4),
                    ("wreath(C(4), Z, translation)", 4), ("wreath(C(5), Z, translation)", 4),
                    ("wreath(C(2), Z^2, translation)", 4), ("wreath(C(2), Z^2, regular)", 3),
                    ("wreath(Sym(3), Z, translation)", 4), ("wreath(Sym(3), Z, regular)", 3),
                    ("wreath(C(2), Z, coset(3))", 5), ("wreath(C(2), Z, coset(4))", 5),
                    ("wreath(C(2), Z, coset(5))", 5), ("wreath(C(3), Z, coset(2))", 5),
                    ("wreath(C(3), Z, coset(3))", 4), ("wreath(C(2), Z, coset(trivial))", 6),
                    ("wreath(C(2), C(7), coset(trivial))", 8),
                    ("wreath(C(2), C(5), translation)", 12),
                    ("wreath(C(2), F(2), rule(f2_four_ends))", 4),
                    ("wreath(C(3), F(2), rule(f2_four_ends))", 3),
                    ("wreath(C(2), F(2), translation)", 3),
                    ("wreath(Sym(3), C(3), regular)", 10),
                    ("wreath(Sym(3), C(2), regular)", 12),
                    ("wreath(C(2), Sym(3), regular)", 12)):
        out.append(_ball_or_ends(spec, R, i, "wreath"))
        i += 1
    fam["wreath"] = out

    out = []
    impr = [(f"imprimitive(wreath(C({m}), C({n}), regular))", 10)
            for m, n in ((3, 2), (2, 5), (4, 3), (2, 4), (3, 3), (5, 2), (2, 6), (4, 4))]
    impr += [(f"imprimitive(wreath(C({m}), Z, translation))", 12) for m in (2, 3, 4, 5)]
    impr += [(f"imprimitive(wreath(C(2), Z, translation), {k})", 12) for k in (2, 3, 5)]
    impr += [("imprimitive(wreath(C(3), Z, regular), 4)", 10),
             ("imprimitive(wreath(Sym(3), Z, translation))", 10),
             ("imprimitive(wreath(Sym(3), Z, regular), 2)", 10),
             ("imprimitive(wreath(C(2), Z^2, translation))", 6),
             ("imprimitive(wreath(C(3), Z^2, translation))", 5),
             ("imprimitive(wreath(Sym(3), C(4), regular))", 10),
             ("imprimitive(wreath(C(2), Z, coset(6)))", 12),
             ("imprimitive(wreath(C(3), C(6), coset(2)))", 10),
             ("imprimitive(wreath(C(2), F(2), rule(f2_four_ends)))", 6),
             ("imprimitive(wreath(C(2), F(2), translation))", 4)]
    for i, (spec, R) in enumerate(impr):
        if i % 3 == 0:
            argv = ["leaves", "--spec", spec, "--radius", str(R)]
        elif i % 3 == 1:
            argv = ["ball", "--spec", spec, "--radius", str(R - 2)]
        else:
            argv = ["verify", "leaf-disconnect", "--spec", spec, "--radius", str(R - 1)]
        out.append(_cli(argv, "imprimitive"))
    fam["imprimitive"] = out

    words = ["a", "b", "A", "B", "ab", "ba", "aB", "bA", "aab"]
    out = []
    for i, pair in enumerate(itertools.combinations(words, 2)):
        out.append(_ball_or_ends("rule(f2_four_ends) with gens {" + ", ".join(pair) + "}",
                                 (60, 120, 180)[i % 3], i, "rule"))
    fam["rule"] = out

    out = [_cli(["verify", "complete-graph"], "verify")]
    for n in range(2, 26):
        out.append(_cli(["verify", "quotient", "--modulus", str(n),
                         "--radius", str(2 + n % 5)], "verify"))
    for c, seed in itertools.product((1, 2, 3), range(6)):
        out.append(_cli(["verify", "three-segment-path", "--radius", "10",
                         "--cut-radius", str(c), "--pairs", "4", "--seed", str(seed)],
                        "verify"))
    fam["verify"] = out
    return fam


# requests per pass drawn from each family; they add up to SPEC_MIX_VALID
SPEC_MIX_QUOTA = {"Z": 30, "Zk": 30, "C": 25, "F": 30, "Sym": 25, "coset": 35,
                  "wreath": 30, "imprimitive": 25, "rule": 20, "verify": 35}
SPEC_MIX_VALID = sum(SPEC_MIX_QUOTA.values())


def malformed_families() -> dict[str, list[dict]]:
    """Requests that must be refused with a one-line message and exit code 2.

    The parse errors are refused that way today.  The out-of-range
    arguments (k >= K, a negative radius, a non-numeric k range and a zero
    budget) are not yet: they escape as tracebacks or exit 1.
    """
    def bad(argv, kind):
        req = _cli(argv, "malformed")
        req["malformed"] = kind
        return req

    fam = {"parse": [bad(["ball", "--spec", s, "--radius", "3"], "parse") for s in (
        "Z^", "C(0)", "F(2", "Sym(3) /", "wreath(C(2), Z)", "Z with gens {",
        "Q(3)", "Z^2 / [1, 2", "rule()", "F(2) with gens {a b}", "C(3) with {1}",
        "imprimitive(Z", "wreath(C(2), Z, shift)", "Z^2 with gens {[1, 0], [0, ]}")]}
    fam["k_ge_K"] = [bad(["ends", "--spec", s, "--k", f"1..{K + d}", "--K", str(K)],
                         "k_ge_K")
                     for s, K, d in (("Z", 5, 0), ("Z", 4, 3), ("Z^2", 3, 1),
                                     ("F(2)", 2, 0), ("C(6)", 6, 2))]
    fam["negative_radius"] = [bad([cmd, "--spec", s, "--radius", r], "negative_radius")
                              for cmd, s, r in (("ball", "Z", "-1"), ("ball", "Z^2", "-1"),
                                                ("ball", "C(5)", "-3"),
                                                ("leaves", "wreath(C(3), C(2), regular)",
                                                 "-1"))]
    fam["k_range_text"] = [bad(["ends", "--spec", s, "--k", k, "--K", "6"], "k_range_text")
                           for s, k in (("Z", "a..b"), ("Z^2", "1..x"), ("F(2)", "one"),
                                        ("C(4)", "1,,2"))]
    fam["zero_budget"] = [bad(argv, "zero_budget") for argv in (
        ["ball", "--spec", "Z", "--radius", "3", "--budget", "0"],
        ["ends", "--spec", "Z", "--k", "1..2", "--K", "4", "--budget", "0"],
        ["ball", "--spec", "F(2)", "--radius", "2", "--budget", "0"],
        ["leaves", "--spec", "wreath(C(3), C(2), regular)", "--radius", "2",
         "--budget", "0"])]
    return fam


MALFORMED_QUOTA = {"parse": 7, "k_ge_K": 2, "negative_radius": 2,
                   "k_range_text": 2, "zero_budget": 2}


# ---------------------------------------------------------------------------
# building request lists


SLOTS = {
    "free-tree": _free_tree_slots,
    "plane-annulus": _plane_annulus_slots,
    "wreath-coset": _wreath_coset_slots,
}


def pass_plan(workload: str, seed: int) -> tuple[list[dict], list[list[int]]]:
    """The fixed request list of a workload for a seed, and its units.

    A unit is a run of requests that always executes in order (the F(2)
    spec at growing K); passes shuffle the units, so that a burst of
    load on the shared machine hits different requests in each pass.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spec-mix":
        picked = []
        for name, entries in spec_mix_families().items():
            picked += rng.sample(entries, SPEC_MIX_QUOTA[name])
        for name, entries in malformed_families().items():
            picked += rng.sample(entries, MALFORMED_QUOTA[name])
        rng.shuffle(picked)
        return picked, [[i] for i in range(len(picked))]
    if workload not in SLOTS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    requests, units = [], []
    for slot in SLOTS[workload]():
        alt = rng.choice(slot)
        units.append(list(range(len(requests), len(requests) + len(alt))))
        requests += alt
    return requests, units


def requests_for(workload: str, seed: int) -> list[dict]:
    return pass_plan(workload, seed)[0]


def pass_order(workload: str, seed: int, pass_index: int) -> list[int]:
    """Request indices in the order one pass runs them.

    The ball that path requests share is built first.
    """
    requests, units = pass_plan(workload, seed)
    random.Random(f"{workload}:{seed}:pass{pass_index}").shuffle(units)
    units.sort(key=lambda unit: requests[unit[0]]["kind"] != "path_ball")
    return [i for unit in units for i in unit]


def catalog(workload: str) -> list[dict]:
    """Every request any seed can put in a workload's list (malformed ones too)."""
    if workload == "spec-mix":
        fams = list(spec_mix_families().values()) + list(malformed_families().values())
        return [req for entries in fams for req in entries]
    seen: dict[str, dict] = {}
    for slot in SLOTS[workload]():
        for alt in slot:
            for req in alt:
                seen.setdefault(request_key(req), req)
    return list(seen.values())
