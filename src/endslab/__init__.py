"""Finitely generated groups and their actions as computable objects.

Build finite balls of Cayley, Schreier and orbital graphs, estimate the
number of ends, and check at desk scale the constructions behind them:
three-segment paths on N x| H splits (Z^2 and the lamplighter), leaf
disconnection in imprimitive actions, and quotient Schreier-graph pairs.
"""

__version__ = "0.1.0"

from .groups import (
    Cyclic,
    CyclicInt,
    FamilyMismatchError,
    FreeAbelian,
    FreeGroup,
    Group,
    GroupError,
    IntVector,
    InvalidParameterError,
    ModVector,
    Perm,
    SymmetricGenSet,
    SymmetricGroup,
    Torus,
    make_gen_set,
    nonidentity_gens,
    point_label,
)
from .actions import (
    ActionError,
    CyclicDivisorQuotient,
    DiagonalLatticeQuotient,
    GeneratedSubgroup,
    IntModQuotient,
    PairPoint,
    PointedAction,
    SignQuotient,
    TrivialSubgroup,
    UnknownRuleActionError,
    UnsupportedSubgroupError,
    coset_action,
    rule_action,
    translation_action,
)
from .wreath import (
    WreathElement,
    WreathError,
    WreathGroup,
    head_projection_action,
    imprimitive_action,
    imprimitive_coset_action,
    lamplighter,
)
from .balls import (
    ArityMismatchError,
    BallError,
    BallOverflowError,
    CutResult,
    GraphBall,
    build_ball,
    delete_and_split,
    leaf_decomposition,
    pointed_labeled_isomorphic,
    simplify,
    to_dot,
    to_json_dict,
    to_json_text,
)
from .ends import (
    EndsError,
    EndsProfile,
    PathFailure,
    SemidirectSplit,
    ThreeSegmentPath,
    Verdict,
    coordinate_split,
    ends_profile,
    profile_from_ball,
    quotient_schreier_pair,
    three_segment_path,
    wreath_split,
)
from .dsl import ParseError, SpecAst, elaborate, parse_spec, print_spec
