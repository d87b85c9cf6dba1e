"""Sampled verification and falsification for differential inclusions.

Safety here means no solution of x' in F(x) started in the initial set
reaches the unsafe set.  The package checks barrier-function conditions for
plain, perturbed, and argument-perturbed dynamics on grid collars, builds
factored continuity moduli for set-valued maps, synthesizes largest
admissible perturbation margins, and searches for concrete escape
trajectories.  Everything is sampling-based: "pass" verdicts hold at the
sampled points and stated tolerances, and failures come with witnesses.
"""

__version__ = "0.1.0"

from .convexset import (
    ConvexCompactSet,
    DimensionMismatchError,
    contains,
    hausdorff,
    hull_union,
    hull_union_many,
    minkowski_sum,
    unit_directions,
)
from .svmap import (
    NoMatchingPieceError,
    PerturbedSystem,
    Piece,
    SetValuedMap,
    affine_piece,
    constant_piece,
    polynomial_piece,
    unit_ball_lattice,
)
from .barrier import (
    BarrierCandidate,
    BoundaryCell,
    BoundaryGrid,
    EmptyBoundaryError,
    SafetyScenario,
    SingularPointError,
    Tolerances,
    UnsupportedSmoothnessError,
    boundary_extract,
    candidate_check,
    clarke_gradient,
)
from .reports import FAIL, INCONCLUSIVE, PASS, CheckReport
from .checker import (
    DegenerateGradientError,
    MarginSynthesis,
    PreconditionError,
    check_clarke,
    check_nominal,
    check_robust_strict,
    check_uniform_unweighted,
    check_uniform_weighted,
    synthesize_margin,
)
from .modulus import (
    ModulusPair,
    ModulusReport,
    TabulatedFn,
    build_modulus,
    local_gap,
    verify_modulus,
)
from .flow import (
    FalsificationResult,
    FalsifyBudget,
    Hint,
    InfeasibleSelectionError,
    SelectionPolicy,
    Trajectory,
    b_ascent,
    constant_policy,
    custom_policy,
    expression_policy,
    falsify,
    integrate,
    random_extreme,
    reach_interval_1d,
)
from . import scenarios
from .expressions import ExpressionError

__all__ = [name for name in dir() if not name.startswith("_")]
