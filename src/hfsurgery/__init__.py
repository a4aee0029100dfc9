"""Surgery ranks for bifiltered knot Floer complexes over GF(2).

Given a finitely generated reduced bifiltered complex (with an optional
filtration-swapping flip involution), this package extracts the finite
hat-flavor regions, builds the truncated surgery mapping cone for any
positive slope p/q, computes its total homology rank by two independent
routes, evaluates the closed-form rank expression, and runs the rank
obstructions to cosmetic surgeries and to surgeries returning the
original manifold.
"""

from .cfk import (
    CfkComplex,
    DiffTerm,
    FilteredChainMap,
    FlipPair,
    FlipRequiredError,
    Generator,
    HatA,
    HatB,
    RegionComplex,
    UnknownRegionError,
    ValidationIssue,
    ValidationReport,
)
from .f2 import (
    DimensionError,
    F2Matrix,
    HomologyBasis,
    InvalidComplexError,
    NotAChainMapError,
    induced_map_on_homology,
    kernel_basis,
    rank,
)
from .knots import (
    BUILTIN_NAMES,
    RandomSpec,
    UnknownBuiltinError,
    builtin,
    mirror,
    random_complex,
    staircase,
    tensor,
)
from .obstructions import (
    CONSISTENT,
    NOT_APPLICABLE,
    OBSTRUCTED,
    ObstructionVerdict,
    complement_check,
    cosmetic_pair_check,
    detect_unknot,
    hypothesis_check,
    monotonicity_scan,
)
from .surgery import (
    FormulaNotApplicableError,
    HypothesisReport,
    MappingCone,
    NotApplicableError,
    RankReport,
    Slope,
    SlopeError,
    compute_rank_report,
    cone_rank_chain,
    cone_rank_homological,
    coprime_slopes,
    hypothesis_holds,
    kernel_rank,
    nu_surrogate,
    rank_formula,
    t_invariant,
)

__version__ = "0.1.0"
