"""Exact-arithmetic embedding obstruction certificates for Brieskorn homology spheres.

The pipeline: multiplicities -> Seifert invariants -> negative-definite
star-shaped plumbing -> lattice computations (diagonalizability, sharp
pairing, correction term) -> twist/slope arithmetic -> verdict.
"""

from .errors import (
    DivisionByZero,
    EnumerationCapExceeded,
    InvalidParameter,
    InvalidRange,
    MultiplicityTooSmall,
    NotCoprime,
    NotDiagonalizable,
    RankTooLarge,
    SeifertGateError,
    SingularMatrix,
    TooFewFibers,
)
from .families import (
    SmallSeifertData,
    TransverseWitness,
    mp_family,
    mpl_family,
    theta_invariant,
    transverse_contact_exists,
)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    DiagonalizationCertificate,
    DualClass,
    d_invariant,
    diagonalize,
    dual_class,
    max_sharp_pairing,
    norm_minus_one_vectors,
)
from .obstruction import (
    ObstructionReport,
    TauBounds,
    TwistBound,
    TwistCertificate,
    Verdict,
    balanced_twists,
    ceil_sqrt,
    cut_and_round_slope,
    fiber_boundary_slope,
    tau_gap_lower,
    twist_lower_bound,
    verdict,
    verify_twist_chain,
)
from .plumbing import (
    IntersectionForm,
    NegContinuedFraction,
    PlumbingGraph,
    build_plumbing,
    intersection_form,
    inverse_first_column,
    neg_cf,
)
from .seifert import (
    GluingData,
    Multiplicities,
    NormalizedPresentation,
    SeifertPresentation,
    gluing_data,
    h1_order,
    normalize,
    solve_unnormalized,
    validate_multiplicities,
)

__version__ = "0.1.0"
