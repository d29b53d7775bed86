"""Exact-arithmetic decision procedures for ribbon rational homology
cobordisms between connected sums of lens spaces, with an integer-lattice
toolkit and a brute-force embedding oracle for independent cross-validation."""

from .arith import (
    CF,
    FnWitness,
    LensSpace,
    cf_evaluate,
    cf_expand,
    d_invariant,
    fn_membership,
    h1_order,
    lens_homeomorphic,
    lens_normalize,
    square_ratio_check,
)
from .classify import (
    ConnectedSum,
    PairType,
    TwoBridgeLink,
    Verdict,
    chi_leq_bridge,
    replay_witness,
    ribbon_leq_lens,
    ribbon_leq_sum,
    two_summand_ball,
)
from .lattice import (
    enumerate_short_vectors,
    integer_kernel,
    saturation_index,
)
from .search import (
    Certificate,
    EmbeddingCache,
    RMembershipResult,
    SearchBudget,
    SearchOutcome,
    SearchProblem,
    find_embedding,
    find_ribbon_embedding,
    plain_problem,
    r_membership,
    ribbon_problem,
    verify_certificate,
)
from .subsets import (
    BadComponent,
    bad_component_complement,
    components,
    contract,
    core_triple,
    detect_bad_components,
    is_linear_subset,
    linear_subset,
    two_final_expansions,
)

__version__ = "0.1.0"
