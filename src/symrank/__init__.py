"""Symmetric multiplication algorithms for finite field extensions and the
uniform upper-bound machinery for their symmetric tensor rank."""

from .bounds import (
    BoundReport,
    InfeasiblePipelineError,
    asymptotic_coefficient,
    closed_form_prime,
    closed_form_quadratic,
    compare_all,
    constructive_bound,
    envelope,
    epsilon,
    prior_bound,
)
from .curves import CurveFamilyData, Gamma0Data, check_rr_hypothesis, family_data, genus_X0
from .fields import (
    ExtensionField,
    FieldElement,
    Matrix,
    PrimeField,
    SingularMatrixError,
    count_places_rational_ff,
    find_irreducible,
    invert,
    make_field,
    solve_linear,
)
from .multiplier import (
    BilinearAlgorithm,
    EvalPlan,
    InfeasiblePlanError,
    VerificationError,
    VerificationReport,
    build_algorithm,
    emit_tensor,
    multiply,
    parse_tensor,
    plan_evaluation,
    verify,
)
from .primes import (
    GapPolicy,
    PairFamily,
    PairSelectionError,
    PrimePair,
    policy_floor,
    select_pair,
    sieve,
    verify_gaps,
)

__version__ = "0.1.0"
