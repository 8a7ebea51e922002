"""Exact Hilbert-Samuel multiplicities via Matlis duality.

The package computes e_R(J) for an m-primary ideal J of a Cohen-Macaulay
quotient R = K[[x_1..x_n]]/I by running the composition-series algorithm on
the inverse-system dual over a generic parameter field, producing an explicit
genericity certificate (PolyList / MatList), searching for reductions with
small integer coefficients, and deciding integral-closure membership by
multiplicity comparison.
"""

from .dual import (
    DualElement,
    Staircase,
    Terms,
    act,
    gamma_candidates,
    initial_staircase,
    leading,
    socle_candidates,
    span_of_terms,
)
from .errors import (
    CapExceeded,
    DenominatorVanishes,
    HsmultError,
    InternalInconsistency,
    NonUnitDenominator,
    NotStabilized,
    NotZeroDimensional,
    ParseError,
    RingMismatch,
    SearchExhausted,
    UnexpectedNullity,
    ZeroElement,
)
from .linalg import ExactMatrix, kernel, nonsingular_at, rank
from .matlis import DualBasisState, ResourceCaps, build_matrix, compute_dual_basis, step
from .modp import ModpStats, kernel_via_modp, specialize
from .orders import MonomialOrder
from .poly import SparsePoly, lift_poly, substitute_params
from .reduction import (
    MultiplicityResult,
    ProblemInstance,
    ReductionCertificate,
    certify,
    find_reduction,
    generic_generators,
    is_in_integral_closure,
    length_verified_certificate,
    membership,
    multiplicity,
    verify_reduction_by_length,
)
from .scalars import GF, QQ, FunctionField, RationalFunction
from .series import LinearCombination, PolySeries, RationalSeries, SeriesOracle, truncate

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "DenominatorVanishes",
    "DualBasisState",
    "DualElement",
    "ExactMatrix",
    "FunctionField",
    "GF",
    "HsmultError",
    "InternalInconsistency",
    "LinearCombination",
    "ModpStats",
    "MonomialOrder",
    "MultiplicityResult",
    "NonUnitDenominator",
    "NotStabilized",
    "NotZeroDimensional",
    "ParseError",
    "PolySeries",
    "ProblemInstance",
    "QQ",
    "RationalFunction",
    "RationalSeries",
    "ReductionCertificate",
    "ResourceCaps",
    "RingMismatch",
    "SearchExhausted",
    "SeriesOracle",
    "SparsePoly",
    "Staircase",
    "Terms",
    "UnexpectedNullity",
    "ZeroElement",
    "act",
    "build_matrix",
    "certify",
    "compute_dual_basis",
    "find_reduction",
    "gamma_candidates",
    "generic_generators",
    "initial_staircase",
    "is_in_integral_closure",
    "kernel",
    "kernel_via_modp",
    "leading",
    "length_verified_certificate",
    "lift_poly",
    "membership",
    "multiplicity",
    "nonsingular_at",
    "rank",
    "socle_candidates",
    "span_of_terms",
    "specialize",
    "step",
    "substitute_params",
    "truncate",
    "verify_reduction_by_length",
]
