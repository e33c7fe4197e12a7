"""Splitting of quaternion and symbol algebras over Q.

Local symbols with independent solvability oracles, the x^2 + n*y^2
representation criteria, cyclotomic prime decomposition with q-power residue
characters, and unramified local norm decisions, all over exact integer
arithmetic.
"""

from .arith import (
    Inconclusive,
    is_prime,
    legendre_symbol,
    multiplicative_order,
    padic_valuation,
)
from .cyclotomic import (
    CyclotomicInt,
    DecompositionType,
    PowerCharValue,
    PrimeIdealRep,
    RamifiedPrimeError,
    SplittingClass,
    cyclo_reduce,
    cyclotomic_decomposition,
    find_prime_ideal,
    kummer_splitting,
    power_residue_character,
)
from .localnorm import (
    NormTraceCase,
    SplitTrace,
    SymbolAlgebraQuery,
    is_norm_unramified,
    symbol_algebra_norm_trace,
)
from .padic import (
    ConicPoint,
    Place,
    hilbert_product,
    hilbert_symbol,
    lifting_threshold,
    qp_solvable_oracle,
    rational_point_search,
)
from .quaternion import (
    CONVERSE_PROVEN,
    CRITERIA,
    SUPPORTED_N,
    EquivalenceReport,
    QuaternionAlgebra,
    Representation,
    RepresentationCriterion,
    congruence_criterion,
    is_split_quaternion_Q,
    represent,
    representation_criterion,
    split_over_odd_degree_field,
    verify_equivalence,
)

__all__ = [
    "CONVERSE_PROVEN",
    "CRITERIA",
    "ConicPoint",
    "CyclotomicInt",
    "DecompositionType",
    "EquivalenceReport",
    "Inconclusive",
    "NormTraceCase",
    "Place",
    "PowerCharValue",
    "PrimeIdealRep",
    "QuaternionAlgebra",
    "RamifiedPrimeError",
    "Representation",
    "RepresentationCriterion",
    "SplitTrace",
    "SplittingClass",
    "SUPPORTED_N",
    "SymbolAlgebraQuery",
    "congruence_criterion",
    "cyclo_reduce",
    "cyclotomic_decomposition",
    "find_prime_ideal",
    "hilbert_product",
    "hilbert_symbol",
    "is_norm_unramified",
    "is_prime",
    "is_split_quaternion_Q",
    "kummer_splitting",
    "legendre_symbol",
    "lifting_threshold",
    "multiplicative_order",
    "padic_valuation",
    "power_residue_character",
    "qp_solvable_oracle",
    "rational_point_search",
    "represent",
    "representation_criterion",
    "split_over_odd_degree_field",
    "symbol_algebra_norm_trace",
    "verify_equivalence",
]

__version__ = "0.1.0"
