"""Exact-arithmetic toolkit for Heegner divisors on modular curves, the
diagonal pullback decomposition of special divisors, and machine-checkable
nontriviality certificates for the Ceresa and modified-diagonal cycles."""

from .arith import large_level_bound
from .certify import Certificate, certify
from .heegner import (
    BQForm,
    CongruenceError,
    HeegnerDivisor,
    HeegnerIndex,
    class_number,
    eichler_relation_sides,
    enumerate_heegner_divisor,
    heegner_r_values,
    hurwitz_class_number,
    special_divisor_index,
)
from .lattices import (
    DiscElement,
    GramLattice,
    full_matrix_lattice,
    trace_zero_lattice,
)
from .modcurves import (
    CurveProfile,
    LevelBoundError,
    cover_degree_over_x0,
    cover_profile,
    fricke_quotient_genus,
    minus_newspace_dim,
    x0_profile,
)
from .newforms import (
    NewformClient,
    NewformRecord,
    PayloadError,
    TransientFetchError,
    WitnessIndeterminate,
    witness_minus_rank1,
)
from .pullback import (
    AmbientGenerator,
    DivisorClass,
    PullbackDecomposition,
    chow_heegner_divisor,
    decompose_heegner,
    pullback_divisor,
    verify_decomposition,
)
from .repcount import scalar_rep_count

__version__ = "0.1.0"

__all__ = [
    "AmbientGenerator",
    "BQForm",
    "Certificate",
    "CongruenceError",
    "CurveProfile",
    "DiscElement",
    "DivisorClass",
    "GramLattice",
    "HeegnerDivisor",
    "HeegnerIndex",
    "LevelBoundError",
    "NewformClient",
    "NewformRecord",
    "PayloadError",
    "PullbackDecomposition",
    "TransientFetchError",
    "WitnessIndeterminate",
    "certify",
    "chow_heegner_divisor",
    "class_number",
    "cover_degree_over_x0",
    "cover_profile",
    "decompose_heegner",
    "eichler_relation_sides",
    "enumerate_heegner_divisor",
    "fricke_quotient_genus",
    "full_matrix_lattice",
    "heegner_r_values",
    "hurwitz_class_number",
    "large_level_bound",
    "minus_newspace_dim",
    "pullback_divisor",
    "scalar_rep_count",
    "special_divisor_index",
    "trace_zero_lattice",
    "verify_decomposition",
    "witness_minus_rank1",
    "x0_profile",
]
