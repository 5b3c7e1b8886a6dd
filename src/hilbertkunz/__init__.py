"""Exact Hilbert-Kunz functions and multiplicities in graded dimension two."""

import gc

from .engine import HKRow, hk_value
from .errors import (
    InternalError,
    NotPrimaryError,
    ParseError,
    UserError,
)
from .field import PrimeField
from .p1 import (
    NotStabilized,
    SplittingType,
    analyze_ideal,
    hn_from_splittings,
    splitting_type,
    verify_h0_profile,
)
from .poly import Poly, parse_poly
from .reconstruct import (
    AmbiguousReconstruction,
    QuadraticIrrational,
    default_denominator_bound,
    estimate_ehk,
    nu2_from_ehk,
)
from .ring import GradedRing, IdealSpec
from .slopes import (
    HNData,
    add_generator,
    ehk_from_hn,
    ehk_n3,
    ehk_plane_curve,
    ehk_strongly_semistable,
    ehk_t2,
    validate,
)
from .staircase import MonomialIdeal2, staircase_colength

__all__ = [
    "AmbiguousReconstruction",
    "GradedRing",
    "HKRow",
    "HNData",
    "IdealSpec",
    "InternalError",
    "MonomialIdeal2",
    "NotPrimaryError",
    "NotStabilized",
    "ParseError",
    "Poly",
    "PrimeField",
    "QuadraticIrrational",
    "SplittingType",
    "UserError",
    "add_generator",
    "analyze_ideal",
    "default_denominator_bound",
    "ehk_from_hn",
    "ehk_n3",
    "ehk_plane_curve",
    "ehk_strongly_semistable",
    "ehk_t2",
    "estimate_ehk",
    "hk_value",
    "hn_from_splittings",
    "nu2_from_ehk",
    "parse_poly",
    "splitting_type",
    "staircase_colength",
    "validate",
    "verify_h0_profile",
]

__version__ = "0.1.0"

gc.freeze()  # what the import made lives as long as the process: no later collection scans it
