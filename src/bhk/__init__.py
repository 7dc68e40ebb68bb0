"""Exact-arithmetic toolkit for BHK mirror pairs of K3 surfaces: weighted
Delsarte matrices, diagonal symmetry groups, transposition duality, and
geometric Picard numbers computed by three mutually cross-checking routes."""

from .arith import (
    det_adjugate,
    euler_phi,
    matrix4,
    minus_one_power_exists,
    multiplicative_order,
)
from .delsarte import Characteristic, DelsarteMatrix, build_delsarte, is_calabi_yau, transpose
from .duality import BhkPair, MirrorPair, Workspace
from .errors import (
    BhkError,
    CharDividesD,
    CharDividesDet,
    InputError,
    InternalCheckError,
    MethodMismatch,
    MirrorNotAdequate,
    NegativeEntry,
    NonpositiveWeight,
    NotAdequate,
    ParseError,
    RowWithoutZero,
    SemanticError,
    SingularMatrix,
    TooLarge,
)
from .picard import (
    PicardReport,
    ScanReport,
    picard_closed_form,
    picard_report,
    prime_scan,
)
from .smoothness import AdequacyReport, Atom, adequacy
from .symmetry import (
    SymmetrySubgroup,
    enumerate_intermediate,
    j_element,
    j_subgroup,
    sl_group,
    subgroup_generated,
)

__version__ = "0.1.0"

__all__ = [
    "AdequacyReport",
    "Atom",
    "BhkError",
    "BhkPair",
    "CharDividesD",
    "CharDividesDet",
    "Characteristic",
    "DelsarteMatrix",
    "InputError",
    "InternalCheckError",
    "MethodMismatch",
    "MirrorNotAdequate",
    "MirrorPair",
    "NegativeEntry",
    "NonpositiveWeight",
    "NotAdequate",
    "ParseError",
    "PicardReport",
    "RowWithoutZero",
    "ScanReport",
    "SemanticError",
    "SingularMatrix",
    "SymmetrySubgroup",
    "TooLarge",
    "Workspace",
    "adequacy",
    "build_delsarte",
    "det_adjugate",
    "enumerate_intermediate",
    "euler_phi",
    "is_calabi_yau",
    "j_element",
    "j_subgroup",
    "matrix4",
    "minus_one_power_exists",
    "multiplicative_order",
    "picard_closed_form",
    "picard_report",
    "prime_scan",
    "sl_group",
    "subgroup_generated",
    "transpose",
    "__version__",
]
