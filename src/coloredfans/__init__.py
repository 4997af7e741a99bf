"""Exact-arithmetic toolkit for colored cones and fans.

Rational polyhedral cones with double-description conversion, colored cones
and fans with axiom validation, quasiprojectivity via exact LP feasibility,
finite Galois-type actions with k-form checks, and the reductive-monoid cone
specialization.  All arithmetic is exact over the rationals.
"""

from .colored import (
    ColoredCone,
    ColoredFan,
    SphericalDatum,
    colored_faces,
    fan_from_maximal_cones,
    locate,
    validate_colored_cone,
    validate_colored_fan,
)
from .cones import Cone, cone_from_generators, cone_from_inequalities
from .fileio import ParsedInputs, parse_inputs
from .galois import (
    GroupAction,
    GroupElement,
    KFormResult,
    action_from_generators,
    has_k_form,
    identity_element,
    is_fan_invariant,
    validate_action,
)
from .linalg import RatMat, RatVec, mat, vec
from .linprog import LPProblem, constraint, fourier_motzkin, lp_feasible
from .monoid import (
    MorphismData,
    check_fan_morphism,
    is_monoid_cone,
    lined_closure_real_form,
    monoid_cone_from_valuations,
    monoid_has_k_form,
)
from .quasiproj import (
    QuasiprojectivityResult,
    SupportForm,
    build_support_lp,
    is_quasiprojective,
    maximal_members,
)
from .reports import ValidationReport

__version__ = "0.1.0"

__all__ = [
    "ColoredCone",
    "ColoredFan",
    "Cone",
    "GroupAction",
    "GroupElement",
    "KFormResult",
    "LPProblem",
    "MorphismData",
    "ParsedInputs",
    "QuasiprojectivityResult",
    "RatMat",
    "RatVec",
    "SphericalDatum",
    "SupportForm",
    "ValidationReport",
    "action_from_generators",
    "build_support_lp",
    "check_fan_morphism",
    "colored_faces",
    "cone_from_generators",
    "cone_from_inequalities",
    "constraint",
    "fan_from_maximal_cones",
    "fourier_motzkin",
    "has_k_form",
    "identity_element",
    "is_fan_invariant",
    "is_monoid_cone",
    "is_quasiprojective",
    "lined_closure_real_form",
    "locate",
    "lp_feasible",
    "mat",
    "maximal_members",
    "monoid_cone_from_valuations",
    "monoid_has_k_form",
    "parse_inputs",
    "validate_action",
    "validate_colored_cone",
    "validate_colored_fan",
    "vec",
]
