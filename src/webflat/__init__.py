"""Exact dual-web curvature toolkit for degree-3 plane foliations."""

from .errors import (
    DegenerateParameter,
    DegenerateWeb,
    DegreeExceeded,
    DegreeTooLow,
    DivisionByZero,
    DomainError,
    FieldMismatch,
    InvariantViolated,
    NonHomogeneous,
    NotQuadratic,
    NotSingular,
    ParseError,
    SingularPoint,
    ThetaWithoutField,
    UnknownVariable,
    UsageError,
    WebflatError,
    ZeroField,
    ZeroPolynomial,
)
from .field import RATIONALS, FieldScalar, FieldSpec, field_sqrt, quadratic_field
from .poly import (
    MPoly,
    RatFn,
    VARIABLES,
    cubic_discriminant,
    cubic_resultant,
    divides,
    exact_divide,
    poly_gcd,
    render_poly,
    squarefree_part,
)
from .singular import (
    SingularityReport,
    TAU_INFINITE,
    classification_field,
    classify_singularity,
    field_roots,
    multiplicity_nu,
    saturate,
    verify_classification,
)
from .webs import (
    AffineVectorField,
    CubicWebEquation,
    CurvatureForm,
    EtaWebSpec,
    HomogeneousVectorField,
    ProjectivePoint,
    dual_curvature,
    eta_criterion,
    gauss_map_point,
    holomorphic_along,
    homogenize,
    inflection_divisor,
    is_flat,
    legendre_transform,
    tangent_cone,
    web_curvature,
)
from .cli import main, parse_field, parse_poly

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
