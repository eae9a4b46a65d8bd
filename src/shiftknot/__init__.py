"""Bezier curves and tensor-product surfaces on shifted-knot Bernstein bases.

A knot-shift pair ``(alpha, beta)`` with ``0 <= alpha <= beta`` relocates
the degree-n Bernstein basis onto ``[alpha/(n+beta), (n+alpha)/(n+beta)]``
while keeping every classical structural property: the functions stay
nonnegative, sum to one, interpolate at the endpoints, and reduce to the
classical basis at ``alpha = beta = 0``. On top of the basis the package
provides curve and patch evaluation (direct, de Casteljau, step-matrix
form), degree elevation, endpoint derivatives, and a sampling CLI.

All objects are immutable and all functions pure, so everything is safe to
share across threads. The exact-arithmetic reference lives in
``shiftknot.oracle`` and is intentionally not re-exported here.
"""

from .basis import (
    MAX_DEGREE,
    BasisIndex,
    DomainInterval,
    ShiftedKnotConfig,
    basis_derivative,
    basis_row,
    basis_row_by_recurrence,
    basis_rows,
    basis_value,
    basis_value_in_frame,
    binomial_row,
    domain,
    make_config,
)
from .curve import (
    Curve,
    DeCasteljauTriangle,
    decasteljau_triangle,
    elevate,
    elevate_many,
    elevation_matrix,
    endpoint_derivative,
    eval_decasteljau,
    eval_direct,
    eval_matrix_form,
    sample_curve,
    step_matrix,
)
from .errors import ConstraintError, DomainError, GeometryError
from .files import (
    FileFormatError,
    curve_to_json,
    format_float,
    load_curve,
    load_patch,
    parse_curve,
    parse_patch,
    patch_to_json,
    save_curve,
    save_patch,
)
from .surface import (
    SurfacePatch,
    elevate_patch,
    eval_patch,
    eval_patch_decasteljau,
    isoparam_u,
    isoparam_v,
    sample_patch,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DEGREE",
    "ShiftedKnotConfig",
    "DomainInterval",
    "BasisIndex",
    "make_config",
    "domain",
    "binomial_row",
    "basis_value",
    "basis_row",
    "basis_rows",
    "basis_row_by_recurrence",
    "basis_value_in_frame",
    "basis_derivative",
    "Curve",
    "DeCasteljauTriangle",
    "eval_direct",
    "eval_decasteljau",
    "eval_matrix_form",
    "sample_curve",
    "decasteljau_triangle",
    "step_matrix",
    "elevation_matrix",
    "elevate",
    "elevate_many",
    "endpoint_derivative",
    "SurfacePatch",
    "eval_patch",
    "eval_patch_decasteljau",
    "sample_patch",
    "isoparam_u",
    "isoparam_v",
    "elevate_patch",
    "GeometryError",
    "ConstraintError",
    "DomainError",
    "FileFormatError",
    "format_float",
    "curve_to_json",
    "patch_to_json",
    "parse_curve",
    "parse_patch",
    "load_curve",
    "load_patch",
    "save_curve",
    "save_patch",
    "__version__",
]
