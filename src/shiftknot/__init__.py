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

from . import basis, curve, errors, files, surface
from .basis import *  # noqa: F403
from .curve import *  # noqa: F403
from .errors import *  # noqa: F403
from .files import *  # noqa: F403
from .surface import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    *basis.__all__,
    *curve.__all__,
    *surface.__all__,
    *errors.__all__,
    *files.__all__,
    "__version__",
]
