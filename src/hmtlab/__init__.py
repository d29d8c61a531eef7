"""Numerical laboratory for sharp Hardy-weighted exponential inequalities on the unit ball.

Desk-scale machinery for the full certification pipeline: radial functional
calculus, the n-Laplacian Green function with critical Hardy potential, the
transplantation map between the deficit-energy and Dirichlet-energy worlds,
and constrained extremal search over radial profiles.
"""

__version__ = "0.1.0"
FORMAT_VERSION = "hmtlab-report/2"

from .errors import *  # noqa: F401,F403
from .quad_core import *  # noqa: F401,F403
from .functionals import *  # noqa: F401,F403
from .green import *  # noqa: F401,F403
from .transplant import *  # noqa: F401,F403
from .extremal import *  # noqa: F401,F403
