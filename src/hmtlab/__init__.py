"""Numerical laboratory for sharp Hardy-weighted exponential inequalities on the unit ball.

Desk-scale machinery for the full certification pipeline: radial functional
calculus, the n-Laplacian Green function with critical Hardy potential, the
transplantation map between the deficit-energy and Dirichlet-energy worlds,
and constrained extremal search over radial profiles.
"""

__version__ = "0.1.0"
FORMAT_VERSION = "hmtlab-report/2"

from .errors import (  # noqa: F401
    ConvergenceError,
    CorruptTableError,
    DegenerateProfileError,
    DiscretizationFailureError,
    DomainError,
    GridConfigError,
    HmtError,
    InvalidDimensionError,
    NumericError,
    PotentialInstabilityError,
    PreconditionError,
)
from .quad_core import (  # noqa: F401
    Constants,
    GridGrading,
    RadialGrid,
    integrate,
    make_constants,
    make_grid,
    truncated_exp,
)
from .functionals import (  # noqa: F401
    Potential,
    RadialProfile,
    check_hardy_littlewood,
    check_polya_szego,
    grad_energy,
    h_functional,
    hardy_term,
    hyperbolic_mt,
    hyperbolic_volume,
    ln_norm_pow,
    rearrange,
    singular_mt,
)
from .green import (  # noqa: F401
    GreenTable,
    TransplantMaps,
    check_boundary_bound,
    image_t_grid,
    make_maps,
    solve_green,
)
from .transplant import (  # noqa: F401
    TransplantReport,
    check_mt_comparison,
    pushforward,
    transplant_report,
    verify_grad_identity,
    verify_hardy_identity,
)
from .extremal import (  # noqa: F401
    MoserParams,
    SearchOptions,
    SearchReport,
    boundedness_sweep,
    bump_corpus,
    divergence_probe,
    estimate_lambda1,
    improved_sweep,
    maximize_mt,
    moser_profile,
    normalize_h,
    seeded_corpus,
    smoothed_moser_profile,
)
