"""convexfit: best convex inner approximations of planar convex containers.

Given a convex container and a target area fraction, find the convex subset
of that area minimizing the L^p distance between support functions (p = inf
gives the Hausdorff distance).  Two discretizations are provided: truncated
Fourier coefficients and nodal support values with a rigorous discrete
convexity condition, both driven by an in-house augmented-Lagrangian solver.
"""

from .geometry import (
    ContainerSpec,
    Disk,
    EmptyInteriorError,
    GeometryError,
    MinkowskiSum,
    Polygon,
    Scaled,
    Stadium,
    SupportSamples,
    Translated,
    container_area,
    container_perimeter,
    convexify,
    convexity_residuals,
    hausdorff_from_supports,
    inner_parallel,
    named_container,
    nodal_area,
    perimeter_from_support,
    polygon_area,
    reconstruct_boundary,
    support_eval,
    support_samples,
)
from .fourier import (
    FourierProblem,
    FourierShape,
    assemble_linear_constraints,
    fourier_area,
    fourier_objective,
    fourier_to_nodal,
    solve_fourier,
    truncate_container,
)
from .multistart import InfeasibleError, SolveResult
from .nodal import (
    NodalProblem,
    nodal_constraints,
    solve_nodal,
)
from .oracles import (
    OracleNotApplicable,
    brute_force_nodal,
    inner_parallel_optimum,
    perimeter_identity_check,
    triangle_conjecture_candidate,
)
from .solver import NlpProblem, NlpResult, SolverParams, check_kkt, solve_nlp

__all__ = [
    "ContainerSpec",
    "Disk",
    "EmptyInteriorError",
    "FourierProblem",
    "FourierShape",
    "GeometryError",
    "InfeasibleError",
    "MinkowskiSum",
    "NlpProblem",
    "NlpResult",
    "NodalProblem",
    "OracleNotApplicable",
    "Polygon",
    "Scaled",
    "SolveResult",
    "SolverParams",
    "Stadium",
    "SupportSamples",
    "Translated",
    "assemble_linear_constraints",
    "brute_force_nodal",
    "check_kkt",
    "container_area",
    "container_perimeter",
    "convexify",
    "convexity_residuals",
    "fourier_area",
    "fourier_objective",
    "fourier_to_nodal",
    "hausdorff_from_supports",
    "inner_parallel",
    "inner_parallel_optimum",
    "named_container",
    "nodal_area",
    "nodal_constraints",
    "perimeter_from_support",
    "perimeter_identity_check",
    "polygon_area",
    "reconstruct_boundary",
    "solve_fourier",
    "solve_nlp",
    "solve_nodal",
    "support_eval",
    "support_samples",
    "triangle_conjecture_candidate",
    "truncate_container",
]

__version__ = "0.1.0"
