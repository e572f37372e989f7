"""Gradient methods for quadratic and bound-constrained optimization.

Long/short stepsize schedules built on a spectral estimate of the inverse
largest Hessian eigenvalue, the classical comparison rules (exact line
search, Barzilai-Borwein pairs, two-point and cyclic schedules), a
projected-gradient solver with an adaptive nonmonotone line search, seeded
benchmark generators, and an experiment harness with performance profiles.
"""

from .bench import (
    ExperimentPlan,
    ProfileData,
    performance_profile,
    run_plan,
    summarize,
)
from .box_solver import (
    BoxRunConfig,
    LineSearchError,
    LineSearchState,
    direction,
    nonmonotone_search,
    solve_box,
    update_reference,
)
from .generators import (
    LaplaceSpec,
    SpectrumSpec,
    gen_diag_problem,
    gen_laplace3d,
    gen_rotated_equivalent,
    gen_rotated_problem,
    laplace_eigen_bounds,
)
from .problem import BoxBounds, ObjectiveOracle, QuadraticProblem
from .qp_engine import (
    METHODS,
    DivergedError,
    RunTrace,
    StrategySpec,
    run,
    run_many,
    stepsize_history_diagnostic,
)
from .stepsize import (
    StepsizeMemory,
    StepsizeUndefinedError,
    aopt_stepsize,
    bar_alpha_direct,
    bar_alpha_general,
    bar_bb_stepsizes,
    bb_stepsizes,
    hat_alpha_direct,
    modified_y,
    p_stepsize,
    sd_stepsize,
    yuan_stepsize,
)
from .suite import BoundedProblem, make_suite

__version__ = "0.1.0"
