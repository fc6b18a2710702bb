"""Frank copula toolkit and minimum-information checkerboard copula solver."""

from .copula_core import (
    CheckerboardDensity,
    FrankParameter,
    checkerboard_cdf_eval,
    debye_d1,
    frank_cdf,
    frank_checkerboard,
    frank_density,
    frank_generator,
    frank_generator_inverse,
    frank_sample,
    tau_from_theta,
    theta_from_tau,
    uniform_checkerboard,
)
from .concordance import (
    concordance_potential,
    kendall_tau_checkerboard,
    liouville_residual,
)
from .mick_solver import (
    SolverConfig,
    SolverReport,
    SolverState,
    inner_fixed_point,
    sinkhorn_project,
    solve_mick,
    tau_max_for_grid,
)
from .harness import (
    SweepResult,
    compare_to_frank,
    convergence_sweep,
    sweep_to_csv,
    sweep_to_svg,
)
from . import errors

__all__ = [
    "CheckerboardDensity",
    "FrankParameter",
    "SolverConfig",
    "SolverReport",
    "SolverState",
    "SweepResult",
    "checkerboard_cdf_eval",
    "compare_to_frank",
    "concordance_potential",
    "convergence_sweep",
    "debye_d1",
    "errors",
    "frank_cdf",
    "frank_checkerboard",
    "frank_density",
    "frank_generator",
    "frank_generator_inverse",
    "frank_sample",
    "inner_fixed_point",
    "kendall_tau_checkerboard",
    "liouville_residual",
    "sinkhorn_project",
    "solve_mick",
    "sweep_to_csv",
    "sweep_to_svg",
    "tau_from_theta",
    "tau_max_for_grid",
    "theta_from_tau",
    "uniform_checkerboard",
]
