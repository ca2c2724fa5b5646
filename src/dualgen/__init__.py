"""Duality for Markov processes: dual generators, exact matrix checks,
and Monte Carlo verification of  E f(X_t^x, y) = E f(x, Y_t^y)."""

from . import errors
from .dual_builder import (
    DualReport,
    check_self_dual,
    closed_form_dual,
    dual_jump_1d,
    dual_jump_multidim,
    dual_lightcone_diffusion,
)
from .generator_core import (
    AtomicJumpKernel,
    DensityJumpKernel,
    ProcessSpec,
    QMatrix,
    SeparableJumpKernel,
    discretize,
    validate_qmatrix,
)
from .matrix_lab import (
    SurvivalTransform,
    dual_generator_via_F,
    dual_semigroup_via_F,
    dual_stochasticity_check,
    duality_residual,
    semigroup,
)
from .monte_carlo import (
    DualityEstimate,
    PathConfig,
    StableLikeKernel,
    estimate_duality,
    regularized_boundary_distribution,
    simulate_paths,
)
from .order_transform import TranslationKernel
from .scenario import Scenario, emit_plot_data, load_scenario, run_scenario
from .state_space import (
    Cone,
    Grid,
    build_grid,
    duality_indicator_matrix,
    lightcone_2d,
)

__version__ = "0.1.0"
