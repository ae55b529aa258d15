"""Certified finite approximation of integral-operator images of L_p balls."""

from .bounds import BoundBreakdown, ParameterSelection, error_bound, select_parameters
from .family import (
    BudgetTable,
    MagnitudeGrid,
    build_magnitude_grid,
    cell_average,
    clip_to_gamma,
    count_family,
    enumerate_family,
    round_magnitude,
    sample_ball,
    sample_family,
    snap_direction,
)
from .functions import PiecewiseConstFn, SampledFn, lp_norm
from .geometry import Domain, Partition, build_partition
from .integral_op import DiscretizedOperator
from .kernels import (
    Kernel,
    KernelMetrics,
    builtin_kernel,
    load_tabulated_kernel,
    save_tabulated_kernel,
)
from .sphere import DirectionNet, build_sigma_net, verify_covering
from .verify import Run, VerificationReport, directed_distance, verify_run

__version__ = "0.1.0"
