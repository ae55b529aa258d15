"""Certified finite approximation of integral-operator images of L_p balls."""

from .bounds import BoundBreakdown, ParameterSelection, error_bound, select_parameters
from .family import (
    MagnitudeGrid,
    build_magnitude_grid,
    cell_average,
    clip_to_gamma,
    count_family,
    enumerate_family,
    project_to_net,
    round_magnitude,
    run_pipeline,
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
    certified_metrics,
    estimate_metrics,
    kernel_sup_norm,
    load_tabulated_kernel,
    modulus_of_continuity,
    save_tabulated_kernel,
)
from .sphere import DirectionNet, build_sigma_net, verify_covering
from .verify import (
    VerificationReport,
    directed_distance,
    hausdorff_distance,
    verify_run,
)

__version__ = "0.1.0"
