"""Shifted-mode decomposition of transport-dominated snapshot data.

The package splits flow snapshots into amplitude-modulated modes transported
along time-dependent shift paths, fitted by quasi-Newton minimization of a
quadrature-weighted reconstruction cost, with a weighted POD baseline for
comparison.
"""

from .core import (
    SnapshotSet,
    SpatialGrid,
    TimeGrid,
    export_heatmap,
    load_snapshots,
    make_uniform_time_grid,
    relative_l2_error,
    save_snapshots,
)
from .cost_grad import (
    CostGradient,
    Decomposition,
    Frame,
    PathRepr,
    data_norm_sq,
    eval_cost,
    eval_cost_gradient,
    eval_penalized_cost,
    penalty_gradient,
    penalty_value,
    reconstruct,
)
from .baseline_pod import PodResult, pod, pod_reconstruction, pod_spectrum, truncated_svd
from .generators import (
    BurgersParams,
    FhnParams,
    TravelingProfile,
    burgers_analytic,
    fhn_simulate,
    synthetic_traveling,
)
from .optimizer import (
    OptimizerConfig,
    OptimizerResult,
    lbfgs_minimize,
    optimize_decomposition,
    optimize_path_only,
)
from . import shift_fem

__version__ = "0.1.0"
