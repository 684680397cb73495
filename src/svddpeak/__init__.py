"""One-class classification with support vector data description and
automatic Gaussian bandwidth selection from the dual objective curve."""

from .baselines import BaselineResult, select_cv, select_dfn, select_md
from .datagen import (
    LabeledGrid,
    Polygon,
    PolygonConfig,
    generate_polygon,
    generate_shape,
    make_labeled_grid,
    sample_interior,
)
from .evaluation import (
    ConfusionCounts,
    F1SweepResult,
    Metrics,
    SimulationReport,
    compute_metrics,
    f1_sweep,
    polygon_study,
    score_grid,
)
from .kernel import GAUSSIAN, LINEAR, KernelSpec, kernel_matrix
from .smoothing import SplineConfig, SplineFit, ci_contains_zero, fit_pspline
from .solver import (
    PositionReport,
    SolverConfig,
    SvddModel,
    classify,
    load_model,
    position_report,
    score_distances,
    score_lattice,
    train,
    train_path,
)
from .tuning import (
    BandwidthGrid,
    ObjectiveCurve,
    PeakResult,
    find_peak,
    select_bandwidth_peak,
    sweep_objective,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthGrid",
    "BaselineResult",
    "ConfusionCounts",
    "F1SweepResult",
    "GAUSSIAN",
    "KernelSpec",
    "LINEAR",
    "LabeledGrid",
    "Metrics",
    "ObjectiveCurve",
    "PeakResult",
    "Polygon",
    "PolygonConfig",
    "PositionReport",
    "SimulationReport",
    "SolverConfig",
    "SplineConfig",
    "SplineFit",
    "SvddModel",
    "__version__",
    "ci_contains_zero",
    "classify",
    "compute_metrics",
    "f1_sweep",
    "find_peak",
    "fit_pspline",
    "generate_polygon",
    "generate_shape",
    "kernel_matrix",
    "load_model",
    "make_labeled_grid",
    "polygon_study",
    "position_report",
    "sample_interior",
    "score_distances",
    "score_grid",
    "score_lattice",
    "select_bandwidth_peak",
    "select_cv",
    "select_dfn",
    "select_md",
    "sweep_objective",
    "train",
    "train_path",
]
