"""One-class classification with support vector data description and
automatic Gaussian bandwidth selection from the dual objective curve."""

import importlib

# the module that defines each public name; a name is imported on first
# use (PEP 562), so a command loads only the modules it runs
_HOMES = {
    "baselines": ("BaselineResult", "select_cv", "select_dfn", "select_md"),
    "datagen": ("LabeledGrid", "Polygon", "PolygonConfig", "generate_polygon", "generate_shape",
                "make_labeled_grid", "sample_interior"),
    "evaluation": ("ConfusionCounts", "F1SweepResult", "Metrics", "SimulationReport",
                   "compute_metrics", "f1_sweep", "polygon_study", "score_grid"),
    "kernel": ("GAUSSIAN", "KernelSpec"),
    "smoothing": ("SplineConfig", "SplineFit", "ci_contains_zero", "fit_pspline"),
    "solver": ("PositionReport", "SolverConfig", "SvddModel", "classify", "load_model",
               "position_report", "score_distances", "score_lattice", "train", "train_path"),
    "tuning": ("BandwidthGrid", "ObjectiveCurve", "PeakResult", "find_peak",
               "select_bandwidth_peak", "sweep_objective"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
