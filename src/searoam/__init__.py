"""searoam: waypoint trajectory engine for undersea roaming.

Builds interpolating Catmull-Rom paths (with polyline and Bezier
baselines) through keypoint lists, measures view smoothness, simulates
roaming tasks (time, collisions, UI-ray accuracy), and analyzes study
data with normality-gated correlation tests and regression bands.
"""

from .geo import (
    KeyPoint,
    KeypointParseError,
    PathTooShortError,
    Projection,
    load_keypoints,
    project,
)
from .spline import (
    DEFAULT_TENSION,
    KINDS,
    ArcLengthError,
    PathCurve,
)
from .camera import (
    VIEW_MODELS,
    DegenerateViewError,
    SmoothnessReport,
    ViewOverflowError,
    smoothness,
    view_direction,
)
from .sim import (
    SceneSpec,
    SimResult,
    SimTooLargeError,
    SpeedProfile,
    Sphere,
    Target,
    Trajectory,
    cast_ray,
    perturb_direction,
    run_ray_task,
    sample_trajectory,
    simulate,
    traverse,
)
from .stats import (
    CorrelationResult,
    DegenerateSampleError,
    NormalityResult,
    RegressionFit,
    StatsReport,
    StudyRecord,
    UndefinedCorrelationError,
    UndefinedFitError,
    analyze_study,
    ks_normality,
    linear_fit_with_band,
    load_study,
    pearson,
    serialize_study,
    spearman,
    synthesize_study,
)
from .report import (
    render_path_compare,
    render_scatter_band,
    smoothness_csv,
)

__version__ = "0.1.0"

__all__ = [
    "KeyPoint", "KeypointParseError", "PathTooShortError", "Projection",
    "load_keypoints", "project",
    "DEFAULT_TENSION", "KINDS", "ArcLengthError", "PathCurve",
    "VIEW_MODELS", "DegenerateViewError", "SmoothnessReport", "ViewOverflowError",
    "smoothness", "view_direction",
    "SceneSpec", "SimResult", "SimTooLargeError", "SpeedProfile", "Sphere", "Target", "Trajectory",
    "cast_ray", "perturb_direction", "run_ray_task", "sample_trajectory", "simulate", "traverse",
    "CorrelationResult", "DegenerateSampleError", "NormalityResult", "RegressionFit",
    "StatsReport", "StudyRecord", "UndefinedCorrelationError", "UndefinedFitError",
    "analyze_study", "ks_normality", "linear_fit_with_band", "load_study",
    "pearson", "serialize_study", "spearman", "synthesize_study",
    "render_path_compare", "render_scatter_band", "smoothness_csv",
    "__version__",
]
