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
    Point3,
    Projection,
    load_keypoints,
    project,
    serialize_keypoints,
)
from .spline import (
    DEFAULT_TENSION,
    KINDS,
    ArcLengthError,
    PathCurve,
    with_phantom_endpoints,
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
    FigureSpec,
    render_path_compare,
    render_scatter_band,
    smoothness_csv,
)

__version__ = "0.1.0"

__all__ = [
    "KeyPoint", "KeypointParseError", "PathTooShortError", "Point3", "Projection",
    "load_keypoints", "project", "serialize_keypoints",
    "DEFAULT_TENSION", "KINDS", "ArcLengthError", "PathCurve", "with_phantom_endpoints",
    "VIEW_MODELS", "DegenerateViewError", "SmoothnessReport", "ViewOverflowError",
    "smoothness", "view_direction",
    "SceneSpec", "SimResult", "SimTooLargeError", "SpeedProfile", "Sphere", "Target", "Trajectory",
    "cast_ray", "perturb_direction", "run_ray_task", "sample_trajectory", "simulate", "traverse",
    "CorrelationResult", "DegenerateSampleError", "NormalityResult", "RegressionFit",
    "StatsReport", "StudyRecord", "UndefinedCorrelationError", "UndefinedFitError",
    "analyze_study", "ks_normality", "linear_fit_with_band", "load_study",
    "pearson", "serialize_study", "spearman", "synthesize_study",
    "FigureSpec", "render_path_compare", "render_scatter_band", "smoothness_csv",
    "__version__",
]
