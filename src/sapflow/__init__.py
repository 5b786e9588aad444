"""Surface-area-preserving mean curvature flow on discrete hypersurfaces."""

from .errors import (
    BlowUpError,
    DegenerateFitError,
    DegenerateGeometryError,
    DegenerateMeanCurvatureError,
    MeshParseError,
    MeshTopologyError,
    NonPositiveSamplesError,
    OrientationError,
    SapflowError,
    WindowTooSmallError,
)
from .mesh import (
    GaussianDentBump,
    MeshQualityReport,
    SphericalHarmonicBump,
    TriMesh,
    gen_circle,
    gen_ellipsoid,
    gen_icosphere,
    gen_perturbed_sphere,
    load_mesh,
    save_mesh,
    validate,
)
from .geometry import (
    GeometryCache,
    compute_cache,
    diameter_estimate,
    enclosed_volume,
    surface_integral,
    vertex_area_weights,
)
from .flow import (
    FlowConfig,
    FlowRunResult,
    FlowState,
    Termination,
    advance,
    compute_h,
    enforce_area_constraint,
    flow_velocity,
    run_flow,
    select_timestep,
)
from .diagnostics import (
    DiagnosticsRecord,
    RateFit,
    ResidualReport,
    SphereFit,
    TimeSeries,
    best_fit_sphere,
    fit_exponential_rate,
    identity_residuals,
    mean_convexity_onset,
    decay_rate_lower_bound,
    record_snapshot,
)
from .oracle import (
    ConvergenceStudy,
    ModeRate,
    SphereReference,
    linearized_mode_rates,
    refinement_study,
    sphere_reference,
)

__version__ = "0.1.0"
