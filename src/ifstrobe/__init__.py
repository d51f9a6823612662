"""Numerical toolbox for periodically pulsed integrate-and-fire systems.

The package analyzes the scalar system x' = f(x) + I(t) with hard reset
x = theta -> x = 0 under a square-wave drive: its stroboscopic map, spike
itineraries, firing and rotation numbers, border-collision curves, spiking
regions and the firing-rate-vs-period staircase under dose conservation.
"""

from .model import (
    DomainError,
    Forcing,
    GenericModel,
    HypothesisReport,
    IntegrationError,
    LinearModel,
    Region,
    RegionClass,
    averaged_time_to_threshold,
    classify_region,
    critical_dose,
    flow,
    time_to_threshold,
    validate_hypotheses,
)
from .strobe import (
    BoundaryInfo,
    OrbitOptions,
    OrbitSummary,
    SpikeRunawayError,
    StrobeMap,
    StrobeResult,
    attractor,
    boundary_sigma,
    fixed_point,
    rotation_number,
    strobe,
)
from .bifurcation import (
    BifPoint,
    BifurcationNotFound,
    RateLimits,
    Side,
    bif_A,
    bif_T,
    contraction_margin,
    rate_limits,
)
from .sweep import (
    AddingCheck,
    AddingReport,
    AmplitudeCorrection,
    PlaneScan,
    StaircaseSample,
    WidthCorrection,
    Window,
    scan_plane,
    sweep_T,
    verify_adding,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Forcing",
    "GenericModel",
    "HypothesisReport",
    "IntegrationError",
    "LinearModel",
    "Region",
    "RegionClass",
    "averaged_time_to_threshold",
    "classify_region",
    "critical_dose",
    "flow",
    "time_to_threshold",
    "validate_hypotheses",
    "BoundaryInfo",
    "OrbitOptions",
    "OrbitSummary",
    "SpikeRunawayError",
    "StrobeMap",
    "StrobeResult",
    "attractor",
    "boundary_sigma",
    "fixed_point",
    "rotation_number",
    "strobe",
    "BifPoint",
    "BifurcationNotFound",
    "RateLimits",
    "Side",
    "bif_A",
    "bif_T",
    "contraction_margin",
    "rate_limits",
    "AddingCheck",
    "AddingReport",
    "AmplitudeCorrection",
    "PlaneScan",
    "StaircaseSample",
    "WidthCorrection",
    "Window",
    "scan_plane",
    "sweep_T",
    "verify_adding",
]
