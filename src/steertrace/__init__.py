"""Deterministic control-traffic simulator for beam-steering surfaces.

Models a target moving in front of a programmable reflecting surface,
computes the quantized per-cell state matrix for every steering direction
the gateway configures, diffs successive matrices into per-cell update
packets, and emits packet-level traffic traces plus workload metrics.
"""

from .coding import (
    AliasingReport,
    PhaseGradient,
    SurfaceConfig,
    aliasing_check,
    phase_gradients,
    quantize_phase,
    state_matrix,
)
from .errors import BehindSurfaceError, TraceParseError, TraceWriteError, ValidationError
from .gateway import (
    GatewayConfig,
    ReconfigEvent,
    TraceMeta,
    TrafficTrace,
    detect_events,
    diff_states,
    run_simulation,
)
from .geometry import (
    Angles,
    Case,
    CaseParams,
    Point3D,
    Trajectory,
    angle_stream,
    angles_from_position,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
    position_at,
)
from .metrics import (
    WorkloadReport,
    burst_stats,
    destination_matrix,
    injection_rate,
    percent_changed,
    spatial_cv,
    sweep_diff,
)
from .trace_io import (
    FORMAT_VERSION,
    export_heatmap,
    read_report,
    read_trace,
    write_report,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingReport",
    "Angles",
    "BehindSurfaceError",
    "Case",
    "CaseParams",
    "FORMAT_VERSION",
    "GatewayConfig",
    "PhaseGradient",
    "Point3D",
    "ReconfigEvent",
    "SurfaceConfig",
    "TraceMeta",
    "TraceParseError",
    "TraceWriteError",
    "TrafficTrace",
    "Trajectory",
    "ValidationError",
    "WorkloadReport",
    "aliasing_check",
    "angle_stream",
    "angles_from_position",
    "burst_stats",
    "case_a_trajectory",
    "case_b_trajectory",
    "case_c_trajectory",
    "destination_matrix",
    "detect_events",
    "diff_states",
    "export_heatmap",
    "injection_rate",
    "percent_changed",
    "phase_gradients",
    "position_at",
    "quantize_phase",
    "read_report",
    "read_trace",
    "run_simulation",
    "spatial_cv",
    "state_matrix",
    "sweep_diff",
    "write_report",
    "write_trace",
]
