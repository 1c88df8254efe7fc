"""Deterministic control-traffic simulator for beam-steering surfaces.

Models a target moving in front of a programmable reflecting surface,
computes the quantized per-cell state matrix for every steering direction
the gateway configures, diffs successive matrices into per-cell update
packets, and emits packet-level traffic traces plus workload metrics.
"""

from .coding import SurfaceConfig, state_matrix
from .errors import TraceParseError, TraceWriteError, ValidationError
from .gateway import GatewayConfig, ReconfigEvent, TraceMeta, TrafficTrace, run_simulation
from .geometry import (
    Angles,
    Case,
    CaseParams,
    Trajectory,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
)
from .metrics import WorkloadReport, burst_stats, destination_matrix, injection_rate, sweep_diff
from .trace_io import export_heatmap, read_report, read_trace, write_report, write_trace

__version__ = "0.1.0"

__all__ = [
    "Angles",
    "Case",
    "CaseParams",
    "GatewayConfig",
    "ReconfigEvent",
    "SurfaceConfig",
    "TraceMeta",
    "TraceParseError",
    "TraceWriteError",
    "TrafficTrace",
    "Trajectory",
    "ValidationError",
    "WorkloadReport",
    "burst_stats",
    "case_a_trajectory",
    "case_b_trajectory",
    "case_c_trajectory",
    "destination_matrix",
    "export_heatmap",
    "injection_rate",
    "read_report",
    "read_trace",
    "run_simulation",
    "state_matrix",
    "sweep_diff",
    "write_report",
    "write_trace",
]
