"""Deterministic control-traffic simulator for beam-steering surfaces.

Models a target moving in front of a programmable reflecting surface,
computes the quantized per-cell state matrix for every steering direction
the gateway configures, diffs successive matrices into per-cell update
packets, and emits packet-level traffic traces plus workload metrics.
"""

from .coding import SurfaceConfig, state_matrix
from .errors import TraceParseError, TraceWriteError, ValidationError
from .gateway import GatewayConfig, ReconfigEvent, TraceMeta, TrafficTrace, iter_events
from .geometry import (
    Angles,
    Case,
    CaseParams,
    Trajectory,
    case_a_trajectory,
    case_b_trajectory,
    case_c_trajectory,
)
from .metrics import WorkloadReport, injection_rate, summarize, sweep_diff
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
    "case_a_trajectory",
    "case_b_trajectory",
    "case_c_trajectory",
    "export_heatmap",
    "injection_rate",
    "iter_events",
    "read_report",
    "read_trace",
    "state_matrix",
    "summarize",
    "sweep_diff",
    "write_report",
    "write_trace",
]
