"""Geometry helpers that only tests use: the inverse of ``angles_from_position``
and the unsigned azimuth distance, moved verbatim out of ``steertrace.geometry``."""

from __future__ import annotations

import math

from steertrace.geometry import Angles, Point3D, _require


def position_from_angles(angles: Angles, distance: float) -> Point3D:
    """Point at ``distance`` meters from the surface center along ``angles``."""
    _require(distance > 0, "distance must be > 0", "distance")
    th = math.radians(angles.theta)
    ph = math.radians(angles.phi)
    sin_th = math.sin(th)
    return Point3D(
        distance * sin_th * math.cos(ph),
        distance * sin_th * math.sin(ph),
        distance * math.cos(th),
    )


def circular_delta_deg(a: float, b: float) -> float:
    """Shortest angular distance between two azimuths, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)
