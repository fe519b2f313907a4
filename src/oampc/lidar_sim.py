"""Simulated 360-degree range sensor and scan post-processing.

Produces per-ray ranges against the polygonal world, detects occlusion
boundaries from range discontinuities between consecutive rays, and thins
obstacle hit points into coverage circles for static avoidance.

Rays are cast at fixed world-frame angles: the sensor is omnidirectional, so
robot heading does not affect the returns, and tests stay frame-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Point2, Segment, cast_rays
from .unicycle import RobotState
from .world import WorldMap


class PoseInObstacleError(ValueError):
    """The requested sensor pose is not in free space."""


@dataclass(frozen=True)
class LidarParams:
    num_rays: int = 360
    max_range: float = 8.0
    jump_threshold: float = 0.4  # 2 * default robot radius
    downsample_spacing: float = 0.3
    coverage_radius: float = 0.2

    def __post_init__(self):
        if self.num_rays < 8:
            raise ValueError("num_rays must be at least 8")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")
        if self.jump_threshold <= 0:
            raise ValueError("jump_threshold must be positive")
        if self.coverage_radius < self.downsample_spacing / 2:
            raise ValueError("coverage_radius must be at least downsample_spacing/2")


@dataclass(frozen=True)
class Scan:
    """One sweep: strictly increasing angles over [0, 2pi), ranges clamped to
    max_range, and per-ray points (true hits, or the max-range point on the
    ray for misses so open space still reads as potentially occupied)."""

    pose: RobotState
    angles: np.ndarray
    ranges: np.ndarray
    hit_mask: np.ndarray
    points: np.ndarray  # (n, 2)
    segment_index: np.ndarray  # (n,) index of the hit segment, -1 for miss
    max_range: float

    @property
    def num_rays(self) -> int:
        return len(self.angles)


@dataclass(frozen=True)
class OcclusionBoundary:
    """Line-of-sight segment from the near hit to the far point of a
    consecutive-ray range jump. Everything beyond it is unobserved."""

    seg: Segment
    ray_index: int


@dataclass(frozen=True)
class PointCloudCircle:
    center: Point2
    radius: float


def scan(world: WorldMap, pose: RobotState, params: LidarParams) -> Scan:
    """Cast num_rays rays from the pose against every world segment."""
    origin = pose.position()
    if not world.contains_free(origin):
        raise PoseInObstacleError(f"sensor pose ({pose.x}, {pose.y}) is inside an obstacle")
    n = params.num_rays
    angles = 2.0 * np.pi * np.arange(n) / n
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    ranges, hit_mask, seg_idx = cast_rays(origin, dirs, *world.segment_arrays(), params.max_range)
    points = origin[None, :] + ranges[:, None] * dirs
    return Scan(pose, angles, ranges, hit_mask, points, seg_idx, params.max_range)


def detect_occlusions(scan_: Scan, params: LidarParams) -> list[OcclusionBoundary]:
    """Boundaries of unobserved space: every cyclic consecutive ray pair whose
    range difference exceeds jump_threshold yields the segment from the nearer
    hit point to the farther point (a true hit or the max-range point)."""
    ranges, points = scan_.ranges, scan_.points
    n = len(ranges)
    first = np.flatnonzero(np.abs(np.roll(ranges, -1) - ranges) > params.jump_threshold)
    second = (first + 1) % n
    closer = ranges[first] < ranges[second]
    near = np.where(closer, first, second)
    far = np.where(closer, second, first)
    return [
        OcclusionBoundary(Segment(Point2(*points[a].tolist()), Point2(*points[b].tolist())), ray_index=int(i))
        for i, a, b in zip(first, near, far)
    ]


def downsample(scan_: Scan, params: LidarParams, world: WorldMap | None = None) -> list[PointCloudCircle]:
    """Thin obstacle hit points into coverage circles.

    Walks hits in ray order keeping a point once it is at least
    downsample_spacing from the last kept one, then adds any hit left farther
    than coverage_radius from every kept center (a backstop that keeps the
    coverage guarantee even on grazing scans). Boundary-track hits are skipped
    when a world is supplied: track limits are enforced as planner state
    bounds, not as point-cloud avoidance.
    """
    keep_mask = scan_.hit_mask
    if world is not None:
        keep_mask = keep_mask & ~world.is_boundary_segment(scan_.segment_index)
    hits = scan_.points[keep_mask]
    if len(hits) == 0:
        return []

    # The greedy walk is sequential; Python floats keep it cheap. np.hypot,
    # not math.hypot: the two differ in the last bit on some inputs.
    spacing = params.downsample_spacing
    pts = hits.tolist()
    kept = [0]
    kx, ky = pts[0]
    for i, (x, y) in enumerate(pts[1:], start=1):
        if np.hypot(x - kx, y - ky) >= spacing:
            kept.append(i)
            kx, ky = x, y

    centers = hits[kept]
    # Coverage backstop: every hit must be within coverage_radius of a center.
    # Hits the thinned centers leave uncovered are added in ray order, each
    # unless an earlier added one covers it.
    r = params.coverage_radius
    diff = hits[:, None, :] - centers[None, :, :]
    uncovered = hits[np.hypot(diff[..., 0], diff[..., 1]).min(axis=1) > r]
    added: list[np.ndarray] = []
    for p in uncovered:
        if all(np.hypot(*(p - c)) > r for c in added):
            added.append(p)
    centers = np.vstack([centers, *added])

    return [PointCloudCircle(Point2(float(c[0]), float(c[1])), r) for c in centers]
