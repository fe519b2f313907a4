"""Simulated 360-degree range sensor and scan post-processing.

Produces per-ray ranges against the polygonal world, detects occlusion
boundaries from range discontinuities between consecutive rays, and thins
obstacle hit points into coverage circles for static avoidance.

Both results are arrays: detect_occlusions gives a (B, 2, 2) array of
[near, far] boundary ends in ray order, and downsample an (M, 3) array of
circle centre x, centre y and radius.

Rays are cast at fixed world-frame angles: the sensor is omnidirectional, so
robot heading does not affect the returns, and tests stay frame-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import cast_rays
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


def detect_occlusions(scan_: Scan, params: LidarParams) -> np.ndarray:
    """Boundaries of unobserved space: every cyclic consecutive ray pair whose
    range difference exceeds jump_threshold yields the segment from the nearer
    hit point to the farther point (a true hit or the max-range point).

    Returns a (B, 2, 2) array of [near, far] rows in ray order."""
    ranges, points = scan_.ranges, scan_.points
    n = len(ranges)
    first = np.flatnonzero(np.abs(np.roll(ranges, -1) - ranges) > params.jump_threshold)
    second = (first + 1) % n
    closer = ranges[first] < ranges[second]
    near = np.where(closer, first, second)
    far = np.where(closer, second, first)
    return np.stack([points[near], points[far]], axis=1)


def downsample(scan_: Scan, params: LidarParams, world: WorldMap) -> np.ndarray:
    """Thin obstacle hit points into coverage circles, an (M, 3) array of
    centre x, centre y and radius (coverage_radius).

    Walks hits in ray order keeping a point once it is at least
    downsample_spacing from the last kept one, then adds any hit left farther
    than coverage_radius from every kept center (a backstop that keeps the
    coverage guarantee even on grazing scans). Hits on the world's boundary
    track are skipped: track limits are enforced as planner state bounds, not
    as point-cloud avoidance.
    """
    hits = scan_.points[scan_.hit_mask & ~world.is_boundary_segment(scan_.segment_index)]
    if len(hits) == 0:
        return np.zeros((0, 3))

    kept = _greedy_walk(hits, params.downsample_spacing)
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
    return np.column_stack([centers, np.full(len(centers), r)])


_WALK_WINDOW = 32  # hits measured per np.hypot call of the greedy walk


def _greedy_walk(hits: np.ndarray, spacing: float) -> list[int]:
    """Indexes of the hits (n, 2) a greedy walk keeps: the first, then, in
    order, each hit at least spacing from the last one kept.

    Each kept hit measures the hits after it a window at a time, in one
    np.hypot call, and the walk jumps to the first at or beyond spacing. The
    differences and distances are the elementwise ones of a walk one hit at a
    time, so the same hits are kept.
    """
    xs, ys = hits[:, 0].copy(), hits[:, 1].copy()
    n = len(xs)
    kept = [0]
    while True:
        x0, y0 = xs[kept[-1]], ys[kept[-1]]
        start = kept[-1] + 1
        while start < n:
            stop = min(n, start + _WALK_WINDOW)
            far = np.hypot(xs[start:stop] - x0, ys[start:stop] - y0) >= spacing
            k = int(far.argmax())
            if far[k]:
                kept.append(start + k)
                break
            start = stop
        else:
            return kept
