"""Simulated 360-degree range sensor and scan post-processing.

Produces per-ray ranges against the polygonal world, detects occlusion
boundaries from range discontinuities between consecutive rays, and thins
obstacle hit points into coverage circles for static avoidance.

A Scan holds per-ray ranges, points and hit segment indexes; a ray hit
exactly where its segment index is not -1, and ray i of n is at angle
2 pi i / n. A sweep is cast in one ray_hits call over (ray, segment) pairs:
each segment is paired with the rays near its bearing arc, and each ray
keeps its nearest hit.

Both results are arrays: detect_occlusions gives a (B, 2, 2) array of
[near, far] boundary ends in ray order, and downsample an (M, 3) array of
circle centre x, centre y and radius.

Rays are cast at fixed world-frame angles: the sensor is omnidirectional, so
robot heading does not affect the returns, and tests stay frame-independent.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .geometry import EPS_GEO, ray_hits
from .reachability import check_real
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
        if isinstance(self.num_rays, bool) or not isinstance(self.num_rays, numbers.Integral):
            raise ValueError(f"num_rays must be an integer, not {self.num_rays!r}")
        for f in fields(self):  # first: a NaN passes every comparison below
            check_real(self, f.name, nonnegative=False)
        if self.num_rays < 8:
            raise ValueError("num_rays must be at least 8")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")
        if self.jump_threshold <= 0:
            raise ValueError("jump_threshold must be positive")
        if self.downsample_spacing <= 0:
            raise ValueError("downsample_spacing must be positive")
        if self.coverage_radius < self.downsample_spacing / 2:
            raise ValueError("coverage_radius must be at least downsample_spacing/2")


@dataclass(frozen=True)
class Scan:
    """One sweep of n rays, ray i at angle 2 pi i / n: ranges clamped to
    max_range, and per-ray points (true hits, or the max-range point on the
    ray for misses so open space still reads as potentially occupied). The
    values are those of a cast of every ray at every segment, the lowest
    segment index among equal nearest hits."""

    ranges: np.ndarray  # (n,)
    points: np.ndarray  # (n, 2)
    segment_index: np.ndarray  # (n,) index of the hit segment, -1 for miss


def scan(world: WorldMap, pose: RobotState, params: LidarParams) -> Scan:
    """Cast num_rays rays from the pose against the world's segments.

    One ray_hits call casts each ray at only the segments it can meet, the
    pairs of _ray_segment_pairs. A ray's range is the least of max_range and
    its pairs' hits, and its segment index the least among its hits at that
    range. The kernel is elementwise and an unpaired segment is one the ray
    cannot hit, so these are a dense cast's ranges and indexes, bit for bit."""
    origin = pose.position()
    if not world.contains_free(origin):
        raise PoseInObstacleError(f"sensor pose ({pose.x}, {pose.y}) is inside an obstacle")
    dirs = _sweep(params.num_rays)
    seg_a, seg_b = world.segment_arrays()
    rays, segs = _ray_segment_pairs(origin, seg_a, seg_b, params.num_rays)
    # np.take gathers rows about 8x faster than fancy indexing here.
    t = ray_hits(origin, *(np.take(x, i, axis=0) for x, i in ((dirs, rays), (seg_a, segs), (seg_b, segs))))
    ranges = np.full(params.num_rays, float(params.max_range))  # misses (inf) and far hits leave it
    np.minimum.at(ranges, rays, t)
    # A ray's nearest hits are those at its range; index len(seg_a) marks none.
    nearest = t == ranges[rays]
    index = np.full(params.num_rays, len(seg_a))
    np.minimum.at(index, rays[nearest], segs[nearest])
    index[index == len(seg_a)] = -1
    points = origin[None, :] + ranges[:, None] * dirs
    return Scan(ranges, points, index)


@lru_cache(maxsize=8)
def _sweep(n: int) -> np.ndarray:
    """The read-only (n, 2) unit directions of an n-ray sweep, ray i at
    angle 2 pi i / n."""
    angles = 2.0 * np.pi * np.arange(n) / n
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    dirs.flags.writeable = False
    return dirs


def _ray_segment_pairs(origin, seg_a, seg_b, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ray indexes, segment indexes) of the pairs an n-ray sweep casts,
    grouped by segment.

    A ray meets a segment only at a bearing inside the arc between the
    bearings of the segment's ends, the shorter way round (a segment not
    through the origin subtends less than pi). A segment is paired with the
    rays within two ray spacings of its arc, against rounding and the ray
    kernel's end tolerance, n rays at most. A segment whose arc exceeds
    0.9 pi (the origin near its line, between its ends) or with an end
    within EPS_GEO of the origin, where bearings mean nothing, is paired
    with every ray."""
    ends = np.stack([seg_a, seg_b]) - origin  # (2, S, 2)
    theta = np.arctan2(ends[..., 1], ends[..., 0])
    arc = np.remainder(theta[1] - theta[0] + np.pi, 2.0 * np.pi) - np.pi  # signed, a to b
    start = theta[0] + np.minimum(arc, 0.0)
    span = np.abs(arc)
    spacing = 2.0 * np.pi / n
    first = np.ceil(start / spacing - 2.0).astype(np.intp)
    count = np.floor((start + span) / spacing + 2.0).astype(np.intp) - first + 1
    every = (span > 0.9 * np.pi) | (np.hypot(ends[..., 0], ends[..., 1]).min(axis=0) <= EPS_GEO)
    count = np.where(every, n, np.minimum(count, n))
    segs = np.repeat(np.arange(len(count)), count)
    # Pair p, in the run of segment k that starts at pair c, is ray first[k] + p - c.
    return (np.arange(len(segs)) - np.repeat(np.cumsum(count) - count - first, count)) % n, segs


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
    index = scan_.segment_index
    hits = scan_.points[(index >= 0) & ~world.is_boundary_segment(index)]
    if len(hits) == 0:
        return np.zeros((0, 3))

    kept = _greedy_walk(hits, params.downsample_spacing)
    # Coverage backstop: every hit must be within coverage_radius of a center.
    # Hits the thinned centers leave uncovered are added in ray order, each
    # unless an earlier added one covers it. A hit is first measured against
    # the kept centers before and after it in ray order, which cover most
    # hits; only the hits both leave uncovered are measured against every
    # center. Distances come from contiguous x and y columns, elementwise as
    # np.hypot(*(p - c)) of each pair, so the uncovered hits are those no
    # center is within coverage_radius of.
    r = params.coverage_radius
    xs, ys = hits[:, 0].copy(), hits[:, 1].copy()
    cx, cy = xs[kept], ys[kept]
    before = np.searchsorted(kept, np.arange(len(xs)), side="right") - 1
    after = np.minimum(before + 1, len(kept) - 1)
    far_from_neighbours = (np.hypot(xs - cx[before], ys - cy[before]) > r) & (
        np.hypot(xs - cx[after], ys - cy[after]) > r
    )
    fx, fy = xs[far_from_neighbours], ys[far_from_neighbours]
    far = (np.hypot(fx[:, None] - cx, fy[:, None] - cy) > r).all(axis=1)
    ux, uy = fx[far], fy[far]
    # covers[i][j]: uncovered hit j, if added, covers the later uncovered hit i.
    covers = (~(np.hypot(ux[:, None] - ux, uy[:, None] - uy) > r)).tolist()
    added: list[int] = []
    for i, row in enumerate(covers):
        if not any(row[j] for j in added):
            added.append(i)
    centers = np.concatenate([np.column_stack([cx, cy]), np.column_stack([ux[added], uy[added]])])
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
