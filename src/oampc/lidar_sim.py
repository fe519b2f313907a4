"""Simulated 360-degree range sensor and scan post-processing.

Produces per-ray ranges against the polygonal world, detects occlusion
boundaries from range discontinuities between consecutive rays, and thins
obstacle hit points into coverage circles for static avoidance.

A Scan holds per-ray ranges, points and hit segment indexes; a ray hit
exactly where its segment index is not -1, and its angle is _sweep's.

Both results are arrays: detect_occlusions gives a (B, 2, 2) array of
[near, far] boundary ends in ray order, and downsample an (M, 3) array of
circle centre x, centre y and radius.

Rays are cast at fixed world-frame angles: the sensor is omnidirectional, so
robot heading does not affect the returns, and tests stay frame-independent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import EPS_GEO, cast_rays
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
            value = getattr(self, f.name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, not {value!r}")
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
    """One sweep, ray i at angle _sweep(n).angles[i]: ranges clamped to
    max_range, and per-ray points (true hits, or the max-range point on the
    ray for misses so open space still reads as potentially occupied)."""

    ranges: np.ndarray  # (n,)
    points: np.ndarray  # (n, 2)
    segment_index: np.ndarray  # (n,) index of the hit segment, -1 for miss


def scan(world: WorldMap, pose: RobotState, params: LidarParams) -> Scan:
    """Cast num_rays rays from the pose against the world's segments.

    The rays are split into _SECTORS contiguous runs, and each run is cast
    against only the segments that can meet one of its rays
    (_sector_segments). Per ray and segment the kernel's arithmetic is
    elementwise, and a dropped segment is one the ray cannot hit, so ranges
    and segment indexes are those of one cast against every segment.

    One cast_rays call takes sectors of one width, so a sector with fewer
    segments than the call's width is padded with others. _casts groups the
    sectors by their segment counts into one call, or two when that saves
    enough pairs of ray and segment. On a 2-core x86-64 container, timed
    alternately at the robot states of a seed-1 episode, against one call
    padded to the widest sector: a pillars-crowd scan (1440 rays, split at
    60 of 66 states) took 0.71-0.74x the time, and a corner-occluded scan
    (360 rays, never split) 1.10-1.12x, the grouping's own cost of 18-34
    us. Split, a corner scan would take a median 86 us more."""
    origin = pose.position()
    if not world.contains_free(origin):
        raise PoseInObstacleError(f"sensor pose ({pose.x}, {pose.y}) is inside an obstacle")
    sweep = _sweep(params.num_rays)
    seg_a, seg_b = world.segment_arrays()
    members = _sector_segments(origin, seg_a, seg_b, sweep)
    # Each sector's segments in map order, then the others. No ray of a
    # sector hits one of the others, so each ray's nearest hit and its first
    # index among equals are unchanged by the padding. A closing column of -1
    # maps a miss's index -1 to -1.
    order = np.argsort(~members, axis=1, kind="stable")
    order = np.concatenate([order, np.full((_SECTORS, 1), -1)], axis=1)
    ranges = np.empty(sweep.kept.shape)
    index = np.empty(sweep.kept.shape, dtype=order.dtype)
    for rows, width in _casts(members.sum(axis=1), sweep.grid.shape[1]):
        cast = order[rows, :width]
        ranges[rows], local = cast_rays(origin, sweep.grid[rows], seg_a[cast], seg_b[cast], params.max_range)
        index[rows] = order[rows[:, None], local]
    ranges = ranges[sweep.kept]
    points = origin[None, :] + ranges[:, None] * sweep.dirs
    return Scan(ranges, points, index[sweep.kept])


def _casts(counts: np.ndarray, rays: int) -> list[tuple[np.ndarray, int]]:
    """The cast_rays calls of a sweep, as (sector rows, width) pairs, from
    the segment count of each sector and the rays a sector holds.

    One call at the widest count, or two: the sectors with at most some
    count w at width w, and the rest at the widest. w is the count that
    saves the most pairs of ray and segment, and the split is taken when it
    saves at least _SPLIT_PAIRS of them."""
    widest = int(counts.max(initial=0))
    ranked = np.sort(counts)
    # Splitting after the i-th smallest count saves (i + 1)(widest - it)
    # sector widths; the best i ends a run of equal counts.
    saved = np.arange(1, len(ranked) + 1) * (widest - ranked)
    best = int(saved.argmax())
    if saved[best] * rays < _SPLIT_PAIRS:
        return [(np.arange(len(counts)), widest)]
    narrow = counts <= ranked[best]
    return [(np.flatnonzero(narrow), int(ranked[best])), (np.flatnonzero(~narrow), widest)]


# Sectors a sweep is cast in. On a 2-core x86-64 container, against a scan
# casting every ray at every segment, a pillars-crowd scan (1440 rays, 52
# segments) took 0.58-0.60x the time with 16 sectors, 0.62x with 12,
# 0.66-0.68x with 8 and 0.56-0.57x with 24, each padded to its widest
# sector. A corner scan (360 rays, 12 segments) is too small to gain:
# 1.03-1.19x with any of them.
_SECTORS = 16

# Pairs of ray and segment a second cast_rays call must save. On a 2-core
# x86-64 container, at the logged poses of four workload episodes, the split
# lost a median 32 us where it saved 4,000-6,000 pairs (6 poses) and gained
# 252 us where it saved 6,000-9,000 (17 poses). Positive, so a split always
# leaves both calls some sectors.
_SPLIT_PAIRS = 6000


class _Sweep(NamedTuple):
    """The fixed layout of an n-ray sweep cast in _SECTORS sectors."""

    angles: np.ndarray  # (n,) strictly increasing over [0, 2pi)
    dirs: np.ndarray  # (n, 2) unit directions
    grid: np.ndarray  # (_SECTORS, w, 2) directions by sector; a short sector repeats its last ray
    kept: np.ndarray  # (_SECTORS, w) slots that are not repeats, in ray order
    lo: np.ndarray  # (_SECTORS, 1) first ray angle of each sector, less the padding
    size: np.ndarray  # (_SECTORS, 1) angle from lo to the last ray, plus the padding


@lru_cache(maxsize=8)
def _sweep(n: int) -> _Sweep:
    angles = 2.0 * np.pi * np.arange(n) / n
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    bounds = np.arange(_SECTORS + 1) * n // _SECTORS
    cols = np.arange(np.diff(bounds).max())
    grid = dirs[np.minimum(bounds[:-1, None] + cols, bounds[1:, None] - 1)]
    kept = bounds[:-1, None] + cols < bounds[1:, None]
    # Two ray spacings on each side of a sector, against rounding and the
    # ray kernel's end tolerance.
    pad = 2.0 * (2.0 * np.pi / n)
    first, last = angles[bounds[:-1], None], angles[bounds[1:] - 1, None]
    sweep = _Sweep(angles, dirs, grid, kept, first - pad, last - first + 2.0 * pad)
    for array in sweep:
        array.flags.writeable = False
    return sweep


def _sector_segments(origin, seg_a, seg_b, sweep: _Sweep) -> np.ndarray:
    """(_SECTORS, S) mask of the segments each sector's rays are cast against.

    A ray meets a segment only at a bearing inside the arc between the
    bearings of the segment's ends, the shorter way round (a segment not
    through the origin subtends less than pi). A sector takes every segment
    whose arc overlaps the sector's padded angles. A segment whose arc
    exceeds 0.9 pi (the origin near its line, between its ends) or with an
    end within EPS_GEO of the origin, where bearings mean nothing, joins
    every sector."""
    two_pi = 2.0 * np.pi
    ends = np.stack([seg_a, seg_b]) - origin  # (2, S, 2)
    theta = np.arctan2(ends[..., 1], ends[..., 0])
    arc = np.remainder(theta[1] - theta[0] + np.pi, two_pi) - np.pi  # signed, a to b
    start = theta[0] + np.minimum(arc, 0.0)
    span = np.abs(arc)
    # Two arcs on the circle overlap when either one's start lies in the other.
    overlap = (np.remainder(sweep.lo - start, two_pi) <= span) | (np.remainder(start - sweep.lo, two_pi) <= sweep.size)
    near = np.hypot(ends[..., 0], ends[..., 1]).min(axis=0) <= EPS_GEO
    return overlap | (span > 0.9 * np.pi) | near


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
