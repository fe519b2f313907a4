"""Exact 2D primitives: points, segments, disks, capsule projection, raycasts.

Every reachable set the planner uses is a capsule {x : dist(x, segment a-b)
<= r}, a disk when a == b, so one closed-form projection serves them all, and
with r = 0 it is the point-to-segment distance. One batched ray kernel serves
the range sensor and line-of-sight checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance for degeneracy checks, in meters.
EPS_GEO = 1e-9


@dataclass(frozen=True)
class Point2:
    """A point in the plane, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass(frozen=True)
class Segment:
    """Directed segment from a to b."""

    a: Point2
    b: Point2

    @property
    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)

    def as_array(self) -> np.ndarray:
        return np.array([[self.a.x, self.a.y], [self.b.x, self.b.y]])


@dataclass(frozen=True)
class Disk:
    center: Point2
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"negative disk radius {self.radius}")


def capsule_projection(p, a, b, r=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Distance from p to the capsule {x : dist(x, segment a-b) <= r} and the
    nearest point of its boundary.

    p, a and b are (..., 2) and r is (...); all broadcast. With q the axis
    point nearest to p, the distance is max(0, |p - q| - r) and the boundary
    point is q + r n with n pointing from q to p. Interior points get distance
    0 and their nearest boundary point, so downstream constraint gradients
    stay informative; a point on the axis takes the axis's left normal as n,
    or +x when the axis has zero length. With r = 0 the distance is the
    point-to-segment distance.
    """
    p, a, b, r = (np.asarray(v, dtype=float) for v in (p, a, b, r))
    ab = b - a
    denom = np.sum(ab * ab, axis=-1)
    degenerate = denom <= EPS_GEO * EPS_GEO
    # Off-axis terms are computed everywhere and masked afterwards; a
    # subnormal dist may overflow s, which the mask discards.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(degenerate, 0.0, np.clip(np.sum((p - a) * ab, axis=-1) / denom, 0.0, 1.0))
        q = a + t[..., None] * ab
        diff = p - q
        dist = np.hypot(diff[..., 0], diff[..., 1])
        length = np.hypot(ab[..., 0], ab[..., 1])
        left = np.stack([-ab[..., 1], ab[..., 0]], axis=-1) / length[..., None]
        on_axis = q + r[..., None] * np.where(degenerate[..., None], np.array([1.0, 0.0]), left)
        # Off the axis, q + r n is the point dividing p-q in the ratio
        # s = (|p - q| - r) / |p - q|.
        s = ((dist - r) / dist)[..., None]
        z = np.where((dist > EPS_GEO)[..., None], (1.0 - s) * p + s * q, on_axis)
    return np.maximum(0.0, dist - r), z


def cast_rays(
    origin: np.ndarray,
    dirs: np.ndarray,
    seg_a: np.ndarray,
    seg_b: np.ndarray,
    max_range: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest hit of each ray origin + t dirs[i], t >= 0, on segments
    seg_a[j]-seg_b[j].

    dirs is (n, 2) unit directions; seg_a and seg_b are (m, 2). Returns
    (ranges, hit_mask, segment_index): a miss, including a hit beyond
    max_range, carries max_range and index -1. Rays parallel to a segment miss
    it. Fully vectorized: O(rays x segments) memory.
    """
    e = seg_b - seg_a
    ao = seg_a - origin
    denom = dirs[:, None, 0] * e[None, :, 1] - dirs[:, None, 1] * e[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ao[None, :, 0] * e[None, :, 1] - ao[None, :, 1] * e[None, :, 0]) / denom
        s = (ao[None, :, 0] * dirs[:, None, 1] - ao[None, :, 1] * dirs[:, None, 0]) / denom
    valid = (np.abs(denom) >= 1e-14) & (t >= 0.0) & (s >= -1e-12) & (s <= 1.0 + 1e-12)
    t = np.where(valid, t, np.inf)
    ranges = t.min(axis=1, initial=np.inf)
    hit_mask = ranges <= max_range
    seg_idx = np.where(hit_mask, t.argmin(axis=1) if t.size else -1, -1)
    return np.where(hit_mask, ranges, max_range), hit_mask, seg_idx
