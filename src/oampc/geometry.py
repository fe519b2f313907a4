"""Exact 2D primitives: capsule projection and ray hits.

Every reachable set the planner uses is a capsule {x : dist(x, segment a-b)
<= r}, a disk when a == b, so one closed-form projection serves them all, and
with r = 0 it is the point-to-segment distance. One elementwise ray kernel,
a hit distance per (ray, segment) pair, serves the range sensor and
line-of-sight checks; each takes its own nearest hit.

Values are arrays, not objects: a point is a (2,) array, a disk one [x, y, r]
row, and a segment its two ends a and b, each (..., 2); a batch of M segments
is two (M, 2) arrays of starts and ends.
"""

from __future__ import annotations

import numpy as np

# Tolerance for degeneracy checks, in meters.
EPS_GEO = 1e-9


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


def ray_hits(origin, dirs, seg_a, seg_b) -> np.ndarray:
    """Distance t >= 0 at which the ray origin + t dirs meets the segment
    seg_a-seg_b, or inf: one (ray, segment) pair per element of the (..., 2)
    inputs, which broadcast. dirs are unit; a parallel ray misses."""
    e = seg_b - seg_a
    ao = seg_a - origin
    dx, dy = dirs[..., 0], dirs[..., 1]
    ex, ey = e[..., 0], e[..., 1]
    ax, ay = ao[..., 0], ao[..., 1]
    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ax * ey - ay * ex) / denom
        s = (ax * dy - ay * dx) / denom
    valid = (np.abs(denom) >= 1e-14) & (t >= 0.0) & (s >= -1e-12) & (s <= 1.0 + 1e-12)
    return np.where(valid, t, np.inf)
