"""Static world model: an outer boundary, obstacle polygons, bare walls.

The outer boundary doubles as the track limit (enforced by the planner as
state bounds), while obstacle and wall segments are what the range sensor
returns and what static avoidance reacts to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import Point2, Segment, capsule_projection, cast_rays


def _point_in_polygon(p: np.ndarray, verts: np.ndarray) -> bool:
    # Even-odd rule; handles non-convex polygons such as L-shaped tracks.
    x, y = p
    inside = False
    n = len(verts)
    j = n - 1
    for i in range(n):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def _polygon_segments(verts: np.ndarray) -> list[Segment]:
    segs = []
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        segs.append(Segment(Point2(float(a[0]), float(a[1])), Point2(float(b[0]), float(b[1]))))
    return segs


@dataclass
class WorldMap:
    """Polygonal world. `boundary` is the outer free-space polygon (may be
    None for an open world); `obstacles` are solid polygons inside it;
    `walls` are bare segments (both sides solid)."""

    boundary: Optional[np.ndarray] = None  # (m, 2)
    obstacles: list[np.ndarray] = field(default_factory=list)
    walls: list[Segment] = field(default_factory=list)

    _segments: list[Segment] = field(init=False, repr=False)
    _boundary_count: int = field(init=False, repr=False)
    _seg_a: np.ndarray = field(init=False, repr=False)
    _seg_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.boundary is not None:
            self.boundary = np.asarray(self.boundary, dtype=float)
        self.obstacles = [np.asarray(o, dtype=float) for o in self.obstacles]
        segs: list[Segment] = []
        if self.boundary is not None:
            segs.extend(_polygon_segments(self.boundary))
        self._boundary_count = len(segs)
        for obs in self.obstacles:
            segs.extend(_polygon_segments(obs))
        segs.extend(self.walls)
        self._segments = segs
        if segs:
            self._seg_a = np.array([s.a.as_array() for s in segs])
            self._seg_b = np.array([s.b.as_array() for s in segs])
        else:
            self._seg_a = np.zeros((0, 2))
            self._seg_b = np.zeros((0, 2))

    @property
    def segments(self) -> list[Segment]:
        return self._segments

    def segment_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._seg_a, self._seg_b

    def is_boundary_segment(self, index):
        """True for indexes of boundary-track segments; elementwise on arrays."""
        return index < self._boundary_count

    def contains_free(self, p, clearance: float = 0.0) -> bool:
        """True when p lies in free space with at least `clearance` to every
        map segment (boundary included)."""
        q = p.as_array() if isinstance(p, Point2) else np.asarray(p, dtype=float)
        if self.boundary is not None and not _point_in_polygon(q, self.boundary):
            return False
        for obs in self.obstacles:
            if _point_in_polygon(q, obs):
                return False
        if clearance > 0.0 and len(self._segments) > 0:
            if self.min_clearance(q) < clearance:
                return False
        return True

    def min_clearance(self, p) -> float:
        """Distance from p to the nearest map segment (inf when empty)."""
        q = p.as_array() if isinstance(p, Point2) else np.asarray(p, dtype=float)
        return float(capsule_projection(q, self._seg_a, self._seg_b)[0].min(initial=np.inf))

    def segment_visible(self, a: np.ndarray, b: np.ndarray) -> bool:
        """True when the open segment a-b crosses no map segment (a clear
        line of sight between two free points)."""
        d = b - a
        dist = float(np.hypot(*d))
        if dist <= 1e-12:
            return True
        ranges, _, _ = cast_rays(a, (d / dist)[None, :], self._seg_a, self._seg_b, dist)
        return bool(ranges[0] >= dist - 1e-9)


def rectangle(x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
    """Axis-aligned rectangle as a CCW vertex array."""
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
