"""Static world model: an outer boundary, obstacle polygons, bare walls.

The outer boundary doubles as the track limit (enforced by the planner as
state bounds), while obstacle and wall segments are what the range sensor
returns and what static avoidance reacts to.

Polygons are (m, 2) vertex arrays, m >= 3, and walls one (W, 2, 2) array of
[start, end] rows, all finite. The map's segments are two (S, 2) arrays of
starts and ends (segment_arrays): the boundary's edges, then each obstacle's,
then the walls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import capsule_projection, ray_hits


@dataclass(frozen=True)
class WorldMap:
    """Polygonal world. `boundary` is the outer free-space polygon (may be
    None for an open world); `obstacles` are solid polygons inside it;
    `walls` are bare segments (both sides solid), [start, end] rows.
    Frozen, and each polygon and the walls are stored as read-only float
    copies, so the segments built from them once stay the map's."""

    boundary: Optional[np.ndarray] = None  # (m, 2)
    obstacles: tuple[np.ndarray, ...] = ()
    walls: np.ndarray = field(default_factory=lambda: np.zeros((0, 2, 2)))  # (W, 2, 2)

    _boundary_count: int = field(init=False, repr=False)
    _seg_a: np.ndarray = field(init=False, repr=False)
    _seg_b: np.ndarray = field(init=False, repr=False)
    _polygon_starts: np.ndarray = field(init=False, repr=False)  # first edge of each polygon

    def __post_init__(self):
        def read_only(v):
            v = np.array(v, dtype=float)
            v.flags.writeable = False
            return v

        if self.boundary is not None:
            object.__setattr__(self, "boundary", read_only(self.boundary))
        object.__setattr__(self, "obstacles", tuple(map(read_only, self.obstacles)))
        object.__setattr__(self, "walls", read_only(self.walls))
        if self.walls.ndim != 3 or self.walls.shape[1:] != (2, 2) or not np.isfinite(self.walls).all():
            raise ValueError(f"walls must be a finite (W, 2, 2) array, got shape {self.walls.shape}")
        polygons = ([] if self.boundary is None else [self.boundary]) + list(self.obstacles)
        names = ["boundary"] * (self.boundary is not None) + [f"obstacle {i}" for i in range(len(self.obstacles))]
        for name, v in zip(names, polygons):
            if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2 or not np.isfinite(v).all():
                raise ValueError(f"{name} must be a finite (m, 2) array with m >= 3, got shape {v.shape}")
        object.__setattr__(self, "_boundary_count", 0 if self.boundary is None else len(self.boundary))
        # A polygon's edge i runs from vertex i to vertex i + 1, cyclically.
        object.__setattr__(self, "_seg_a", np.concatenate([*polygons, self.walls[:, 0]]))
        object.__setattr__(self, "_seg_b", np.concatenate([*(np.roll(v, -1, axis=0) for v in polygons), self.walls[:, 1]]))
        object.__setattr__(self, "_polygon_starts", np.cumsum([0] + [len(v) for v in polygons]))

    def segment_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._seg_a, self._seg_b

    def is_boundary_segment(self, index):
        """True for indexes of boundary-track segments; elementwise on arrays."""
        return index < self._boundary_count

    def contains_free(self, p, clearance: float = 0.0) -> bool:
        """True when p lies in free space with at least `clearance` to every
        map segment (boundary included)."""
        q = np.asarray(p, dtype=float)
        inside = self._inside_polygons(q)
        if self.boundary is not None:
            if not inside[0]:
                return False
            inside = inside[1:]
        if inside.any():
            return False
        if clearance > 0.0 and len(self._seg_a) > 0:
            if self.min_clearance(q) < clearance:
                return False
        return True

    def _inside_polygons(self, q: np.ndarray) -> np.ndarray:
        """Per polygon (boundary first, then the obstacles), whether q is
        inside by the even-odd rule, which handles non-convex polygons such as
        L-shaped tracks. A ray from q toward +x crosses edge (a, b) when the
        edge straddles q's height and meets that height right of q; each
        crossing's abscissa is b_x + (a_x - b_x)(y - b_y) / (a_y - b_y),
        computed only for the straddling edges."""
        edges = self._polygon_starts[-1]
        if not edges:
            return np.zeros(0, dtype=bool)
        x, y = q
        a, b = self._seg_a[:edges], self._seg_b[:edges]
        straddles = (b[:, 1] > y) != (a[:, 1] > y)
        run = np.divide((a[:, 0] - b[:, 0]) * (y - b[:, 1]), a[:, 1] - b[:, 1], where=straddles, out=np.zeros(edges))
        crossings = straddles & (x < run + b[:, 0])
        return np.logical_xor.reduceat(crossings, self._polygon_starts[:-1])

    def min_clearance(self, p) -> float:
        """Distance from p to the nearest map segment (inf when empty)."""
        return float(capsule_projection(p, self._seg_a, self._seg_b)[0].min(initial=np.inf))

    def segment_visible(self, a: np.ndarray, b: np.ndarray) -> bool:
        """True when the open segment a-b crosses no map segment (a clear
        line of sight between two free points)."""
        d = b - a
        dist = float(np.hypot(*d))
        if dist <= 1e-12:
            return True
        return bool(ray_hits(a, d / dist, self._seg_a, self._seg_b).min(initial=np.inf) >= dist - 1e-9)


def rectangle(x0: float, y0: float, x1: float, y1: float) -> np.ndarray:
    """Axis-aligned rectangle as a CCW vertex array."""
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
