"""Forward reachable sets for hidden and visible agents.

Hidden agents are abstracted by the occlusion boundary they could cross:
their step-k reachable set is the boundary segment inflated by k times the
per-step travel bound (a capsule). Visible agents get concentric disks grown
the same way: capsules with a zero-length axis. Measurement fusion shrinks a
tracked agent's set when a fresh detection arrives. A detection and a
tracked set are disks, each one [x, y, r] row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ModelViolationError(RuntimeError):
    """An agent was observed outside its certified reachable set."""


@dataclass(frozen=True)
class AgentModel:
    """Speed bound and physical radius assumed for target agents."""

    v_target: float
    radius: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.v_target < math.inf and 0.0 <= self.radius < math.inf):
            raise ValueError(f"v_target {self.v_target} and radius {self.radius} must be finite and nonnegative")


def step_distance(model: AgentModel, dt: float) -> float:
    """Maximum distance the agent can travel in one time step: v_target * dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return model.v_target * dt


@dataclass(frozen=True, eq=False)
class ReachableFamily:
    """Nested reachable sets of one agent, indexed k = 1..N.

    The step-k set is the capsule {x : dist(x, segment a-b) <= radii[k-1]}.
    A hidden agent's axis is the occlusion boundary it could cross; a visible
    agent's disks are the case a == b. Radii grow by one step distance per
    step, so each set contains its predecessor.
    """

    a: np.ndarray  # (2,)
    b: np.ndarray  # (2,)
    radii: np.ndarray  # (N,)

    @property
    def horizon(self) -> int:
        return len(self.radii)


def build_capsules(boundary: np.ndarray, model: AgentModel, dt: float, horizon: int) -> ReachableFamily:
    """Capsules of radius k*d_step + agent radius over a boundary segment, one
    (2, 2) [near, far] row of detect_occlusions. A zero-length boundary gives
    disks."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    a, b = boundary
    return ReachableFamily(a, b, np.arange(1, horizon + 1) * step_distance(model, dt) + model.radius)


def build_disks(detection: np.ndarray, model: AgentModel, dt: float, horizon: int) -> ReachableFamily:
    """Concentric disks about a detection [x, y, r], growing by one step
    distance per horizon step."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    c = np.asarray(detection[:2], dtype=float)
    return ReachableFamily(c, c, detection[2] + np.arange(1, horizon + 1) * step_distance(model, dt))


def fuse_measurement(prev_one_step: np.ndarray, sensed: np.ndarray) -> np.ndarray:
    """Disk [x, y, r] covering the intersection of the propagated set and a fresh
    detection, never exceeding the propagated set.

    When the detection already fits inside the propagated set it is returned
    exactly. A proper lens is over-approximated by its smallest enclosing
    disk; if that spills outside the propagated set, the propagated set
    itself is returned (still covers the lens, still no growth).
    """
    cp, cs = prev_one_step[:2], sensed[:2]
    rp, rs = float(prev_one_step[2]), float(sensed[2])
    d = float(np.hypot(*(cs - cp)))

    if d > rp + rs + 1e-12:
        raise ModelViolationError(
            f"detection at distance {d:.6f} cannot intersect reachable set (r={rp:.6f}+{rs:.6f})"
        )
    if d + rs <= rp + 1e-12:
        return sensed
    if d + rp <= rs + 1e-12:
        return prev_one_step

    # Proper lens: enclosing disk centered on the axis midpoint of the lens
    # span, radius covering both the axial extremes and the crossing points.
    u = (cs - cp) / d
    span_lo = d - rs  # along the axis from cp
    span_hi = rp
    mid = 0.5 * (span_lo + span_hi)
    half_span = 0.5 * (span_hi - span_lo)
    x_cross = (d * d + rp * rp - rs * rs) / (2.0 * d)
    h = math.sqrt(max(0.0, rp * rp - x_cross * x_cross))
    center = cp + mid * u
    radius = max(half_span, math.hypot(mid - x_cross, h))

    if float(np.hypot(*(center - cp))) + radius <= rp + 1e-12:
        return np.array([center[0], center[1], radius])
    return prev_one_step
