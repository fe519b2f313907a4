"""Forward reachable sets for hidden and visible agents.

Hidden agents are abstracted by the occlusion boundary they could cross:
their step-k reachable set is the boundary segment inflated by k times the
per-step travel bound (a capsule, build_capsules). A visible agent's disks
are that capsule rule on a zero-length axis at its detection [x, y, r]. A
fresh detection replaces a tracked agent's set only when it fits inside, so
the set never grows. A detection and a tracked set are one [x, y, r] row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


# The agent model's move rule: in one step an agent moves at most
# step_distance(model, dt), and up to MOVE_SLACK more for rounding.
MOVE_SLACK = 1e-9


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


def build_capsules(boundary: np.ndarray, model: AgentModel, dt: float, horizon: int) -> ReachableFamily:
    """Capsules of radius k*d_step + agent radius, k = 1..horizon, over a
    boundary segment, one (2, 2) [near, far] row of detect_occlusions: the
    growth rule of every reachable set. A zero-length boundary gives disks."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    a, b = boundary
    return ReachableFamily(a, b, np.arange(1, horizon + 1) * step_distance(model, dt) + model.radius)


def build_disks(detection: np.ndarray, model: AgentModel, dt: float, horizon: int) -> ReachableFamily:
    """Concentric disks about a detection [x, y, r]: the capsules of a
    zero-length axis at its centre, for the agent model with radius r."""
    c = np.asarray(detection[:2], dtype=float)
    return build_capsules(np.stack([c, c]), replace(model, radius=float(detection[2])), dt, horizon)


def fuse_measurement(prev_one_step: np.ndarray, sensed: np.ndarray) -> np.ndarray:
    """Disk [x, y, r] covering the intersection of the propagated set and a fresh
    detection, never exceeding the propagated set (up to MOVE_SLACK): the
    detection when it fits inside, the propagated set otherwise."""
    d = float(np.hypot(*(sensed[:2] - prev_one_step[:2])))
    rp, rs = float(prev_one_step[2]), float(sensed[2])
    if d > rp + rs + MOVE_SLACK:
        raise ModelViolationError(f"detection at distance {d:.6f} cannot intersect reachable set (r={rp:.6f}+{rs:.6f})")
    return sensed if d + rs <= rp + MOVE_SLACK else prev_one_step
