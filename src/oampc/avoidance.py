"""Collision-avoidance half of the planner alternation.

The previous open-loop plan ends stopped, so shifting it one step forward
(nmpc.fallback_plan) repeats its final position; every shifted position is
then projected onto every per-step reachable set. The projected points are
handed to the planner as fixed constraint anchors, which is what keeps this
half a batch of independent closed-form projections instead of a bilevel
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import capsule_projection
from .reachability import ReachableFamily
from .unicycle import ControlInput, RobotState


@dataclass(frozen=True)
class OpenLoopPlan:
    """Predicted trajectory at one planner step: states (N+1, 3) and inputs
    (N, 2), stamped with the step index it was produced at."""

    states: np.ndarray
    inputs: np.ndarray
    stamp: int

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        inputs = np.asarray(self.inputs, dtype=float)
        if states.ndim != 2 or states.shape[1] != 3:
            raise ValueError("states must be (N+1, 3)")
        if inputs.ndim != 2 or inputs.shape[1] != 2:
            raise ValueError("inputs must be (N, 2)")
        if states.shape[0] != inputs.shape[0] + 1:
            raise ValueError("need exactly one more state than inputs")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]

    def state(self, k: int) -> RobotState:
        return RobotState(*self.states[k])

    def control(self, k: int) -> ControlInput:
        return ControlInput(*self.inputs[k])

    def positions(self) -> np.ndarray:
        return self.states[:, :2]

    @staticmethod
    def stationary(z0: np.ndarray, horizon: int, stamp: int) -> "OpenLoopPlan":
        states = np.tile(np.asarray(z0, dtype=float), (horizon + 1, 1))
        inputs = np.zeros((horizon, 2))
        return OpenLoopPlan(states, inputs, stamp)


@dataclass(frozen=True)
class FamilyProjection:
    """Projections of the shifted trajectory onto one reachable family:
    z_proj[k-1] and d_proj[k-1] correspond to horizon step k."""

    family: ReachableFamily
    z_proj: np.ndarray  # (N, 2)
    d_proj: np.ndarray  # (N,)


@dataclass(frozen=True)
class ProjectionSet:
    """All per-step, per-set projections for one planner step."""

    families: tuple[FamilyProjection, ...]
    horizon: int

    def __len__(self) -> int:
        return len(self.families)


def project_plan(shifted: np.ndarray, families: Sequence[ReachableFamily]) -> ProjectionSet:
    """Project each shifted position onto each family's step-k set.

    Entry (k, r) is the distance/projection pair of shifted[k-1] against set
    r at step k. Entries are independent, so all of them come from one
    closed-form call over the stacked families; distances are raw set
    distances (the robot radius is applied later, inside the planner
    constraint).
    """
    shifted = np.asarray(shifted, dtype=float)
    n = shifted.shape[0]
    for fam in families:
        if fam.horizon < n:
            raise ValueError(f"family horizon {fam.horizon} shorter than plan horizon {n}")
    a = np.reshape([fam.a for fam in families], (-1, 1, 2))
    b = np.reshape([fam.b for fam in families], (-1, 1, 2))
    radii = np.reshape([fam.radii[:n] for fam in families], (-1, n))
    d, z = capsule_projection(shifted[None, :, :], a, b, radii)
    return ProjectionSet(
        tuple(FamilyProjection(fam, z[i], d[i]) for i, fam in enumerate(families)), horizon=n
    )
