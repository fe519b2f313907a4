"""Collision-avoidance half of the planner alternation.

The previous open-loop plan ends stopped, so shifting it one step forward
(nmpc.fallback_plan) repeats its final position; every shifted position is
then projected onto every per-step reachable set. The projected points are
handed to the planner as fixed constraint anchors, which is what keeps this
half a batch of independent closed-form projections instead of a bilevel
program.

A ProjectionSet holds the F families and the projected points z_proj
(F, N, 2) from one closed-form call, where [f, k-1] is family f at horizon
step k. An OpenLoopPlan holds states and inputs only: the step it was planned
at is the index of the log record that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import capsule_projection
from .reachability import ReachableFamily


@dataclass(frozen=True)
class OpenLoopPlan:
    """Predicted trajectory at one planner step: states (N+1, 3) and inputs
    (N, 2)."""

    states: np.ndarray
    inputs: np.ndarray

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

    def positions(self) -> np.ndarray:
        return self.states[:, :2]

    @staticmethod
    def stationary(z0: np.ndarray, horizon: int) -> "OpenLoopPlan":
        states = np.tile(np.asarray(z0, dtype=float), (horizon + 1, 1))
        inputs = np.zeros((horizon, 2))
        return OpenLoopPlan(states, inputs)


@dataclass(frozen=True)
class ProjectionSet:
    """All per-step, per-set projections for one planner step."""

    families: tuple[ReachableFamily, ...]
    z_proj: np.ndarray  # (F, N, 2)

    @property
    def horizon(self) -> int:
        return self.z_proj.shape[1]


def project_plan(shifted: np.ndarray, families: Sequence[ReachableFamily]) -> ProjectionSet:
    """Project each shifted position onto each family's step-k set.

    Entry [r, k-1] is the projection of shifted[k-1] onto set r at step k.
    Entries are independent, so all of them come from one closed-form call
    over the stacked families; the margins (robot radius included) are
    applied later, inside the planner constraint.
    """
    shifted = np.asarray(shifted, dtype=float)
    n = shifted.shape[0]
    for fam in families:
        if len(fam.radii) < n:
            raise ValueError(f"family horizon {len(fam.radii)} shorter than plan horizon {n}")
    a = np.reshape([fam.a for fam in families], (-1, 1, 2))
    b = np.reshape([fam.b for fam in families], (-1, 1, 2))
    radii = np.reshape([fam.radii[:n] for fam in families], (-1, n))
    return ProjectionSet(tuple(families), capsule_projection(shifted[None, :, :], a, b, radii)[1])
