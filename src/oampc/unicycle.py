"""Unicycle kinematics: state/input types, the Euler step, and its rollout
with closed-form sensitivities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RobotState:
    """Pose (x, y, psi). psi is kept continuous, never wrapped, so the
    planner sees no 2*pi jumps."""

    x: float
    y: float
    psi: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.psi)):
            raise ValueError("non-finite robot state")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi], dtype=float)

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class ControlInput:
    """Command (v, delta): forward speed and heading rate."""

    v: float
    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.delta)):
            raise ValueError("non-finite control input")

    def as_array(self) -> np.ndarray:
        return np.array([self.v, self.delta], dtype=float)


def dynamics_step(z: RobotState, u: ControlInput, dt: float) -> RobotState:
    """One Euler step of the unicycle:
    x' = x + dt v cos(psi), y' = y + dt v sin(psi), psi' = psi + dt delta.
    """
    return RobotState(
        z.x + dt * u.v * math.cos(z.psi),
        z.y + dt * u.v * math.sin(z.psi),
        z.psi + dt * u.delta,
    )


def rollout(z0: np.ndarray, inputs: np.ndarray, dt: float) -> np.ndarray:
    """Roll a (N, 2) input sequence out from z0, returning (N+1, 3) states.

    The Euler step as three running sums from z0: the heading first, then
    the positions along it. Each sum adds in step order, so the states are
    those of stepping dynamics_step N times.
    """
    inc = np.empty((inputs.shape[0] + 1, 3))
    inc[0] = z0
    inc[1:, 2] = dt * inputs[:, 1]
    psi = np.cumsum(inc[:-1, 2])
    ds = dt * inputs[:, 0]
    inc[1:, 0] = ds * np.cos(psi)
    inc[1:, 1] = ds * np.sin(psi)
    return np.cumsum(inc, axis=0)


def sensitivities(states: np.ndarray, n_free: int, dt: float) -> np.ndarray:
    """Derivatives of rolled-out states in the first n_free inputs.

    For the states (N+1, 3) of a rollout, returns S (N+1, 3, 2 n_free) with
    S[k, :, 2i] = dz_k/dv_i and S[k, :, 2i+1] = dz_k/ddelta_i:
      dz_k/dv_i     = dt (cos psi_i, sin psi_i, 0)               for i < k,
      dz_k/ddelta_i = dt (-(y_k - y_{i+1}), x_k - x_{i+1}, 1)    for i < k,
    and zero for i >= k. A heading change at step i turns every later step
    of the path about the point z_{i+1}, which is where the second form
    comes from.
    """
    x, y, psi = states[:, 0], states[:, 1], states[:, 2]
    dt_after = dt * np.tri(len(states), n_free, -1)  # dt where i < k, else 0
    S = np.zeros((len(states), 3, n_free, 2))
    S[:, 0, :, 0] = dt_after * np.cos(psi[:n_free])
    S[:, 1, :, 0] = dt_after * np.sin(psi[:n_free])
    S[:, 0, :, 1] = dt_after * (y[1 : n_free + 1] - y[:, None])
    S[:, 1, :, 1] = dt_after * (x[:, None] - x[1 : n_free + 1])
    S[:, 2, :, 1] = dt_after
    return S.reshape(len(states), 3, 2 * n_free)
