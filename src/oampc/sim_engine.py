"""Closed-loop simulation: sense, build reachable sets, project, solve, act.

Each step runs the full planning pipeline once, applies the first input, and
advances the scripted agents. Ground-truth collision checking is independent
of every planner constraint, so logged safety outcomes cannot be an artifact
of the planner's own approximations.

The loop state holds only what the step log cannot: the robot's state and
the next goal's index. A step reads the rest from the log's last record: its
index is the log's length, its time that record's time plus dt, the previous
plan and stop-index hint that record's (time 0, the plan standing at the
start and no hint at the first step), and the previous input that plan's
first input. It applies the plan nmpc.solve returns, the shifted previous
plan when the solve is infeasible. A scenario is checked once, when it is
built (Scenario). A step holds the agents as (A, 2) positions, at its start
and at its end, and (A,) radii; only the visibility check visits them one at
a time.

A run's aggregates are derived from its log, by `oampc.summarize`; `Metrics`
keeps only how the run ended, which no step record holds.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .avoidance import OpenLoopPlan, project_plan
from .geometry import capsule_projection
from .lidar_sim import LidarParams, PoseInObstacleError, detect_occlusions, downsample, scan
from .nmpc import (
    MpcParams,
    NlpProblem,
    check_feasibility,
    fallback_plan,
    solve,
)
from .reachability import (
    MOVE_SLACK,
    AgentModel,
    ModelViolationError,
    build_capsules,
    build_disks,
    check_real,
    fuse_measurement,  # noqa: F401 -- perfbench/tracing.py traces it by this name
    step_distance,
)
from .solver import STATUS_OPTIMAL
from .unicycle import ControlInput, RobotState, dynamics_step
from .world import WorldMap

logger = logging.getLogger("oampc.sim")

MODE_BASELINE = "baseline"
MODE_OCCLUSION_AWARE = "occlusion_aware"

# Why a run ended (Metrics.terminal_reason).
TERMINAL_GOAL = "goal"
TERMINAL_COLLISION = "collision"
TERMINAL_BUDGET = "budget"  # max_steps ran out first
TERMINAL_MODEL_VIOLATION = "model_violation"  # an agent broke the agent model
TERMINAL_POSE_IN_OBSTACLE = "pose_in_obstacle"  # the sensor pose is inside an obstacle

GOAL_TOLERANCE = 0.1

# StepRecord's layer times, in pipeline order; their sum is the step time.
STEP_LAYERS = ("sense_ms", "reach_ms", "project_ms", "solve_ms", "audit_ms")


@dataclass(frozen=True)
class AgentScript:
    """Scripted pedestrian: constant speed along a waypoint polyline,
    starting to move at start_time, standing at the last waypoint after.
    Frozen, with the waypoints kept as a read-only float copy, so the path
    that was checked and measured is the one walked."""

    waypoints: np.ndarray  # (m, 2), kept as a read-only float copy
    speed: float
    start_time: float = 0.0
    initially_hidden: bool = False
    radius: float = 0.1

    def __post_init__(self):
        waypoints = np.array(self.waypoints, dtype=float)
        waypoints.flags.writeable = False
        object.__setattr__(self, "waypoints", waypoints)
        if waypoints.ndim != 2 or waypoints.shape[0] < 1 or waypoints.shape[1] != 2 or not np.isfinite(waypoints).all():
            raise ValueError(f"agent waypoints must be a finite (m, 2) array with m >= 1, not shape {waypoints.shape}")
        check_real(self, "start_time", nonnegative=False)
        check_real(self, "speed")
        check_real(self, "radius")
        legs = np.diff(waypoints, axis=0)
        leg_lengths = np.hypot(legs[:, 0], legs[:, 1]) if len(legs) else np.zeros(0)
        object.__setattr__(self, "_leg_lengths", leg_lengths)
        object.__setattr__(self, "_cum", np.concatenate([[0.0], np.cumsum(leg_lengths)]))

    def position(self, tau: float) -> np.ndarray:
        """Agent position at absolute time tau."""
        dist = max(0.0, tau - self.start_time) * self.speed
        total = float(self._cum[-1])
        if dist >= total or len(self._leg_lengths) == 0:
            return self.waypoints[-1].copy()
        i = int(np.searchsorted(self._cum, dist, side="right") - 1)
        i = min(i, len(self._leg_lengths) - 1)
        frac = (dist - self._cum[i]) / self._leg_lengths[i]
        return self.waypoints[i] + frac * (self.waypoints[i + 1] - self.waypoints[i])


@dataclass(frozen=True)
class Scenario:
    """Declarative world plus planner configuration for one run, frozen and
    checked when built (with_overrides builds anew): goals, a start pose with
    the robot's radius of free space, start and goals within reach of the
    track limits, agents within the agent model's speed,
    hidden agents out of sight of the start pose and, occlusion-aware, a lidar
    range beyond what the horizon can close. The goals are kept as a tuple of
    read-only copies, so the checked goals are the ones run."""

    name: str
    world: WorldMap
    robot_init: RobotState
    goals: Sequence[np.ndarray]  # kept as a tuple of read-only float copies
    agents: list[AgentScript] = field(default_factory=list)
    lidar: LidarParams = field(default_factory=LidarParams)
    mpc: MpcParams = field(default_factory=MpcParams)
    agent_model: AgentModel = field(default_factory=lambda: AgentModel(0.5))
    mode: str = MODE_OCCLUSION_AWARE
    max_steps: int = 400

    def __post_init__(self):
        object.__setattr__(self, "goals", tuple(np.array(g, dtype=float) for g in self.goals))
        for g in self.goals:
            g.flags.writeable = False
        if self.mode not in (MODE_BASELINE, MODE_OCCLUSION_AWARE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, numbers.Integral) or self.max_steps < 0:
            raise ValueError(f"max_steps must be a non-negative integer, not {self.max_steps!r}")
        if not self.goals:
            raise ValueError("scenario needs at least one goal")
        for g in self.goals:
            if g.shape != (2,) or not np.isfinite(g).all():
                raise ValueError(f"a goal must be two finite coordinates, not {g.tolist()!r}")
        start, mpc = self.robot_init.position(), self.mpc
        if not self.world.contains_free(start, clearance=mpc.r_robot):
            raise ValueError("robot initial pose is not in free space with its radius clearance")
        # Off the track the planner has no feasible plan, not even standing
        # still; a goal this far off it is out of reach of every plan.
        if mpc.track_violation(start) > mpc.feas_tol:
            raise ValueError("robot initial pose is outside the track limits")
        for g in self.goals:
            if mpc.track_violation(g) > GOAL_TOLERANCE + mpc.feas_tol:
                raise ValueError(f"goal {g.tolist()} is beyond reach outside the track limits")
        dt = mpc.dt
        for idx, agent in enumerate(self.agents):
            if agent.speed * dt > step_distance(self.agent_model, dt) + MOVE_SLACK:
                raise ValueError(f"agent {idx} speed {agent.speed} exceeds the model bound {self.agent_model.v_target}")
            if agent.initially_hidden and _agent_visible(self.world, start, agent.position(0.0), self.lidar.max_range):
                raise ValueError(f"agent {idx} is declared hidden but visible from the start pose")
        # The max-range arc is not an occlusion boundary: an agent crossing it
        # has no reachable set until seen, so it must lie past what robot (N
        # step reaches) and agent (its step-N capsule) can close over the horizon.
        agent_reach = build_capsules(np.zeros((2, 2)), self.agent_model, dt, mpc.N).radii[-1]
        needed = mpc.N * mpc.step_reach + agent_reach + mpc.d_safe + mpc.r_robot
        if self.mode == MODE_OCCLUSION_AWARE and self.lidar.max_range < needed:
            raise ValueError(f"lidar max_range {self.lidar.max_range} is below the {needed:g} m the horizon can close")

    def with_overrides(self, **kwargs) -> "Scenario":
        """A copy with the given fields replaced, checked as a new scenario."""
        return replace(self, **kwargs)


@dataclass
class StepRecord:
    """One executed closed-loop step."""

    tau: float
    state: np.ndarray  # (3,) state the input was computed at
    applied_input: np.ndarray  # (2,)
    # Wall time of each layer of STEP_LAYERS.
    sense_ms: float  # scan, occlusion detection, downsampling
    reach_ms: float  # capsules, agent visibility, disks
    project_ms: float  # shifted plan, projection, the problem's constraint table
    solve_ms: float  # nmpc.solve
    audit_ms: float  # check_feasibility of the applied plan and of the shifted previous plan
    stop_index: int
    # nmpc._Work's counters, summed over the stop-index probes of this step.
    sqp_iterations: int
    qp_iterations: int  # interior-point iterations
    qp_solves: int
    penalty_rungs: int  # QP solves after the first at one linearization
    probes: int  # SQP solves, nudged rounds included
    infeasible_probes: int  # probes whose SQP ended infeasible
    probe_ms: float  # the probes' own times, each taken in the process that ran it
    search: str  # the last stop-index search phase run, one of nmpc.SEARCH_PHASES
    relaxed_rows: int  # the planner's avoidance rows relaxed to the start's standoff (nmpc._probe)
    relaxed_excess: float  # how far the worst of them is short of its strict margin, 0 with none
    occlusion_clearance: float  # center distance to nearest occlusion boundary
    agent_clearance: float  # center distance to nearest true agent position
    static_clearance: float  # center distance to nearest map segment
    fallback_used: bool  # the solve was infeasible and the shifted previous plan applied
    audit_violation: float  # check_feasibility(plan).max_violation of the applied plan
    fallback_violation: float  # the same audit of the shifted previous plan, applied or not
    collision: bool
    n_boundaries: int
    n_families: int
    plan: OpenLoopPlan


@dataclass
class TrajectoryLog:
    records: list[StepRecord] = field(default_factory=list)

    def append(self, rec: StepRecord):
        if self.records and rec.tau <= self.records[-1].tau:
            raise ValueError("log time must be strictly increasing")
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def write_jsonl(self, path) -> None:
        """Write one JSON object per record, in order. Arrays become lists and
        the plan an object of its states and inputs; floats are written
        by repr (inf as Infinity), so `json.loads` reads every value back
        exactly."""
        with open(path, "w") as f:
            for rec in self.records:
                f.write(json.dumps(asdict(rec), default=_to_json) + "\n")


def _to_json(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@dataclass
class Metrics:
    """How a run ended: what its step log cannot hold."""

    time_to_goal: Optional[float]  # end of the step that reached the last goal; None if not reached
    goals_reached: int
    terminal_reason: str


def ground_truth_collision(
    robot: RobotState,
    agent_positions: Sequence[np.ndarray],
    agent_radii: Sequence[float],
    world: WorldMap,
    r_robot: float,
) -> bool:
    """True iff the robot disk touches any agent disk or map segment.

    The agents are (A, 2) positions (a list of (2,) arrays will do) and (A,)
    radii, and the walls are measured by world.min_clearance. Closed contact
    counts: touching exactly at the combined radius is a collision.
    """
    p = robot.position()
    gaps = np.hypot(*(p - np.reshape(agent_positions, (-1, 2))).T)
    return bool(np.any(gaps <= r_robot + np.asarray(agent_radii))) or world.min_clearance(p) <= r_robot


@dataclass
class _SimState:
    scenario: Scenario
    z: np.ndarray
    goal_index: int = 0


def _agent_visible(world: WorldMap, robot_pos: np.ndarray, agent_pos: np.ndarray, max_range: float) -> bool:
    return float(np.hypot(*(agent_pos - robot_pos))) <= max_range and world.segment_visible(robot_pos, agent_pos)


def step(sim: _SimState, log: TrajectoryLog) -> _SimState:
    """Advance the closed loop by one control period."""
    scn = sim.scenario
    params = scn.mpc
    dt = params.dt
    if log:
        last = log.records[-1]
        tau, prev_plan, stop_hint = last.tau + dt, last.plan, last.stop_index
    else:
        tau, prev_plan, stop_hint = 0.0, OpenLoopPlan.stationary(sim.z, params.N), None

    robot = RobotState(*sim.z)
    radii = np.array([a.radius for a in scn.agents], dtype=float)
    agent_positions = np.reshape([a.position(tau) for a in scn.agents], (-1, 2))

    # Sense.
    t_sense = time.perf_counter()
    sweep = scan(scn.world, robot, scn.lidar)
    boundaries = detect_occlusions(sweep, scn.lidar)
    circles = downsample(sweep, scn.lidar, world=scn.world)

    # Reachable sets: capsules over occlusion boundaries (skipped by the
    # baseline planner), disks from visible agents' detections (both planners).
    t_reach = time.perf_counter()
    families = []
    if scn.mode == MODE_OCCLUSION_AWARE:
        for b in boundaries:
            families.append(build_capsules(b, scn.agent_model, dt, params.N))
    for pos, radius in zip(agent_positions, radii):
        if _agent_visible(scn.world, sim.z[:2], pos, scn.lidar.max_range):
            families.append(build_disks([*pos, radius], scn.agent_model, dt, params.N))

    # Plan. The previous plan ends stopped, so its shift is the warm start
    # and the fallback at once, and its steps 1..N are the points projected.
    t_project = time.perf_counter()
    warm = fallback_plan(prev_plan)
    projections = project_plan(warm.positions()[1:], families)
    goal = scn.goals[sim.goal_index]
    problem = NlpProblem(
        z0=sim.z,
        goal=np.array([goal[0], goal[1], 0.0]),
        projections=projections,
        static_circles=circles,
        params=params,
        warm_start=warm,
        u_prev=prev_plan.inputs[0],
        stop_hint=stop_hint,
    )
    t_solve = time.perf_counter()
    result = solve(problem)
    t_audit = time.perf_counter()

    fallback_used = result.status != STATUS_OPTIMAL
    plan = result.plan
    # Every applied plan is audited, and so is the shifted previous plan,
    # the fallback, whether or not it is applied; the audits are recorded
    # and never change which plan is applied.
    report = check_feasibility(plan, projections, circles, params, z_init=sim.z)
    fallback_violation = check_feasibility(warm, projections, circles, params, z_init=sim.z).max_violation
    if fallback_used and not report.ok(params.feas_tol):
        logger.warning("step %d: fallback plan failed the feasibility audit", len(log))
    t_end = time.perf_counter()

    # Act.
    z_next = dynamics_step(robot, ControlInput(*plan.inputs[0]), dt)

    # Advance agents one period, enforcing the declared speed bound.
    bound = step_distance(scn.agent_model, dt)
    next_positions = np.reshape([a.position(tau + dt) for a in scn.agents], (-1, 2))
    moved = np.hypot(*(next_positions - agent_positions).T)
    if (moved > bound + MOVE_SLACK).any():
        idx = int(np.argmax(moved))
        raise ModelViolationError(f"agent {idx} moved {moved[idx]:.4f} m in one step; bound is {bound:.4f} m")

    collided = ground_truth_collision(z_next, next_positions, radii, scn.world, params.r_robot)

    # Clearances at the pre-step state (what the planner saw).
    pos = sim.z[:2]
    occ_clear = float(capsule_projection(pos, boundaries[:, 0], boundaries[:, 1])[0].min(initial=math.inf))
    agent_clear = float(np.hypot(*(pos - agent_positions).T).min(initial=math.inf))
    static_clear = scn.world.min_clearance(pos)

    log.append(
        StepRecord(
            tau=tau,
            state=sim.z.copy(),
            applied_input=plan.inputs[0].copy(),
            sense_ms=(t_reach - t_sense) * 1e3,
            reach_ms=(t_project - t_reach) * 1e3,
            project_ms=(t_solve - t_project) * 1e3,
            solve_ms=(t_audit - t_solve) * 1e3,
            audit_ms=(t_end - t_audit) * 1e3,
            stop_index=result.stop_index,
            **result.work._asdict(),
            search=result.search,
            relaxed_rows=result.relaxed_rows,
            relaxed_excess=result.relaxed_excess,
            occlusion_clearance=occ_clear,
            agent_clearance=agent_clear,
            static_clearance=static_clear,
            fallback_used=fallback_used,
            audit_violation=report.max_violation,
            fallback_violation=fallback_violation,
            collision=collided,
            n_boundaries=len(boundaries),
            n_families=len(families),
            plan=plan,
        )
    )

    sim.z = z_next.as_array()

    # Goal consumption: position-only tolerance, goals in order.
    while sim.goal_index < len(scn.goals) and (
        np.hypot(*(sim.z[:2] - scn.goals[sim.goal_index])) <= GOAL_TOLERANCE
    ):
        sim.goal_index += 1
    return sim


def run(scenario: Scenario) -> tuple[TrajectoryLog, Metrics]:
    """Run the closed loop until the goals are consumed, a ground-truth
    collision occurs, or the step budget is exhausted.

    An agent that breaks the agent model (ModelViolationError) or a sensor
    pose inside an obstacle (PoseInObstacleError) also ends the run: the log
    holds the steps completed before it, and Metrics.terminal_reason says
    which of these ended the run. The scenario was checked when it was built;
    the loop state is the robot's state and the next goal's index, and each
    step's record says whether it collided."""
    sim = _SimState(scenario, scenario.robot_init.as_array())
    log = TrajectoryLog()
    reason = None
    try:
        while reason is None and len(log) < scenario.max_steps:
            sim = step(sim, log)
            if log.records[-1].collision:
                reason = TERMINAL_COLLISION
            elif sim.goal_index == len(scenario.goals):
                reason = TERMINAL_GOAL
    except ModelViolationError as exc:
        logger.warning("step %d: %s", len(log), exc)
        reason = TERMINAL_MODEL_VIOLATION
    except PoseInObstacleError as exc:
        logger.warning("step %d: %s", len(log), exc)
        reason = TERMINAL_POSE_IN_OBSTACLE
    goal_time = log.records[-1].tau + scenario.mpc.dt if sim.goal_index == len(scenario.goals) else None
    metrics = Metrics(goal_time, sim.goal_index, reason or TERMINAL_BUDGET)
    logger.info("run %s/%s: %s after %d steps, goals=%d/%d", scenario.name, scenario.mode,
                metrics.terminal_reason, len(log), sim.goal_index, len(scenario.goals))
    return log, metrics
