"""Closed-loop simulation: sense, build reachable sets, project, solve, act.

Each step runs the full planning pipeline once, applies the first input, and
advances the scripted agents. Ground-truth collision checking is independent
of every planner constraint, so logged safety outcomes cannot be an artifact
of the planner's own approximations.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .avoidance import OpenLoopPlan, project_plan
from .geometry import Disk, Point2, capsule_projection
from .lidar_sim import LidarParams, PointCloudCircle, detect_occlusions, downsample, scan
from .nmpc import (
    MpcParams,
    NlpProblem,
    check_feasibility,
    fallback_plan,
    solve,
)
from .reachability import (
    AgentModel,
    ModelViolationError,
    build_capsules,
    build_disks,
    fuse_measurement,
    step_distance,
)
from .solver import STATUS_OPTIMAL
from .unicycle import RobotState, dynamics_step
from .world import WorldMap

logger = logging.getLogger("oampc.sim")

MODE_BASELINE = "baseline"
MODE_OCCLUSION_AWARE = "occlusion_aware"

GOAL_TOLERANCE = 0.1


@dataclass
class AgentScript:
    """Scripted pedestrian: constant speed along a waypoint polyline,
    starting to move at start_time, standing at the last waypoint after."""

    waypoints: np.ndarray  # (m, 2)
    speed: float
    start_time: float = 0.0
    initially_hidden: bool = False
    radius: float = 0.1

    def __post_init__(self):
        self.waypoints = np.asarray(self.waypoints, dtype=float)
        if self.waypoints.ndim != 2 or self.waypoints.shape[0] < 1:
            raise ValueError("agent needs at least one waypoint")
        if self.speed < 0:
            raise ValueError("agent speed must be nonnegative")
        legs = np.diff(self.waypoints, axis=0)
        self._leg_lengths = np.hypot(legs[:, 0], legs[:, 1]) if len(legs) else np.zeros(0)
        self._cum = np.concatenate([[0.0], np.cumsum(self._leg_lengths)])

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


@dataclass
class Scenario:
    """Declarative world plus planner configuration for one run."""

    name: str
    world: WorldMap
    robot_init: RobotState
    goals: list[np.ndarray]
    agents: list[AgentScript] = field(default_factory=list)
    lidar: LidarParams = field(default_factory=LidarParams)
    mpc: MpcParams = field(default_factory=MpcParams)
    agent_model: AgentModel = field(default_factory=lambda: AgentModel(0.5))
    mode: str = MODE_OCCLUSION_AWARE
    max_steps: int = 400

    def __post_init__(self):
        self.goals = [np.asarray(g, dtype=float)[:2] for g in self.goals]
        if self.mode not in (MODE_BASELINE, MODE_OCCLUSION_AWARE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.goals:
            raise ValueError("scenario needs at least one goal")

    def with_overrides(self, **kwargs) -> "Scenario":
        return replace(self, **kwargs)


@dataclass
class StepRecord:
    """One executed closed-loop step."""

    tau: float
    state: np.ndarray  # (3,) state the input was computed at
    applied_input: np.ndarray  # (2,)
    status: str
    solve_ms: float  # wall time of reach, agent visibility, projection, solve and audit
    stop_index: int
    sqp_iterations: int  # summed over the stop-index probes of this step
    qp_iterations: int  # interior-point iterations, summed over the same probes
    qp_solves: int  # QP solves, summed over the same probes
    probes: int  # SQP solves of this step, re-probes included
    occlusion_clearance: float  # center distance to nearest occlusion boundary
    agent_clearance: float  # center distance to nearest true agent position
    static_clearance: float  # center distance to nearest map segment
    fallback_used: bool
    fallback_feasible: Optional[bool]
    audit_violation: float  # check_feasibility(plan).max_violation of the applied plan
    collision: bool
    n_boundaries: int
    n_families: int
    plan: OpenLoopPlan

    @property
    def min_clearance(self) -> float:
        return min(self.occlusion_clearance, self.agent_clearance, self.static_clearance)


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
        the plan an object of its states, inputs and stamp; floats are written
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
    time_to_goal: Optional[float]
    min_clearance: float
    min_occlusion_clearance: float
    collision: bool
    solve_avg_ms: float
    solve_max_ms: float
    solve_std_ms: float
    fallback_invocations: int
    steps: int
    goals_reached: int


def ground_truth_collision(
    robot: RobotState,
    agent_positions: Sequence[np.ndarray],
    agent_radii: Sequence[float],
    world: WorldMap,
    r_robot: float,
) -> bool:
    """True iff the robot disk touches any agent disk or map segment.

    Closed contact counts: touching exactly at the combined radius is a
    collision.
    """
    p = robot.position()
    for pos, r in zip(agent_positions, agent_radii):
        if np.hypot(*(p - pos)) <= r_robot + r:
            return True
    return bool(np.any(capsule_projection(p, *world.segment_arrays())[0] <= r_robot))


@dataclass
class _SimState:
    scenario: Scenario
    z: np.ndarray
    tau: float
    t: int
    goal_index: int
    prev_plan: OpenLoopPlan
    u_prev: np.ndarray
    agent_tracks: dict[int, Disk] = field(default_factory=dict)
    last_stop_index: Optional[int] = None
    done: bool = False
    goal_time: Optional[float] = None


def _agent_visible(world: WorldMap, robot_pos: np.ndarray, agent_pos: np.ndarray, max_range: float) -> bool:
    gap = float(np.hypot(*(agent_pos - robot_pos)))
    if gap > max_range:
        return False
    return world.segment_visible(robot_pos, agent_pos)


def step(sim: _SimState, log: TrajectoryLog) -> _SimState:
    """Advance the closed loop by one control period."""
    scn = sim.scenario
    params = scn.mpc
    dt = params.dt

    robot = RobotState(*sim.z)
    agent_positions = [a.position(sim.tau) for a in scn.agents]

    # Sense.
    sweep = scan(scn.world, robot, scn.lidar)
    boundaries = detect_occlusions(sweep, scn.lidar)
    circles = downsample(sweep, scn.lidar, world=scn.world)

    # Reachable sets: capsules over occlusion boundaries (skipped by the
    # baseline planner), disks for visible agents (both planners).
    t_plan = time.perf_counter()
    families = []
    if scn.mode == MODE_OCCLUSION_AWARE:
        for b in boundaries:
            families.append(build_capsules(b, scn.agent_model, dt, params.N))
    new_tracks: dict[int, Disk] = {}
    for idx, pos in enumerate(agent_positions):
        if not _agent_visible(scn.world, sim.z[:2], pos, scn.lidar.max_range):
            continue
        sensed = Disk(Point2(*pos), scn.agents[idx].radius)
        prev = sim.agent_tracks.get(idx)
        if prev is not None:
            propagated = Disk(prev.center, prev.radius + step_distance(scn.agent_model, dt))
            sensed = fuse_measurement(propagated, sensed)
        new_tracks[idx] = sensed
        families.append(build_disks(sensed, scn.agent_model, dt, params.N))

    # Plan. The previous plan ends stopped, so its shift is the warm start
    # and the fallback at once, and its steps 1..N are the points projected.
    warm = fallback_plan(sim.prev_plan)
    projections = project_plan(warm.positions()[1:], families)
    goal = scn.goals[sim.goal_index]
    problem = NlpProblem(
        z0=sim.z,
        goal=np.array([goal[0], goal[1], 0.0]),
        projections=projections,
        static_circles=circles,
        params=params,
        warm_start=warm,
        u_prev=sim.u_prev,
        stop_hint=sim.last_stop_index,
    )
    result = solve(problem)

    fallback_used = result.status != STATUS_OPTIMAL
    plan = warm if fallback_used else result.plan
    # Every applied plan is audited; the audit is recorded and never changes
    # which plan is applied.
    report = check_feasibility(plan, projections, circles, params, z_init=sim.z)
    fallback_feasible = None
    if fallback_used:
        fallback_feasible = report.ok(params.feas_tol)
        if not fallback_feasible:
            logger.warning("step %d: fallback plan failed the feasibility audit", sim.t)
    solve_ms = (time.perf_counter() - t_plan) * 1e3

    # Act.
    u = plan.inputs[0]
    z_next = dynamics_step(robot, plan.control(0), dt)

    # Advance agents one period, enforcing the declared speed bound.
    tau_next = sim.tau + dt
    next_positions = []
    for idx, a in enumerate(scn.agents):
        nxt = a.position(tau_next)
        moved = float(np.hypot(*(nxt - agent_positions[idx])))
        if moved > scn.agent_model.v_target * dt + 1e-9:
            raise ModelViolationError(
                f"agent {idx} moved {moved:.4f} m in one step; bound is "
                f"{scn.agent_model.v_target * dt:.4f} m"
            )
        next_positions.append(nxt)

    collided = ground_truth_collision(
        z_next,
        next_positions,
        [a.radius for a in scn.agents],
        scn.world,
        params.r_robot,
    )

    # Clearances at the pre-step state (what the planner saw).
    pos = sim.z[:2]
    ends = np.reshape([b.seg.as_array() for b in boundaries], (-1, 2, 2))
    occ_clear = float(capsule_projection(pos, ends[:, 0], ends[:, 1])[0].min(initial=math.inf))
    agent_clear = math.inf
    for p in agent_positions:
        agent_clear = min(agent_clear, float(np.hypot(*(pos - p))))
    static_clear = scn.world.min_clearance(pos)

    log.append(
        StepRecord(
            tau=sim.tau,
            state=sim.z.copy(),
            applied_input=np.asarray(u, dtype=float).copy(),
            status=result.status,
            solve_ms=solve_ms,
            stop_index=result.stop_index,
            sqp_iterations=result.iterations,
            qp_iterations=result.qp_iterations,
            qp_solves=result.qp_solves,
            probes=result.probes,
            occlusion_clearance=occ_clear,
            agent_clearance=agent_clear,
            static_clearance=static_clear,
            fallback_used=fallback_used,
            fallback_feasible=fallback_feasible,
            audit_violation=report.max_violation,
            collision=collided,
            n_boundaries=len(boundaries),
            n_families=len(families),
            plan=plan,
        )
    )

    sim.z = z_next.as_array()
    sim.tau = tau_next
    sim.t += 1
    sim.prev_plan = plan
    sim.u_prev = np.asarray(u, dtype=float).copy()
    sim.agent_tracks = new_tracks
    sim.last_stop_index = result.stop_index

    # Goal consumption: position-only tolerance, goals in order.
    while sim.goal_index < len(scn.goals) and (
        np.hypot(*(sim.z[:2] - scn.goals[sim.goal_index])) <= GOAL_TOLERANCE
    ):
        sim.goal_index += 1
    if sim.goal_index >= len(scn.goals):
        sim.done = True
        sim.goal_time = sim.tau
    if collided:
        sim.done = True
    return sim


def run(scenario: Scenario) -> tuple[TrajectoryLog, Metrics]:
    """Run the closed loop until the goals are consumed, a ground-truth
    collision occurs, or the step budget is exhausted."""
    _validate_scenario(scenario)
    params = scenario.mpc
    z0 = scenario.robot_init.as_array()
    sim = _SimState(
        scenario=scenario,
        z=z0.copy(),
        tau=0.0,
        t=0,
        goal_index=0,
        prev_plan=OpenLoopPlan.stationary(z0, params.N, -1),
        u_prev=np.zeros(2),
    )
    log = TrajectoryLog()
    while not sim.done and sim.t < scenario.max_steps:
        sim = step(sim, log)
    metrics = compute_metrics(log, goal_time=sim.goal_time, goals_reached=sim.goal_index)
    logger.info(
        "run %s/%s: steps=%d goals=%d/%d collision=%s solve_avg=%.1f ms",
        scenario.name,
        scenario.mode,
        metrics.steps,
        sim.goal_index,
        len(scenario.goals),
        metrics.collision,
        metrics.solve_avg_ms,
    )
    return log, metrics


def _validate_scenario(scenario: Scenario):
    if not scenario.world.contains_free(scenario.robot_init.position(), clearance=scenario.mpc.r_robot):
        raise ValueError("robot initial pose is not in free space with its radius clearance")
    for idx, agent in enumerate(scenario.agents):
        if agent.speed > scenario.agent_model.v_target + 1e-9:
            raise ValueError(
                f"agent {idx} speed {agent.speed} exceeds the model bound "
                f"{scenario.agent_model.v_target}"
            )
        if agent.initially_hidden and _agent_visible(
            scenario.world,
            scenario.robot_init.position(),
            agent.position(0.0),
            scenario.lidar.max_range,
        ):
            raise ValueError(f"agent {idx} is declared hidden but visible from the start pose")


def compute_metrics(log: TrajectoryLog, goal_time: Optional[float] = None, goals_reached: int = 0) -> Metrics:
    """Aggregate a log; std is the population standard deviation."""
    if len(log) == 0:
        raise ValueError("cannot compute metrics of an empty log")
    solve_times = np.array([r.solve_ms for r in log])
    clearances = np.array([r.min_clearance for r in log])
    occ = np.array([r.occlusion_clearance for r in log])
    return Metrics(
        time_to_goal=goal_time,
        min_clearance=float(clearances.min()),
        min_occlusion_clearance=float(occ.min()),
        collision=any(r.collision for r in log),
        solve_avg_ms=float(solve_times.mean()),
        solve_max_ms=float(solve_times.max()),
        solve_std_ms=float(solve_times.std()),
        fallback_invocations=sum(1 for r in log if r.fallback_used),
        steps=len(log),
        goals_reached=goals_reached,
    )
