import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import oampc.sim_engine
from oampc.lidar_sim import LidarParams
from oampc.nmpc import MpcParams, check_feasibility, fallback_plan
from oampc.reachability import AgentModel
from oampc.sim_engine import (
    GOAL_TOLERANCE,
    MODE_BASELINE,
    AgentScript,
    Metrics,
    Scenario,
    StepRecord,
    TrajectoryLog,
    _SimState,
    ground_truth_collision,
    run,
    step,
)
from oampc.solver import STATUS_INFEASIBLE
from oampc.summarize import main as summarize_main
from oampc.summarize import read, summarize, totals
from oampc.unicycle import RobotState
from oampc.world import WorldMap, rectangle

from conftest import corner_scenario, recording
from oracles import segment_distance


def summary_of(log: TrajectoryLog, tmp_path) -> dict[str, str]:
    """oampc.summarize's lines for the log, written as JSON lines and read
    back, keyed by their label."""
    path = tmp_path / "summarized.jsonl"
    log.write_jsonl(path)
    return dict(line.split(": ", 1) for line in summarize(read(path)))


class TestGroundTruthCollision:
    WALL = WorldMap(walls=np.array([[[-1.0, 0.0], [1.0, 0.0]]]))

    def test_closed_contact_with_wall(self):
        assert ground_truth_collision(RobotState(0.5, 0.5, 0.0), [], [], self.WALL, r_robot=0.5)
        assert not ground_truth_collision(RobotState(0.5, 0.50001, 0.0), [], [], self.WALL, r_robot=0.5)

    def test_closed_contact_with_agent(self):
        robot = RobotState(0.0, 3.0, 0.0)
        assert ground_truth_collision(robot, [np.array([0.5, 3.0])], [0.25], self.WALL, r_robot=0.25)
        assert not ground_truth_collision(robot, [np.array([0.5, 3.0])], [0.2], self.WALL, r_robot=0.25)

    def test_empty_world_no_agents(self):
        assert not ground_truth_collision(RobotState(0.0, 0.0, 0.0), [], [], WorldMap(), r_robot=0.2)
        assert not ground_truth_collision(RobotState(0.0, 0.0, 0.0), np.zeros((0, 2)), np.zeros(0), WorldMap(), 0.2)

    def test_agents_as_arrays(self):
        # (A, 2) positions and (A,) radii: the last agent is 0.75 m away, at
        # exactly the combined radius 0.25 + 0.5, and touches.
        robot = RobotState(0.0, 3.0, 0.0)
        positions = np.array([[3.0, 3.0], [0.0, 5.0], [0.0, 3.75]])
        radii = np.array([0.2, 0.2, 0.5])
        assert ground_truth_collision(robot, positions, radii, self.WALL, r_robot=0.25)
        assert not ground_truth_collision(robot, positions, radii, self.WALL, r_robot=0.2499)
        assert not ground_truth_collision(robot, positions[:2], radii[:2], self.WALL, r_robot=0.25)

    def test_matches_segment_oracle(self):
        rng = np.random.default_rng(29)
        world = WorldMap(boundary=rectangle(-5, -5, 5, 5), obstacles=[rectangle(-1, -1, 1, 1)])
        edges = [(poly[i], poly[(i + 1) % 4]) for poly in (world.boundary, *world.obstacles) for i in range(4)]
        for p in rng.uniform(-5, 5, size=(300, 2)):
            clearance = min(float(segment_distance(p, a, b)[0]) for a, b in edges)
            got = ground_truth_collision(RobotState(p[0], p[1], 0.0), [], [], world, r_robot=0.3)
            assert got == (clearance <= 0.3)


def assert_disks_of_detections(scenario: Scenario):
    """Run the scenario: every agent is seen at every step, and its family is
    the disks of its detection, as project_plan receives them after the
    capsules: centre at its position at the step's time, step-k radius k *
    v_target * dt plus its own radius. Returns the run's log and metrics."""
    n, dt = scenario.mpc.N, scenario.mpc.dt
    with recording("oampc.sim_engine.project_plan") as (projections,):
        log, metrics = run(scenario)
    assert len(projections) == len(log)
    for rec, call in zip(log, projections):
        _, families = call.args
        disks = families[rec.n_boundaries :]
        assert len(disks) == len(scenario.agents)
        for agent, family in zip(scenario.agents, disks):
            centre = agent.position(rec.tau)
            assert np.array_equal(family.a, centre) and np.array_equal(family.b, centre)
            assert np.array_equal(family.radii, np.arange(1, n + 1) * (scenario.agent_model.v_target * dt) + agent.radius)
    return log, metrics


class TestClosedLoop:
    def test_corner_reaches_goal_safely(self, tmp_path):
        scenario = corner_scenario()
        with recording("oampc.sim_engine.solve") as (solves,):
            log, metrics = run(scenario)
        problems = [call.args[0] for call in solves]
        assert metrics.goals_reached == 1
        assert metrics.terminal_reason == "goal"
        # The last step reaches the goal, at its end.
        assert metrics.time_to_goal == log.records[-1].tau + scenario.mpc.dt
        assert len(log) <= 64
        assert not any(rec.collision or rec.fallback_used for rec in log)
        # Every applied plan carries its own audit.
        assert len(problems) == len(log)
        for rec, problem in zip(log, problems):
            report = check_feasibility(
                rec.plan, problem.projections, problem.static_circles, problem.params, z_init=rec.state
            )
            assert rec.audit_violation == report.max_violation
            # Every SQP iteration solves at least one QP, every probe is an SQP.
            assert rec.qp_solves >= rec.sqp_iterations >= rec.probes >= 1
            assert rec.search in ("full", "hint", "sweep") and rec.solve_ms > 0
        # The planner's previous input is not kept apart: it is the previous
        # plan's first input, the one applied at the step before, zeros at first.
        assert np.array_equal(problems[0].u_prev, np.zeros(2))
        for prev, problem in zip(log.records, problems[1:]):
            assert np.array_equal(problem.u_prev, prev.applied_input)
        # The summary's step-time tails are over the in-program step time,
        # the sum of the layers.
        lines = summary_of(log, tmp_path)
        step_ms = [rec.sense_ms + rec.reach_ms + rec.project_ms + rec.solve_ms + rec.audit_ms for rec in log]
        assert lines["step ms"].split() == [f"{np.percentile(step_ms, q):.2f}" for q in (50, 99)]
        assert int(lines["steps over dt (100 ms)"]) == sum(t > 100.0 for t in step_ms)
        assert lines["collision steps"] == "0 []" and lines["fallback steps"] == "0"

    def test_open_world_with_one_visible_agent(self, tmp_path):
        # No map segment: every ray misses, so each step has no occlusion
        # boundary and no static circle, and the empty arrays pass through
        # the problem, its audit and the clearances. One pedestrian, walking
        # away from the robot's path, is seen at every step.
        ped = AgentScript(waypoints=np.array([[1.5, 1.0], [1.5, 3.0]]), speed=0.3)
        scenario = Scenario(
            name="open",
            world=WorldMap(),
            robot_init=RobotState(0.0, 0.0, 0.0),
            goals=[np.array([3.0, 0.0])],
            agents=[ped],
            max_steps=64,
        )
        with recording("oampc.sim_engine.detect_occlusions", "oampc.sim_engine.solve") as (detections, solves):
            log, metrics = run(scenario)
        boundaries = [call.result for call in detections]
        problems = [call.args[0] for call in solves]
        assert metrics.terminal_reason == "goal" and len(log) == 18
        assert all(b.shape == (0, 2, 2) for b in boundaries) and len(boundaries) == len(log)
        assert not any(rec.collision or rec.fallback_used for rec in log)
        # No boundary and no segment at any step: the summary's near-miss
        # line reads inf for both, with no step.
        k = int(np.argmin([rec.agent_clearance for rec in log]))
        want = f"occlusion inf, agent {log.records[k].agent_clearance!r} at step {k}, static inf"
        assert summary_of(log, tmp_path)["smallest clearance (m)"] == want
        n = scenario.mpc.N
        for rec, problem in zip(log, problems, strict=True):
            assert rec.n_boundaries == 0 and rec.occlusion_clearance == math.inf
            assert rec.n_families == 1 and rec.static_clearance == math.inf
            assert problem.static_circles.shape == (0, 3)
            assert problem.projections.z_proj.shape == (1, n, 2)
            report = check_feasibility(
                rec.plan, problem.projections, problem.static_circles, problem.params, z_init=rec.state
            )
            assert rec.audit_violation == report.max_violation
            assert report.ok(problem.params.feas_tol)

    def test_each_visible_agent_gets_the_disks_of_its_detection(self):
        # Detections are exact and every agent keeps to v_target, one at the
        # bound itself, so no track is kept: at every step each agent's
        # disks start from where it is.
        peds = [
            AgentScript(waypoints=np.array([[1.5, 1.0], [1.5, 3.0]]), speed=0.3, radius=0.1),
            AgentScript(waypoints=np.array([[2.5, -1.0], [2.5, -3.0]]), speed=0.5, radius=0.1),
        ]
        scenario = Scenario(
            name="open",
            world=WorldMap(),
            robot_init=RobotState(0.0, 0.0, 0.0),
            goals=[np.array([3.0, 0.0])],
            agents=peds,
            max_steps=10,
        )
        log, _ = assert_disks_of_detections(scenario)
        assert len(log) == 10

    @pytest.mark.parametrize("radius", [0.0, 0.1])
    def test_agent_at_the_move_slack_keeps_its_bound(self, radius):
        # 5e-10 m/s over v_target, so each 0.1 s move is 5e-11 m over the
        # step distance, inside MOVE_SLACK: the step check accepts every
        # move, and each step's disks start from the agent's detection. A
        # point agent once ended the run as a model violation after one step;
        # a disk agent's track once stayed at its first sighting and grew by
        # a step distance every step.
        ped = AgentScript(waypoints=np.array([[3.0, 2.0], [3.0, -2.0]]), speed=0.5 + 5e-10, radius=radius)
        scenario = Scenario(
            name="slack",
            world=WorldMap(boundary=rectangle(-1, -3, 10, 3)),
            robot_init=RobotState(0.0, 0.0, 0.0),
            goals=[np.array([8.0, 0.0])],
            agents=[ped],
            agent_model=AgentModel(0.5),
            max_steps=10,
        )
        log, metrics = assert_disks_of_detections(scenario)
        assert metrics.terminal_reason == "budget" and len(log) == 10

    def test_solver_counters_logged_and_repeatable(self):
        scenario = corner_scenario().with_overrides(max_steps=4)
        first, metrics = run(scenario)
        second, _ = run(scenario)
        assert metrics.terminal_reason == "budget" and metrics.time_to_goal is None
        counters = [(rec.sqp_iterations, rec.qp_iterations) for rec in first]
        assert len(counters) == 4
        assert all(qp >= sqp > 0 for sqp, qp in counters)
        assert counters == [(rec.sqp_iterations, rec.qp_iterations) for rec in second]
        solves = [(rec.qp_solves, rec.probes) for rec in first]
        assert all(qp_solves >= rec.sqp_iterations for (qp_solves, _), rec in zip(solves, first))
        assert all(probes >= 1 for _, probes in solves)
        assert solves == [(rec.qp_solves, rec.probes) for rec in second]

    def test_fallback_step_applies_the_shift(self, corner_fast_run, monkeypatch, tmp_path, caplog):
        # Steps 3 and 4 solve infeasible and return the warm start, as
        # nmpc.solve does when it has no candidate: each applies the shift of
        # the plan before it and audits it.
        problems = []
        solve = oampc.sim_engine.solve

        def infeasible_solve(problem):
            problems.append(problem)
            result = solve(problem)
            if len(problems) - 1 in (3, 4):
                result = replace(result, status=STATUS_INFEASIBLE, plan=problem.warm_start, objective=math.inf)
            return result

        monkeypatch.setattr(oampc.sim_engine, "solve", infeasible_solve)
        log, metrics = run(corner_scenario().with_overrides(max_steps=8))
        assert [rec.fallback_used for rec in log] == [k in (3, 4) for k in range(8)]
        assert summary_of(log, tmp_path)["fallback steps"] == "2"
        for k in (3, 4):
            rec, problem = log.records[k], problems[k]
            shift = fallback_plan(log.records[k - 1].plan)
            assert np.array_equal(rec.applied_input, shift.inputs[0])
            assert np.array_equal(rec.plan.states, shift.states)
            assert np.array_equal(rec.plan.inputs, shift.inputs)
            report = check_feasibility(
                shift, problem.projections, problem.static_circles, problem.params, z_init=rec.state
            )
            assert rec.audit_violation == rec.fallback_violation == report.max_violation
        # The first recorded corner-fast step whose shift fails the audit,
        # stepped again from its state (the parked robot has reached no goal)
        # with solve infeasible: the shift is applied there too, its audit is
        # the applied plan's, and the step warns.
        scn, log, _ = corner_fast_run
        k = next(t for t, rec in enumerate(log) if rec.fallback_violation > scn.mpc.feas_tol)
        solved = corner_fast_run.calls("oampc.sim_engine.solve")[k].result

        def infeasible(problem):
            return replace(solved, status=STATUS_INFEASIBLE, plan=problem.warm_start, objective=math.inf)

        monkeypatch.setattr(oampc.sim_engine, "solve", infeasible)
        steps = TrajectoryLog(log.records[:k])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="oampc.sim"):
            step(_SimState(scn, log.records[k].state.copy()), steps)
        rec = steps.records[k]
        assert rec.fallback_used and rec.fallback_violation == log.records[k].fallback_violation
        assert rec.audit_violation == rec.fallback_violation
        assert caplog.messages == [f"step {k}: fallback plan failed the feasibility audit"]


class TestAgentInputs:
    """A bad agent value is refused where it enters, not met mid-run."""

    def test_rejects_non_finite_waypoint(self):
        for waypoints in ([[math.nan, 0.0]], [[0.0, 0.0], [1.0, math.inf]]):
            with pytest.raises(ValueError):
                AgentScript(waypoints=np.array(waypoints), speed=0.5)

    def test_rejects_non_finite_start_time(self):
        with pytest.raises(ValueError):
            AgentScript(waypoints=np.array([[1.5, 0.0]]), speed=0.5, start_time=math.nan)

    def test_rejects_bad_speed(self):
        # A NaN speed once gave an agent on the robot's path that was never
        # sensed and never collided.
        for speed in (math.nan, math.inf, -0.5):
            with pytest.raises(ValueError):
                AgentScript(waypoints=np.array([[1.5, 0.0]]), speed=speed)

    def test_rejects_negative_radius(self):
        # A negative radius once raised out of run() mid-episode.
        for radius in (-0.05, math.nan, math.inf):
            with pytest.raises(ValueError):
                AgentScript(waypoints=np.array([[1.5, 0.0]]), speed=0.5, radius=radius)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", None])
    @pytest.mark.parametrize(
        "cls, name",
        [(AgentModel, "v_target"), (AgentModel, "radius"), (AgentScript, "start_time"), (AgentScript, "speed"),
         (AgentScript, "radius")],
    )
    def test_rejects_a_value_that_is_not_a_finite_number(self, cls, name, value):
        # Like MpcParams, the agent model and script name the field: a string
        # once raised a TypeError from a comparison, a None start time one
        # from math.isfinite.
        valid = {AgentModel: dict(v_target=0.5), AgentScript: dict(waypoints=[[1.5, 0.0]], speed=0.5)}[cls]
        with pytest.raises(ValueError, match=f"^{name} must be a finite (nonnegative )?number, not "):
            cls(**{**valid, name: value})

    def test_rejects_waypoints_not_m_by_2(self):
        # (m, 3) waypoints once raised a numpy broadcast error out of run().
        with pytest.raises(ValueError):
            AgentScript(waypoints=np.array([[4.8, 4.5, 0.0], [4.8, -2.5, 0.0]]), speed=0.5)

    def test_not_changed_after_it_is_built(self):
        # The caller's waypoint array, written after the scenario was built,
        # once moved the agent without its leg lengths: the run ended as a
        # model violation at step 0, the agent moving 0.275 m against a
        # bound of 0.05 m.
        w = np.array([[3.0, 2.0], [3.0, -2.0]])
        ped = AgentScript(waypoints=w, speed=0.5)
        scenario = Scenario(
            name="alias",
            world=WorldMap(boundary=rectangle(-1, -3, 10, 3)),
            robot_init=RobotState(0.0, 0.0, 0.0),
            goals=[np.array([8.0, 0.0])],
            agents=[ped],
            max_steps=3,
        )
        w[1] = [3.0, -20.0]
        log, metrics = run(scenario)
        assert metrics.terminal_reason == "budget" and len(log) == 3
        assert np.array_equal(ped.position(1.0), [3.0, 1.5])
        with pytest.raises(ValueError, match="read-only"):
            ped.waypoints[1] = [3.0, -20.0]
        with pytest.raises(FrozenInstanceError):
            ped.speed = 1.0


class TestGoalInputs:
    """A bad goal is refused where it enters, not met mid-run."""

    def test_rejects_one_coordinate_goal(self):
        # It once raised IndexError out of run().
        with pytest.raises(ValueError):
            corner_scenario().with_overrides(goals=[np.array([8.0])])

    def test_rejects_non_finite_goal(self):
        # A NaN goal once ran the whole budget with zero input.
        with pytest.raises(ValueError):
            corner_scenario().with_overrides(goals=[np.array([math.nan, 0.0])])


class TestScenarioChecks:
    """A scenario is checked when it is built, and with_overrides builds a
    new one; run checks nothing more."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            # In the upper block, 1.2 m from its nearest edge.
            ({"robot_init": RobotState(3.0, 2.9, 0.0)}, "not in free space"),
            # Free, but 0.15 m from the outer wall, within r_robot = 0.2 m.
            ({"robot_init": RobotState(-0.85, 0.0, 0.0)}, "not in free space"),
            # The pedestrian at 0.6 m/s against AgentModel(0.5).
            (
                {"agents": [AgentScript(waypoints=np.array([[4.8, 4.5], [4.8, -2.5]]), speed=0.6)]},
                "exceeds the model bound",
            ),
            # 0.9e-9 m/s over the bound is 1.8e-9 m over it in each 2 s step,
            # past MOVE_SLACK: the step check would end the run at step 0.
            (
                {
                    "mpc": MpcParams(state_bounds=(-1, 10, -3, 6), dt=2.0),
                    "agents": [
                        AgentScript(
                            waypoints=np.array([[4.8, 4.5], [4.8, -2.5]]), speed=0.5 + 0.9e-9, initially_hidden=True
                        )
                    ],
                },
                "exceeds the model bound",
            ),
            # Standing in the open 1 m ahead of the robot.
            (
                {"agents": [AgentScript(waypoints=np.array([[1.0, 0.0]]), speed=0.0, initially_hidden=True)]},
                "declared hidden but visible",
            ),
            ({"max_steps": 2.5}, "max_steps must be a non-negative integer"),
            ({"max_steps": True}, "max_steps must be a non-negative integer"),
            ({"max_steps": -3}, "max_steps must be a non-negative integer"),
            ({"mode": "clairvoyant"}, "unknown mode"),
            ({"goals": []}, "needs at least one goal"),
            # The horizon closes 10 * 0.1 * (2.0 + 0.5) m, plus d_safe 0.5 and
            # r_robot 0.2: 3.2 m, past a 3 m max-range arc.
            ({"lidar": LidarParams(max_range=3.0)}, "below the 3.2 m the horizon can close"),
            # 0.5 m left of xmin: no plan is feasible, not even standing
            # still, so every step would apply the fallback and stay put.
            ({"mpc": MpcParams(state_bounds=(0.5, 10, -3, 6))}, "initial pose is outside the track limits"),
            # 0.2 m past xmax: every applied plan ends more than
            # GOAL_TOLERANCE = 0.1 m short of it.
            ({"goals": [np.array([8.0, 0.0]), np.array([10.2, 0.0])]}, "beyond reach outside the track limits"),
        ],
        ids=[
            "start-in-obstacle",
            "start-near-wall",
            "agent-too-fast",
            "agent-too-fast-per-step",
            "hidden-agent-in-sight",
            "max-steps-not-integer",
            "max-steps-bool",
            "max-steps-negative",
            "unknown-mode",
            "no-goals",
            "lidar-range-below-horizon",
            "start-off-track",
            "goal-off-track",
        ],
    )
    def test_refused_when_built(self, bad, message):
        with pytest.raises(ValueError, match=message):
            corner_scenario(**bad)
        with pytest.raises(ValueError, match=message):
            corner_scenario().with_overrides(**bad)

    def test_track_edges_accepted(self):
        # A start within feas_tol of the track limits keeps its stationary
        # floor, and a goal within GOAL_TOLERANCE + feas_tol of them is within
        # GOAL_TOLERANCE of a point a plan can reach.
        corner_scenario(mpc=MpcParams(state_bounds=(5e-7, 10, -3, 6)), goals=[np.array([10.1, 0.0])])

    def test_goals_are_not_changed_in_place(self):
        # A goal changed after the checks ran would go unchecked: the goals
        # are read-only copies in a tuple.
        goal = np.array([8.0, 0.0])
        scenario = corner_scenario().with_overrides(goals=[goal])
        goal[0] = math.nan
        assert scenario.goals[0].tolist() == [8.0, 0.0]
        with pytest.raises(AttributeError):
            scenario.goals.append(np.array([math.nan, 0.0]))
        with pytest.raises(ValueError):
            scenario.goals[0][0] = math.nan
        with pytest.raises(ValueError):
            scenario.with_overrides(goals=[*scenario.goals, np.array([math.nan, 0.0])])

    def test_fields_are_not_reassigned(self):
        # A field set after the checks ran would go unchecked.
        scenario = corner_scenario()
        with pytest.raises(FrozenInstanceError):
            scenario.robot_init = RobotState(3.0, 2.9, 0.0)


@pytest.mark.xfail(strict=True, reason="the track limits bound the robot's centre, not its disk (ROADMAP item 10)")
@pytest.mark.parametrize("bounds", [(-1, 3, -1, 1), None])
def test_robot_disk_stays_off_the_outer_wall(bounds):
    # downsample drops the scan's hits on the map boundary, relying on the
    # track limits to keep the robot in; but they bound its centre, so a goal
    # 0.05 m from the wall draws the robot's disk into it (contact at step 16
    # with these limits and with none).
    scenario = Scenario(
        name="wall",
        world=WorldMap(boundary=rectangle(-1, -1, 3, 1)),
        robot_init=RobotState(0.0, 0.0, 0.0),
        goals=[np.array([2.95, 0.0])],
        mpc=MpcParams(state_bounds=bounds),
        mode=MODE_BASELINE,
        max_steps=40,
    )
    log, _ = run(scenario)
    assert not any(rec.collision for rec in log)


class _Teleporter(AgentScript):
    """Jumps from its first waypoint to its last at tau = 0.15 s, breaking
    any speed bound."""

    def position(self, tau):
        return self.waypoints[0 if tau < 0.15 else -1].copy()


class TestTerminalReason:
    # "goal" and "budget" are checked in TestClosedLoop.
    def test_collision(self, tmp_path):
        # A pedestrian standing 0.1 m ahead of the robot: contact after one step.
        ped = AgentScript(waypoints=np.array([[0.1, 0.0]]), speed=0.0)
        log, metrics = run(corner_scenario().with_overrides(agents=[ped]))
        assert len(log) == 1 and log.records[0].collision
        summary = summary_of(log, tmp_path)
        assert summary["collision steps"] == "1 [0]"
        assert summary["collision steps by motion"] == "moving [0], stopped []"  # driven into it at 2 m/s
        assert metrics.terminal_reason == "collision"

    def test_collision_on_the_goal_step_keeps_the_goal_time(self, monkeypatch):
        # Contact on the step that reaches the goal: the run ends as a
        # collision, and the goal time is still that step's end.
        goal = np.array([1.0, 0.0])
        scenario = Scenario(
            name="open", world=WorldMap(), robot_init=RobotState(0.0, 0.0, 0.0), goals=[goal], max_steps=64
        )

        def at_goal(robot, *_):
            return bool(np.hypot(*(robot.position() - goal)) <= GOAL_TOLERANCE)

        monkeypatch.setattr(oampc.sim_engine, "ground_truth_collision", at_goal)
        log, metrics = run(scenario)
        assert metrics.terminal_reason == "collision" and metrics.goals_reached == 1
        assert log.records[-1].collision and not any(rec.collision for rec in log.records[:-1])
        assert metrics.time_to_goal == log.records[-1].tau + scenario.mpc.dt

    def test_model_violation_returns_partial_log(self):
        ped = _Teleporter(waypoints=np.array([[8.0, 4.0], [8.0, 5.0]]), speed=0.5)
        log, metrics = run(corner_scenario().with_overrides(agents=[ped]))
        # The step at tau = 0.1 s sees the jump: the log holds the one before.
        assert len(log) == 1
        assert metrics.terminal_reason == "model_violation"

    def test_pose_in_obstacle_returns_partial_log(self, monkeypatch):
        # An actuator fault puts the robot in the middle of the upper block,
        # more than r_robot from its edges, so no contact is seen; the next
        # scan starts inside the obstacle.
        monkeypatch.setattr(oampc.sim_engine, "dynamics_step", lambda *_: RobotState(3.0, 2.9, 0.0))
        log, metrics = run(corner_scenario())
        assert len(log) == 1 and not log.records[0].collision
        assert metrics.terminal_reason == "pose_in_obstacle"


class TestJsonLines:
    def test_round_trip(self, tmp_path):
        log, _ = run(corner_scenario().with_overrides(max_steps=12))
        path = tmp_path / "corner.jsonl"
        log.write_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == len(log) == 12
        for row, rec in zip(rows, log):
            assert row.keys() == {f.name for f in fields(StepRecord)}
            for name in ("state", "applied_input"):
                assert np.array_equal(np.array(row[name]), getattr(rec, name))
            assert np.array_equal(np.array(row["plan"]["states"]), rec.plan.states)
            assert np.array_equal(np.array(row["plan"]["inputs"]), rec.plan.inputs)
            assert row["plan"].keys() == {"states", "inputs"}
            for name in (
                "tau",
                "sense_ms",
                "reach_ms",
                "project_ms",
                "solve_ms",
                "audit_ms",
                "stop_index",
                "sqp_iterations",
                "qp_iterations",
                "qp_solves",
                "penalty_rungs",
                "probes",
                "infeasible_probes",
                "search",
                "occlusion_clearance",
                "agent_clearance",
                "static_clearance",
                "fallback_used",
                "audit_violation",
                "fallback_violation",
                "collision",
                "n_boundaries",
                "n_families",
            ):
                assert row[name] == getattr(rec, name), name
        with pytest.raises(ValueError, match="log time must be strictly increasing"):
            log.append(log.records[-1])

    def test_summary(self, tmp_path, capsys):
        log, _ = run(corner_scenario().with_overrides(max_steps=12))
        path = tmp_path / "corner.jsonl"
        log.write_jsonl(path)
        summarize_main([str(path)])
        out = capsys.readouterr().out
        lines = dict(line.split(":", 1) for line in out.splitlines() if ":" in line)
        assert int(lines["steps"]) == 12
        solve_ms = [rec.solve_ms for rec in log]
        assert lines["solve ms"].split() == [f"{np.percentile(solve_ms, q):.2f}" for q in (50, 99)]
        step_ms = [rec.sense_ms + rec.reach_ms + rec.project_ms + rec.solve_ms + rec.audit_ms for rec in log]
        assert lines["step ms"].split() == [f"{np.percentile(step_ms, q):.2f}" for q in (50, 99)]
        misses = sum(t > 100.0 for t in step_ms)
        assert int(lines["steps over dt (100 ms)"]) == misses
        assert int(lines["fallback steps"]) == 0
        tol = MpcParams().feas_tol
        failed = [k for k, rec in enumerate(log) if rec.fallback_used or rec.audit_violation > tol or rec.collision]
        assert lines["failed steps"].strip() == f"{len(failed)} {failed}"
        assert float(lines["largest audit_violation"]) == max(rec.audit_violation for rec in log)
        shift = [rec.fallback_violation for rec in log]
        above = [k for k, v in enumerate(shift) if v > MpcParams().feas_tol]
        want = f"{max(shift)!r} at step {int(np.argmax(shift))}, above feas_tol at {len(above)} steps {above}"
        assert lines["largest fallback_violation"].strip() == want
        assert lines["collision steps"].strip() == "0 []"
        assert lines["collision steps by motion"].strip() == "moving [], stopped []"
        # The near misses: each smallest clearance, exact, with its step.
        near = []
        for name in ("occlusion", "agent", "static"):
            values = [getattr(rec, f"{name}_clearance") for rec in log]
            k = int(np.argmin(values))
            near.append(f"{name} {values[k]!r} at step {k}")
        assert lines["smallest clearance (m)"].strip() == ", ".join(near)
        relaxed = [k for k, rec in enumerate(log) if rec.relaxed_rows]
        mean = np.mean([rec.relaxed_rows for rec in log])
        assert lines["relaxed rows per step"].strip() == f"{mean:.1f}, nonzero at steps {relaxed}"
        excess = [rec.relaxed_excess for rec in log]
        at = f" at step {int(np.argmax(excess))}" if relaxed else ""
        assert lines["largest relaxed_excess"].strip() == f"{max(excess)!r}{at}"
        for label, name in (
            ("probes", "probes"),
            ("infeasible probes", "infeasible_probes"),
            ("SQP iterations", "sqp_iterations"),
            ("QP solves", "qp_solves"),
            ("penalty rungs", "penalty_rungs"),
            ("interior-point iterations", "qp_iterations"),
        ):
            mean = np.mean([getattr(rec, name) for rec in log])
            assert lines[f"{label} per step"].strip() == f"{mean:.1f}"
        # The corner run climbs the penalty ladder.
        assert sum(rec.penalty_rungs for rec in log) > 0
        phases = lines["steps by search phase"].split()
        assert phases[::2] == ["full", "hint", "sweep"]
        assert [int(c) for c in phases[1::2]] == [sum(rec.search == p for rec in log) for p in phases[::2]]
        per_iteration = [1e3 * rec.solve_ms / rec.qp_iterations for rec in log if rec.qp_iterations]
        assert len(per_iteration) > 1
        want = [f"{np.percentile(per_iteration, q):.1f}" for q in (50, 99)]
        assert lines["us per interior-point iteration"].split() == want
        # The five slowest steps, slowest first.
        counters = ["probes", "infeasible_probes", "sqp_iterations", "qp_solves", "penalty_rungs", "qp_iterations"]
        assert lines["slowest steps"].split() == ["step_ms", "search", *counters]
        listed = [key for key in lines if key.removeprefix("step ").isdigit()]
        slowest = sorted(range(len(log)), key=lambda k: -step_ms[k])[:5]
        assert listed == [f"step {k}" for k in slowest]
        for k in slowest:
            rec = log.records[k]
            want = [f"{step_ms[k]:.2f}", rec.search, *(str(getattr(rec, name)) for name in counters)]
            assert lines[f"step {k}"].split() == want
        # The same summary from the command line.
        src = str(Path(oampc.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "oampc.summarize", str(path)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == out
        # Failed steps as the benchmark counts them, one rule with the
        # comparison's totals: a fallback step, an audit above feas_tol and a
        # collision fail; an audit exactly at feas_tol does not.
        rows = read(path)
        for row in rows:
            row.update(fallback_used=False, audit_violation=0.0, collision=False)
        rows[2].update(fallback_used=True)
        rows[5].update(audit_violation=2 * tol)
        rows[7].update(audit_violation=tol)
        rows[9].update(collision=True)
        assert dict(line.split(": ", 1) for line in summarize(rows))["failed steps"] == "3 [2, 5, 9]"
        assert totals(rows)["failed steps"] == 3

    def test_collisions_are_moving_or_stopped(self, tmp_path):
        # A collision step is moving (at fault) when its translation over the
        # step, dt times its logged applied speed, in either direction, is
        # above feas_tol (1e-6 m over dt 0.1 s: 1e-5 m/s), and stopped
        # (passive contact) otherwise, turning in place and a solver's creep
        # of 1.9e-6 m/s included.
        log, _ = run(corner_scenario().with_overrides(max_steps=6))
        path = tmp_path / "corner.jsonl"
        log.write_jsonl(path)
        rows = read(path)
        for k, speed in ((1, 0.5), (2, 0.0), (3, 1.9e-6), (4, -1.1e-5), (5, 9e-6)):
            rows[k].update(collision=True, applied_input=[speed, 0.3])
        lines = dict(line.split(": ", 1) for line in summarize(rows))
        assert lines["collision steps"] == "5 [1, 2, 3, 4, 5]"
        assert lines["collision steps by motion"] == "moving [1, 4], stopped [2, 3, 5]"

    def test_failed_steps_that_moved(self, tmp_path):
        # A failed step moved when its translation, dt times its logged
        # applied speed, in either direction, is above feas_tol, as a
        # collision step does; a moving step that did not fail is not
        # counted. The comparison's totals count them alike.
        log, _ = run(corner_scenario().with_overrides(max_steps=6))
        path = tmp_path / "corner.jsonl"
        log.write_jsonl(path)
        rows = read(path)
        for row in rows:
            row.update(fallback_used=False, audit_violation=0.0, collision=False, applied_input=[0.0, 0.3])
        tol = MpcParams().feas_tol
        rows[1].update(fallback_used=True, applied_input=[0.5, 0.0])
        rows[2].update(audit_violation=2 * tol, applied_input=[1.9e-6, 0.3])
        rows[3].update(collision=True, applied_input=[-1.1e-5, 0.0])
        rows[4].update(applied_input=[0.5, 0.0])
        rows[5].update(audit_violation=2 * tol)
        lines = dict(line.split(": ", 1) for line in summarize(rows))
        assert lines["failed steps"] == "4 [1, 2, 3, 5]"
        assert lines["failed moving steps"] == "2 [1, 3]"
        assert totals(rows)["failed moving steps"] == 2
        for row in rows:
            row.update(applied_input=[0.0, 0.0])
        assert totals(rows)["failed moving steps"] == 0

    def test_relaxed_rows_and_their_steps(self, tmp_path):
        # The relaxed rows per step with the steps that have any, and the
        # largest strict excess with its step; without any, no step.
        log, _ = run(corner_scenario().with_overrides(max_steps=6))
        path = tmp_path / "corner.jsonl"
        log.write_jsonl(path)
        rows = read(path)
        for row in rows:
            row.update(relaxed_rows=0, relaxed_excess=0.0)
        lines = dict(line.split(": ", 1) for line in summarize(rows))
        assert lines["relaxed rows per step"] == "0.0, nonzero at steps []"
        assert lines["largest relaxed_excess"] == "0.0"
        rows[2].update(relaxed_rows=3, relaxed_excess=0.25)
        rows[4].update(relaxed_rows=1, relaxed_excess=0.5)
        lines = dict(line.split(": ", 1) for line in summarize(rows))
        assert lines["relaxed rows per step"] == "0.7, nonzero at steps [2, 4]"
        assert lines["largest relaxed_excess"] == "0.5 at step 4"

    def test_fallback_violation_and_its_steps(self, tmp_path):
        # The largest audit violation of the shift with its step, and the
        # steps where it is above feas_tol; one at feas_tol is not.
        log, _ = run(corner_scenario().with_overrides(max_steps=6))
        path = tmp_path / "corner.jsonl"
        log.write_jsonl(path)
        rows = read(path)
        for row in rows:
            row.update(fallback_violation=0.0)
        lines = dict(line.split(": ", 1) for line in summarize(rows))
        assert lines["largest fallback_violation"] == "0.0 at step 0, above feas_tol at 0 steps []"
        tol = MpcParams().feas_tol
        for k, value in ((1, tol), (2, 0.25), (4, 0.5), (5, 2 * tol)):
            rows[k].update(fallback_violation=value)
        lines = dict(line.split(": ", 1) for line in summarize(rows))
        assert lines["largest fallback_violation"] == "0.5 at step 4, above feas_tol at 3 steps [2, 4, 5]"

    def test_summary_of_an_empty_log(self, tmp_path, capsys):
        # A run with no step budget ends on the budget with an empty log,
        # whose summary is its step count.
        log, metrics = run(corner_scenario().with_overrides(max_steps=0))
        assert len(log) == 0
        assert metrics == Metrics(time_to_goal=None, goals_reached=0, terminal_reason="budget")
        path = tmp_path / "empty.jsonl"
        log.write_jsonl(path)
        assert path.read_text() == ""
        assert summarize_main([str(path)]) == 0
        assert capsys.readouterr().out == "steps: 0\n"

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # A reader that leaves early, as `| head -4` does: the read end of the
        # pipe is closed before the comparison writes a line.
        log, _ = run(corner_scenario().with_overrides(max_steps=2))
        path = tmp_path / "corner.jsonl"
        log.write_jsonl(path)
        src = str(Path(oampc.__file__).parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "oampc.summarize", str(path), "--against", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": src}, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 0
        assert done.stderr == ""

    def test_a_log_with_probe_ms_reads_as_one_without(self, tmp_path, capsys):
        # Logs written before probe_ms was dropped carry it at every step:
        # they summarize as before and compare the same as the log without it.
        log, _ = run(corner_scenario().with_overrides(max_steps=3))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        log.write_jsonl(a)
        rows = read(a)
        assert "probe_ms" not in rows[0]
        b.write_text("".join(json.dumps({**row, "probe_ms": 0.5 * row["solve_ms"]}) + "\n" for row in rows))
        assert summarize(read(b)) == summarize(rows)
        assert summarize_main([str(a), "--against", str(b)]) == 0
        assert "first step that differs: none" in capsys.readouterr().out

    def test_against(self, tmp_path, capsys):
        log, _ = run(corner_scenario().with_overrides(max_steps=6))
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        log.write_jsonl(a)
        rows = [json.loads(line) for line in a.read_text().splitlines()]
        # Times may differ; so may a field only one log has.
        for row in rows:
            row["solve_ms"] += 1.0
            del row["search"]
        b.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert summarize_main([str(a), "--against", str(b)]) == 0
        out = capsys.readouterr().out
        assert "first step that differs: none" in out
        assert "first plan difference: none" in out
        assert "probes: {0} against {0} (+0), 0 steps differ".format(sum(rec.probes for rec in log)) in out
        sqp_iterations = sum(rec.sqp_iterations for rec in log)
        assert f"SQP iterations: {sqp_iterations} against {sqp_iterations} (+0), 0 steps differ" in out
        # The outcomes of each log, failed steps counted as the benchmark
        # counts them.
        tol = MpcParams().feas_tol
        failed = sum(rec.fallback_used or rec.audit_violation > tol or rec.collision for rec in log)
        worst = max(rec.audit_violation for rec in log)
        assert failed == 0
        # The steps attempted come first among the outcomes, next to the
        # failed ones.
        assert f"\nsteps: 6 against 6\nfailed steps: {failed} against {failed}\n" in out
        assert "moving collision steps: 0 against 0\n" in out and "stopped collision steps: 0 against 0\n" in out
        assert f"largest audit_violation: {worst!r} against {worst!r}\n" in out
        # Outcomes that moved, in the second log: a moving and a stopped
        # collision, a fallback, and audit violations above and at feas_tol.
        moved = json.loads(json.dumps(rows))
        moved[1].update(collision=True, applied_input=[0.5, 0.0])
        moved[2].update(audit_violation=tol)
        moved[3].update(collision=True, applied_input=[0.0, 0.3])
        moved[4].update(audit_violation=2.0)
        moved[5].update(fallback_used=True)
        b.write_text("".join(json.dumps(row) + "\n" for row in moved))
        assert summarize_main([str(a), "--against", str(b)]) == 1
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["failed steps"] == "0 against 4"
        # The run drives on at steps 4 and 5, so they fail moving, as the
        # moving collision at step 1 does.
        assert min(abs(moved[k]["applied_input"][0]) for k in (4, 5)) > 0.1
        assert lines["failed moving steps"] == "0 against 3"
        assert lines["moving collision steps"] == "0 against 1"
        assert lines["stopped collision steps"] == "0 against 1"
        assert lines["largest audit_violation"] == f"{worst!r} against 2.0"
        # Counters that move with every plan the same: two fewer SQP
        # iterations at step 2, and the plans read as the same.
        rows[2]["sqp_iterations"] -= 2
        b.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert summarize_main([str(a), "--against", str(b)]) == 1
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["first step that differs"] == f"2 (tau {log.records[2].tau!r}): sqp_iterations"
        assert lines["first plan difference"] == "none"
        assert lines["SQP iterations"].endswith("(+2), 1 steps differ")
        rows[2]["sqp_iterations"] += 2
        # A plan input off by one unit in the last place at step 4, and one
        # more QP solve there.
        rows[4]["plan"]["inputs"][2][0] = float(np.nextafter(rows[4]["plan"]["inputs"][2][0], 9.0))
        rows[4]["qp_solves"] += 1
        b.write_text("".join(json.dumps(row) + "\n" for row in rows))
        assert summarize_main([str(a), "--against", str(b)]) == 1
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["first step that differs"] == f"4 (tau {log.records[4].tau!r}): plan qp_solves"
        assert lines["first plan difference"] == f"4 (tau {log.records[4].tau!r}): plan"
        assert "plan inputs 0.0" not in lines["largest difference"]
        assert lines["QP solves"].endswith("(-1), 1 steps differ")
        # A shorter log differs too, from the first step it lacks, even when
        # the steps both logs have are the same.
        b.write_text("".join(json.dumps(row) + "\n" for row in rows[:4]))
        for first, second in ((a, b), (b, a)):
            assert summarize_main([str(first), "--against", str(second)]) == 1
            lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
            assert lines["steps"] == ("6 against 4" if first is a else "4 against 6")
            assert lines["first step that differs"] == f"4 (tau {log.records[4].tau!r}): in one log only"
            assert lines["first plan difference"] == f"4 (tau {log.records[4].tau!r}): in one log only"
        # So do two logs whose plans have different horizons: their plans
        # have no elementwise difference, which reads as inf.
        scn = corner_scenario().with_overrides(max_steps=2)
        run(scn)[0].write_jsonl(a)
        run(scn.with_overrides(mpc=replace(scn.mpc, N=12)))[0].write_jsonl(b)
        assert summarize_main([str(a), "--against", str(b)]) == 1
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert lines["first step that differs"].startswith("0 (tau 0.0): ")
        assert "plan" in lines["first step that differs"].split(": ")[1].split()
        assert lines["first plan difference"].startswith("0 (tau 0.0): ")
        assert "plan" in lines["first plan difference"].split(": ")[1].split()
        assert "plan states inf, plan inputs inf" in lines["largest difference"]
