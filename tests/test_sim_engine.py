import numpy as np

import oampc.sim_engine
from oampc.geometry import Point2, Segment
from oampc.nmpc import MpcParams, check_feasibility
from oampc.reachability import AgentModel
from oampc.sim_engine import (
    MODE_OCCLUSION_AWARE,
    AgentScript,
    Scenario,
    ground_truth_collision,
    run,
)
from oampc.unicycle import RobotState
from oampc.world import WorldMap, rectangle

from oracles import segment_distance


class TestGroundTruthCollision:
    WALL = WorldMap(walls=[Segment(Point2(-1, 0), Point2(1, 0))])

    def test_closed_contact_with_wall(self):
        assert ground_truth_collision(RobotState(0.5, 0.5, 0.0), [], [], self.WALL, r_robot=0.5)
        assert not ground_truth_collision(RobotState(0.5, 0.50001, 0.0), [], [], self.WALL, r_robot=0.5)

    def test_closed_contact_with_agent(self):
        robot = RobotState(0.0, 3.0, 0.0)
        assert ground_truth_collision(robot, [np.array([0.5, 3.0])], [0.25], self.WALL, r_robot=0.25)
        assert not ground_truth_collision(robot, [np.array([0.5, 3.0])], [0.2], self.WALL, r_robot=0.25)

    def test_empty_world_no_agents(self):
        assert not ground_truth_collision(RobotState(0.0, 0.0, 0.0), [], [], WorldMap(), r_robot=0.2)

    def test_matches_segment_oracle(self):
        rng = np.random.default_rng(29)
        world = WorldMap(boundary=rectangle(-5, -5, 5, 5), obstacles=[rectangle(-1, -1, 1, 1)])
        edges = [(poly[i], poly[(i + 1) % 4]) for poly in (world.boundary, *world.obstacles) for i in range(4)]
        for p in rng.uniform(-5, 5, size=(300, 2)):
            clearance = min(float(segment_distance(p, a, b)[0]) for a, b in edges)
            got = ground_truth_collision(RobotState(p[0], p[1], 0.0), [], [], world, r_robot=0.3)
            assert got == (clearance <= 0.3)


def corner_scenario() -> Scenario:
    """Two blocks leave a 1.6 m corridor at 2 <= x <= 4; a pedestrian walks
    down x = 4.8 at 0.5 m/s, hidden behind the upper block at the start."""
    world = WorldMap(
        boundary=rectangle(-1, -3, 10, 6),
        obstacles=[rectangle(2, 0.8, 4, 5), rectangle(2, -3, 4, -0.8)],
    )
    ped = AgentScript(waypoints=np.array([[4.8, 4.5], [4.8, -2.5]]), speed=0.5, initially_hidden=True)
    return Scenario(
        name="corner",
        world=world,
        robot_init=RobotState(0.0, 0.0, 0.0),
        goals=[np.array([8.0, 0.0])],
        agents=[ped],
        mpc=MpcParams(state_bounds=(-1, 10, -3, 6)),
        agent_model=AgentModel(0.5),
        mode=MODE_OCCLUSION_AWARE,
        max_steps=64,
    )


class TestClosedLoop:
    def test_corner_reaches_goal_safely(self, monkeypatch):
        problems = []
        solve = oampc.sim_engine.solve

        def recorded_solve(problem):
            problems.append(problem)
            return solve(problem)

        monkeypatch.setattr(oampc.sim_engine, "solve", recorded_solve)
        log, metrics = run(corner_scenario())
        assert metrics.goals_reached == 1
        assert metrics.steps <= 64
        assert not metrics.collision
        assert not any(rec.collision for rec in log)
        assert metrics.fallback_invocations == 0
        # Every applied plan carries its own audit.
        assert len(problems) == len(log)
        for rec, problem in zip(log, problems):
            report = check_feasibility(
                rec.plan, problem.projections, problem.static_circles, problem.params, z_init=rec.state
            )
            assert rec.audit_violation == report.max_violation

    def test_solver_counters_logged_and_repeatable(self):
        scenario = corner_scenario().with_overrides(max_steps=4)
        first, _ = run(scenario)
        second, _ = run(scenario)
        counters = [(rec.sqp_iterations, rec.qp_iterations) for rec in first]
        assert len(counters) == 4
        assert all(qp >= sqp > 0 for sqp, qp in counters)
        assert counters == [(rec.sqp_iterations, rec.qp_iterations) for rec in second]
