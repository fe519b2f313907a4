import math

import numpy as np
import pytest

from oampc.avoidance import OpenLoopPlan, project_plan, ProjectionSet
from oampc.geometry import Disk, Point2, Segment
from oampc.lidar_sim import OcclusionBoundary, PointCloudCircle
from oampc.nmpc import (
    ControlInput,
    FeasibilityReport,
    MpcParams,
    NlpProblem,
    RobotState,
    _NlpEvaluator,
    check_feasibility,
    dynamics_step,
    fallback_plan,
    solve,
    total_cost,
)
from oampc.reachability import AgentModel, build_capsules, build_disks
from oampc.unicycle import rollout, sensitivities

from oracles import (
    avoidance_margins_loop,
    input_hessian_loop,
    planner_avoidance_rows,
    rollout_loop,
    sensitivities_recursion,
)


def empty_projections(n):
    return ProjectionSet((), horizon=n)


def make_problem(z0, goal, params=None, families=(), circles=(), warm=None, u_prev=None):
    params = params or MpcParams()
    n = params.N
    warm = warm or OpenLoopPlan.stationary(np.asarray(z0, dtype=float), n, 0)
    shifted = fallback_plan(warm).positions()[1:]
    projections = project_plan(shifted, list(families)) if families else empty_projections(n)
    goal3 = np.array([goal[0], goal[1], 0.0]) if len(goal) == 2 else np.asarray(goal, float)
    return NlpProblem(
        z0=np.asarray(z0, dtype=float),
        goal=goal3,
        projections=projections,
        static_circles=list(circles),
        params=params,
        warm_start=warm,
        u_prev=np.zeros(2) if u_prev is None else u_prev,
    )


class TestDynamicsStep:
    def test_straight(self):
        z = dynamics_step(RobotState(0, 0, 0), ControlInput(1, 0), 0.1)
        assert (z.x, z.y, z.psi) == pytest.approx((0.1, 0.0, 0.0))

    def test_heading_up(self):
        z = dynamics_step(RobotState(0, 0, math.pi / 2), ControlInput(2, 0), 0.1)
        assert z.x == pytest.approx(0.0, abs=1e-15)
        assert z.y == pytest.approx(0.2)
        assert z.psi == pytest.approx(math.pi / 2)

    def test_pure_rotation(self):
        z = dynamics_step(RobotState(1, 1, 0), ControlInput(0, 1), 0.1)
        assert (z.x, z.y, z.psi) == pytest.approx((1.0, 1.0, 0.1))


class TestTotalCost:
    def test_plan_at_goal_zero(self):
        params = MpcParams()
        plan = OpenLoopPlan.stationary(np.array([1.0, 2.0, 0.0]), params.N, 0)
        assert total_cost(plan, np.array([1.0, 2.0, 0.0]), params) == 0.0

    def test_single_input_unit_cost(self):
        params = MpcParams(q_state=(0, 0, 0), q_input=(1, 1), q_input_rate=(1e-12, 1e-12))
        inputs = np.zeros((params.N, 2))
        inputs[0] = [1.0, 0.0]
        states = rollout(np.zeros(3), inputs, params.dt)
        plan = OpenLoopPlan(states, inputs, 0)
        cost = total_cost(plan, np.zeros(3), params, u_prev=np.array([1.0, 0.0]))
        # Input effort 1; the rate terms are epsilon-weighted.
        assert cost == pytest.approx(1.0, abs=1e-9)

    def test_matches_naive_resummation(self):
        rng = np.random.default_rng(0)
        params = MpcParams(
            q_state=(10, 10, 0.5), q_input=(1, 2), q_input_rate=(0.5, 0.25), N=8
        )
        for _ in range(20):
            inputs = rng.uniform([-0.5, -1], [2, 1], size=(params.N, 2))
            z0 = rng.uniform(-1, 1, 3)
            goal = rng.uniform(-2, 2, 3)
            u_prev = rng.uniform(-1, 1, 2)
            states = rollout(z0, inputs, params.dt)
            plan = OpenLoopPlan(states, inputs, 0)
            got = total_cost(plan, goal, params, u_prev)

            # Naive term-by-term oracle.
            Qz, Qu, Qdu = params.Qz, params.Qu, params.Qdu
            want = 0.0
            for k in range(params.N + 1):
                e = states[k] - goal
                want += e @ Qz @ e
            prev = u_prev
            for k in range(params.N):
                want += inputs[k] @ Qu @ inputs[k]
                d = inputs[k] - prev
                want += d @ Qdu @ d
                prev = inputs[k]
            assert got == pytest.approx(want, abs=1e-12)


class TestGradients:
    """Evaluator derivatives against central differences at every stop
    index 1..N-1."""

    def test_cost_gradient_matches_central_differences(self):
        rng = np.random.default_rng(1)
        params = MpcParams(q_state=(10, 10, 0.3), q_input=(1.5, 0.5), q_input_rate=(0.7, 2.0), N=6)
        rel_errs = []
        for _ in range(100):
            problem = make_problem(rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 2), params,
                                   u_prev=rng.uniform(-1, 1, 2))
            for j in range(1, params.N):
                ev = _NlpEvaluator(problem, stop_index=j)
                x = rng.uniform([params.v_min, params.delta_min] * j, [params.v_max, params.delta_max] * j)
                res = ev(x)
                h = 1e-6
                fd = np.zeros_like(x)
                for i in range(len(x)):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    fd[i] = (ev(xp).f - ev(xm).f) / (2 * h)
                denom = max(1.0, np.abs(fd).max())
                rel_errs.append(np.abs(res.grad - fd).max() / denom)
        assert max(rel_errs) <= 1e-5

    def test_constraint_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(2)
        params = MpcParams(N=5, state_bounds=(-5, 5, -5, 5))
        seg = OcclusionBoundary(Segment(Point2(1.5, 0.5), Point2(2.5, 1.0)), 0)
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        circles = [PointCloudCircle(Point2(0.5, -1.0), 0.15)]
        problem = make_problem([0, 0, 0.3], [3, 1], params, families=[fam], circles=circles)
        for _ in range(20):
            for j in range(1, params.N):
                ev = _NlpEvaluator(problem, stop_index=j)
                x = rng.uniform(-0.5, 1.5, 2 * j)
                res = ev(x)
                if len(res.c) == 0:
                    continue
                h = 1e-6
                fd = np.zeros_like(res.jac)
                for i in range(len(x)):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    fd[:, i] = (ev(xp).c - ev(xm).c) / (2 * h)
                assert np.abs(res.jac - fd).max() <= 1e-5


class TestSingleShootingModel:
    """The closed forms of the model against the step-by-step forms they
    replace, kept in tests/oracles.py."""

    def test_rollout_equals_step_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 15))
            inputs = rng.uniform([-1.0, -4.0], [2.5, 4.0], (n, 2))
            inputs[rng.integers(0, n + 1) :] = 0.0  # a zero tail, possibly empty
            z0 = rng.uniform(-10.0, 10.0, 3)
            dt = float(rng.uniform(0.01, 0.5))
            got, want = rollout(z0, inputs, dt), rollout_loop(z0, inputs, dt)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_input_hessian_equals_loop_at_every_stop_index(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            params = MpcParams(
                N=int(rng.integers(2, 13)),
                q_input=tuple(rng.uniform(0.1, 5.0, 2)),
                q_input_rate=tuple(rng.uniform(0.1, 5.0, 2)),
            )
            problem = make_problem([0, 0, 0], [1, 0], params)
            for j in range(1, params.N):
                got = _NlpEvaluator(problem, j)._hess_input
                want = input_hessian_loop(params, j)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_sensitivities_match_recursion(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            dt = float(rng.uniform(0.05, 0.3))
            z0 = rng.uniform(-5.0, 5.0, 3)
            inputs = rng.uniform([-0.5, -4.0], [2.0, 4.0], (n, 2))
            for j in range(1, n):
                u = inputs.copy()
                u[j:] = 0.0
                states = rollout(z0, u, dt)
                got = sensitivities(states, j, dt)
                assert got.shape == (n + 1, 3, 2 * j)
                assert np.abs(got - sensitivities_recursion(states, u, j, dt)).max() <= 1e-12

    def test_evaluator_cost_is_total_cost(self):
        # A probe's cost is the SQP objective, so it must be the very number
        # total_cost gives its plan.
        rng = np.random.default_rng(14)
        params = MpcParams(N=6, q_state=(10, 7, 0.3), q_input=(1.5, 0.5), q_input_rate=(0.7, 2.0),
                           state_bounds=(-5, 5, -5, 5))
        seg = OcclusionBoundary(Segment(Point2(1.0, 0.4), Point2(2.0, 1.0)), 0)
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        problem = make_problem([0, 0, 0.3], [3, 1], params, families=[fam], u_prev=np.array([0.4, -0.2]))
        for j in range(1, params.N):
            ev = _NlpEvaluator(problem, j)
            for _ in range(5):
                x = rng.uniform(np.tile([-0.5, -2.0], j), np.tile([2.0, 2.0], j))
                u = ev.full_inputs(x)
                plan = OpenLoopPlan(rollout(problem.z0, u, params.dt), u, 0)
                assert ev(x).f == total_cost(plan, problem.goal, params, problem.u_prev)


class TestSolve:
    def test_free_drive_to_goal(self):
        problem = make_problem([0, 0, 0], [1, 0])
        res = solve(problem)
        assert res.status == "optimal"
        assert res.plan.inputs[0, 0] > 0.0  # drives forward
        # Terminal stop.
        assert np.linalg.norm(res.plan.states[-1] - res.plan.states[-2]) <= 1e-6
        # Goal distance decreases along the horizon.
        d = np.hypot(res.plan.states[:, 0] - 1.0, res.plan.states[:, 1])
        assert d[-1] < d[0]

    def test_at_goal_idle(self):
        problem = make_problem([1, 0, 0], [1, 0])
        res = solve(problem)
        assert res.status == "optimal"
        assert res.objective <= 1e-6
        assert np.abs(res.plan.inputs).max() <= 1e-3

    def test_dynamics_defect_tiny(self):
        problem = make_problem([0.3, -0.2, 0.4], [2, 1])
        res = solve(problem)
        predicted = rollout(res.plan.states[0], res.plan.inputs, problem.params.dt)
        assert np.abs(predicted - res.plan.states).max() <= 1e-12

    def test_respects_capsule_margin(self):
        params = MpcParams()
        seg = OcclusionBoundary(Segment(Point2(1.2, -0.5), Point2(1.2, 0.5)), 0)
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        problem = make_problem([0, 0, 0], [3, 0], params, families=[fam])
        res = solve(problem)
        assert res.status == "optimal"
        dmin = params.d_safe + params.r_robot
        proj = problem.projections.families[0]
        for k in range(1, res.stop_index + 1):
            dist = np.hypot(*(res.plan.states[k, :2] - proj.z_proj[k - 1]))
            assert dist >= dmin - params.feas_tol

    def test_stop_inside_margin_allowed(self):
        # The goal sits beyond an anchor blocking the way: the plan may move
        # then hold, with held steps tolerating margin violations.
        params = MpcParams()
        seg = OcclusionBoundary(Segment(Point2(0.9, -2.0), Point2(0.9, 2.0)), 0)
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        problem = make_problem([0, 0, 0], [3, 0], params, families=[fam])
        res = solve(problem)
        assert res.status == "optimal"
        report = check_feasibility(
            res.plan, problem.projections, [], params, z_init=problem.z0
        )
        assert report.ok(params.feas_tol)

    def test_infeasible_when_outside_track(self):
        params = MpcParams(state_bounds=(0.0, 1.0, 0.0, 1.0))
        problem = make_problem([5.0, 5.0, 0.0], [0.5, 0.5], params)
        res = solve(problem)
        assert res.status == "infeasible"

    def test_engulfing_anchors_never_block_and_never_worsen(self):
        # Anchors sitting on the robot leave the margin violated at the
        # start. The solve must still succeed (the stationary plan is always
        # admissible under the stop-speed semantics) and any motion it does
        # choose must not shrink the standoff to the engulfing anchor.
        params = MpcParams()
        fam = build_disks(Disk(Point2(0.0, 0.0), 0.05), AgentModel(0.0), params.dt, params.N)
        problem = make_problem([0, 0, 0], [3, 0], params, families=[fam])
        res = solve(problem)
        assert res.status == "optimal"
        proj = problem.projections.families[0]
        for k in range(1, params.N):
            gap0 = np.hypot(*(problem.z0[:2] - proj.z_proj[k - 1]))
            gap_k = np.hypot(*(res.plan.states[k, :2] - proj.z_proj[k - 1]))
            assert gap_k >= gap0 - params.feas_tol

    def test_never_degrades_feasible_warm_start(self):
        params = MpcParams()
        # Warm start: straight drive at 1 m/s for N-1 steps, then stop.
        inputs = np.zeros((params.N, 2))
        inputs[: params.N - 1, 0] = 1.0
        states = rollout(np.zeros(3), inputs, params.dt)
        warm = OpenLoopPlan(states, inputs, 0)
        problem = make_problem([0, 0, 0], [2, 0], warm=warm)
        res = solve(problem)
        ws_cost = total_cost(warm, problem.goal, params)
        assert res.status == "optimal"
        assert res.objective <= ws_cost + 1e-9

    def test_deterministic(self):
        params = MpcParams()
        seg = OcclusionBoundary(Segment(Point2(1.0, -0.3), Point2(1.4, 0.8)), 0)
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        p1 = make_problem([0, 0, 0.1], [3, 0.5], params, families=[fam])
        p2 = make_problem([0, 0, 0.1], [3, 0.5], params, families=[fam])
        r1, r2 = solve(p1), solve(p2)
        assert np.array_equal(r1.plan.inputs, r2.plan.inputs)
        assert r1.stop_index == r2.stop_index


class TestCheckFeasibility:
    def test_stopped_plan_inside_margin_ok(self):
        params = MpcParams()
        fam = build_disks(Disk(Point2(0, 0), 0.1), AgentModel(0.0), params.dt, params.N)
        plan = OpenLoopPlan.stationary(np.zeros(3), params.N, 0)
        shifted = fallback_plan(plan).positions()[1:]
        projections = project_plan(shifted, [fam])
        report = check_feasibility(plan, projections, [], params, z_init=np.zeros(3))
        assert report.ok(params.feas_tol)
        assert report.avoidance_margin.max() > 0  # inside the margin, reported

    def test_moving_plan_with_violation_flagged(self):
        params = MpcParams()
        fam = build_disks(Disk(Point2(0.5, 0.0), 0.1), AgentModel(0.0), params.dt, params.N)
        inputs = np.zeros((params.N, 2))
        inputs[: params.N - 1, 0] = 1.0
        states = rollout(np.zeros(3), inputs, params.dt)
        plan = OpenLoopPlan(states, inputs, 0)
        projections = project_plan(states[1:, :2], [fam])
        report = check_feasibility(plan, projections, [], params, z_init=np.zeros(3))
        assert not report.ok(params.feas_tol)
        assert report.complementarity.max() > params.feas_tol

    def test_solver_optimal_plan_clean(self):
        params = MpcParams(state_bounds=(-1, 4, -2, 2))
        seg = OcclusionBoundary(Segment(Point2(2.0, -0.5), Point2(2.0, 0.5)), 0)
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        problem = make_problem([0, 0, 0], [3.5, 0], params, families=[fam])
        res = solve(problem)
        report = check_feasibility(
            res.plan, problem.projections, problem.static_circles, params, z_init=problem.z0
        )
        assert report.ok(params.feas_tol)


class TestAvoidanceRows:
    """The planner's rows and the audit's margins come from one table; both
    are checked against one-row-at-a-time oracles."""

    @staticmethod
    def _random_rows(rng, params, n_families, n_circles):
        families = []
        for _ in range(n_families):
            a, b = rng.uniform(-2, 2, (2, 2))
            if rng.random() < 0.5:
                families.append(build_disks(Disk(Point2(*a), 0.1), AgentModel(0.5), params.dt, params.N))
            else:
                seg = OcclusionBoundary(Segment(Point2(*a), Point2(*b)), 0)
                families.append(build_capsules(seg, AgentModel(0.5), params.dt, params.N))
        circles = [
            PointCloudCircle(Point2(*rng.uniform(-2, 2, 2)), float(rng.uniform(0.1, 0.3)))
            for _ in range(n_circles)
        ]
        return families, circles

    @pytest.mark.parametrize("n_families,n_circles", [(3, 4), (2, 0), (0, 3), (0, 0)])
    def test_audit_margins_match_loop_oracle(self, n_families, n_circles):
        rng = np.random.default_rng(40 + 10 * n_families + n_circles)
        params = MpcParams()
        n = params.N
        for _ in range(20):
            families, circles = self._random_rows(rng, params, n_families, n_circles)
            inputs = rng.uniform([0.0, -2.0], [2.0, 2.0], (n, 2))
            states = rollout(rng.uniform(-1, 1, 3), inputs, params.dt)
            plan = OpenLoopPlan(states, inputs, 0)
            shifted = states[1:, :2] + rng.normal(0.0, 0.1, (n, 2))
            projections = project_plan(shifted, families) if families else empty_projections(n)
            report = check_feasibility(plan, projections, circles, params)
            want = avoidance_margins_loop(states, projections, circles, params)
            assert np.array_equal(report.avoidance_margin, want)

    def test_planner_rows_match_cull_then_relax_oracle(self):
        params = MpcParams()  # no track limits, so c holds the avoidance rows only
        seg = OcclusionBoundary(Segment(Point2(1.2, -0.5), Point2(1.2, 0.5)), 0)
        families = [
            build_capsules(seg, AgentModel(0.5), params.dt, params.N),
            # Its projection sits 0.05 m from the robot: relaxed at every step.
            build_disks(Disk(Point2(0.1, 0.1), 0.05), AgentModel(0.0), params.dt, params.N),
        ]
        circles = [
            PointCloudCircle(Point2(0.0, 0.2), 0.15),  # the robot starts inside its 0.45 m margin
            PointCloudCircle(Point2(1.3, 0.0), 0.2),  # culled at the early steps only
            PointCloudCircle(Point2(6.0, 5.0), 0.2),  # beyond the cull at every step
        ]
        problem = make_problem([0, 0, 0.2], [3, 0], params, families=families, circles=circles)
        lo, hi = params.input_box
        rng = np.random.default_rng(5)
        for j in (1, 4, params.N - 1):
            ev = _NlpEvaluator(problem, stop_index=j)
            for _ in range(5):
                x = rng.uniform(np.tile(lo, j), np.tile(hi, j))
                states = rollout(problem.z0, ev.full_inputs(x), params.dt)
                want = planner_avoidance_rows(states, problem.z0, problem.projections, circles, params, j)
                assert np.array_equal(ev(x).c, want)


class TestFallbackPlan:
    def _solved_plan(self):
        params = MpcParams()
        problem = make_problem([0, 0, 0], [2, 0], params)
        return solve(problem).plan, params, problem

    def test_ends_stopped(self):
        plan, _, _ = self._solved_plan()
        fb = fallback_plan(plan)
        assert np.allclose(fb.states[-1], fb.states[-2])
        assert np.allclose(fb.inputs[-1], 0.0)

    def test_shifts_states(self):
        plan, _, _ = self._solved_plan()
        fb = fallback_plan(plan)
        assert np.allclose(fb.states[:-1], plan.states[1:])
        assert np.allclose(fb.inputs[:-1], plan.inputs[1:])
        assert fb.stamp == plan.stamp + 1

    def test_terminal_equality_preserved(self):
        plan, _, _ = self._solved_plan()
        fb = fallback_plan(plan)
        assert np.linalg.norm(fb.states[-1] - fb.states[-2]) == 0.0

    def test_feasible_under_shrunken_sets(self):
        # Solve against a visible agent, then advance the agent compliantly
        # and verify the shifted plan passes the audit under the new sets.
        # The agent sits off the path so the anchor-point surrogate matches
        # the true set distances within the solver tolerance.
        params = MpcParams()
        model = AgentModel(0.5)
        agent_pos = np.array([2.5, 1.6])
        fam = build_disks(Disk(Point2(*agent_pos), 0.1), model, params.dt, params.N)
        problem = make_problem([0, 0, 0], [4, 0], params, families=[fam])
        res = solve(problem)
        assert res.status == "optimal"

        fb = fallback_plan(res.plan)
        # Agent moves at most one step distance.
        agent_next = agent_pos + np.array([-0.04, 0.02])
        fam_next = build_disks(Disk(Point2(*agent_next), 0.1), model, params.dt, params.N)
        shifted = fallback_plan(res.plan).positions()[1:]
        projections = project_plan(shifted, [fam_next])
        report = check_feasibility(fb, projections, [], params, z_init=res.plan.states[1])
        assert report.ok(params.feas_tol)
        # Shrinkage: the new one-step set sits inside the previous two-step set.
        gap = np.hypot(*(agent_next - agent_pos))
        assert gap + fam_next.radii[0] <= fam.radii[1] + 1e-12

    def test_requires_stopped_tail(self):
        inputs = np.ones((4, 2))
        states = rollout(np.zeros(3), inputs, 0.1)
        with pytest.raises(ValueError):
            fallback_plan(OpenLoopPlan(states, inputs, 0))


class TestMpcParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MpcParams(N=1)
        with pytest.raises(ValueError):
            MpcParams(dt=0)
        with pytest.raises(ValueError):
            MpcParams(d_safe=0)
        with pytest.raises(ValueError):
            MpcParams(q_input=(0, 1))
        with pytest.raises(ValueError):
            MpcParams(v_min=0.5)  # cannot stop
        with pytest.raises(ValueError):
            MpcParams(state_bounds=(1, 0, 0, 1))
