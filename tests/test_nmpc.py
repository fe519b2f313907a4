import dataclasses
import math
import os
import signal
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import oampc.nmpc
import oampc.sim_engine
from oampc.avoidance import OpenLoopPlan, project_plan
from oampc.nmpc import (
    FeasibilityReport,
    MpcParams,
    NlpProblem,
    _aligned_stationary_plan,
    _first_violated_step,
    _NlpEvaluator,
    _probe,
    check_feasibility,
    fallback_plan,
    solve,
    total_cost,
)
from oampc.reachability import AgentModel, build_capsules, build_disks
from oampc.solver import STATUS_INFEASIBLE, _violation, solve_sqp
from oampc.summarize import main as summarize_main
from oampc.unicycle import ControlInput, RobotState, dynamics_step, rollout, rollout_sensitivities

from conftest import recording
from oracles import (
    avoidance_margins_loop,
    input_hessian_loop,
    nlp_evaluation_parent,
    planner_avoidance_rows,
    rollout_loop,
    sensitivities_recursion,
)

ROOT = Path(__file__).resolve().parents[1]


def circle_rows(circles):
    """Static circles, each (x, y, radius), as downsample's (M, 3) array."""
    return np.reshape(np.array(circles, dtype=float), (-1, 3))


def make_problem(z0, goal, params=None, families=(), circles=(), warm=None, u_prev=None):
    params = params or MpcParams()
    warm = warm or OpenLoopPlan.stationary(np.asarray(z0, dtype=float), params.N)
    shifted = fallback_plan(warm).positions()[1:]
    projections = project_plan(shifted, list(families))
    goal3 = np.array([goal[0], goal[1], 0.0]) if len(goal) == 2 else np.asarray(goal, float)
    return NlpProblem(
        z0=np.asarray(z0, dtype=float),
        goal=goal3,
        projections=projections,
        static_circles=circle_rows(circles),
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

    def test_state_and_input_must_be_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite robot state"):
                RobotState(0.0, bad, 0.0)
            with pytest.raises(ValueError, match="non-finite control input"):
                ControlInput(bad, 0.0)


class TestTotalCost:
    def test_plan_at_goal_zero(self):
        params = MpcParams()
        plan = OpenLoopPlan.stationary(np.array([1.0, 2.0, 0.0]), params.N)
        assert total_cost(plan, np.array([1.0, 2.0, 0.0]), params) == 0.0

    def test_single_input_unit_cost(self):
        params = MpcParams(q_state=(0, 0, 0), q_input=(1, 1), q_input_rate=(1e-12, 1e-12))
        inputs = np.zeros((params.N, 2))
        inputs[0] = [1.0, 0.0]
        states = rollout(np.zeros(3), inputs, params.dt)
        plan = OpenLoopPlan(states, inputs)
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
            plan = OpenLoopPlan(states, inputs)
            got = total_cost(plan, goal, params, u_prev)

            # Naive term-by-term oracle.
            Qz, Qu, Qdu = (np.diag(w) for w in (params.q_state, params.q_input, params.q_input_rate))
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
                ev = _NlpEvaluator(_probe(problem), stop_index=j)
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
        seg = np.array([[1.5, 0.5], [2.5, 1.0]])
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        circles = [(0.5, -1.0, 0.15)]
        problem = make_problem([0, 0, 0.3], [3, 1], params, families=[fam], circles=circles)
        for _ in range(20):
            for j in range(1, params.N):
                ev = _NlpEvaluator(_probe(problem), stop_index=j)
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
            # dynamics_step is the first step of the same rollout.
            stepped = dynamics_step(RobotState(*z0.tolist()), ControlInput(*inputs[0].tolist()), dt).as_array()
            assert np.array_equal(stepped, want[1])
            assert np.array_equal(np.signbit(stepped), np.signbit(want[1]))

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
                got = _NlpEvaluator(_probe(problem), j)._hess_input
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
                states, got = rollout_sensitivities(z0, u, j, dt)
                assert np.array_equal(states, rollout(z0, u, dt))
                assert got.shape == (n + 1, 3, 2 * j)
                assert np.abs(got - sensitivities_recursion(states, u, j, dt)).max() <= 1e-12

    def test_evaluator_cost_is_total_cost(self):
        # A probe's cost is the SQP objective, so it must be the very number
        # total_cost gives its plan.
        rng = np.random.default_rng(14)
        params = MpcParams(N=6, q_state=(10, 7, 0.3), q_input=(1.5, 0.5), q_input_rate=(0.7, 2.0),
                           state_bounds=(-5, 5, -5, 5))
        seg = np.array([[1.0, 0.4], [2.0, 1.0]])
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        problem = make_problem([0, 0, 0.3], [3, 1], params, families=[fam], u_prev=np.array([0.4, -0.2]))
        for j in range(1, params.N):
            ev = _NlpEvaluator(_probe(problem), j)
            for _ in range(5):
                x = rng.uniform(np.tile([-0.5, -2.0], j), np.tile([2.0, 2.0], j))
                u = ev.full_inputs(x)
                plan = OpenLoopPlan(rollout(problem.z0, u, params.dt), u)
                assert ev(x).f == total_cost(plan, problem.goal, params, problem.u_prev)


class TestEvaluatorMatchesParent:
    """The evaluator rolls out and takes the sensitivities in one pass; its
    f, grad, hess, c and jac equal the separate passes it replaced, kept in
    tests/oracles.py, bit for bit (signs of zeros included)."""

    @staticmethod
    def _assert_same_bits(calls):
        for ev, x in (call.args for call in calls):
            got = _NlpEvaluator(ev.problem, ev.j)(x)
            want = nlp_evaluation_parent(ev.problem, ev.j, x)
            assert got.f == want[0]
            for name, value in zip(("grad", "hess", "c", "jac"), want[1:]):
                assert np.array_equal(getattr(got, name), value), name
                assert np.array_equal(np.signbit(getattr(got, name)), np.signbit(value)), name

    def test_pillars_crowd_calls(self, pillars_crowd_run):
        calls = pillars_crowd_run.calls("oampc.nmpc._NlpEvaluator.__call__", 12)
        assert len(calls) >= 50 and any(len(call.args[0].problem.row_step) for call in calls)
        self._assert_same_bits(calls)

    def test_corner_fast_search_calls(self, corner_fast_run):
        # The probes of the steps that search earlier stop indexes among the
        # first 56: state bounds and capsule rows. The sweep skips the
        # indexes whose start breaks a row, and these steps probe neither 6
        # nor 7, so the start of every stop index at every such step is
        # evaluated too, and every stop index is covered.
        searched = [p for p, r in step_solves(corner_fast_run) if r.search != "full"]
        with recording("oampc.nmpc._NlpEvaluator.__call__") as (calls,):
            for problem in searched:
                solve(problem)
            assert len(calls) >= 200
            for problem in searched:
                u_ws = np.clip(problem.warm_start.inputs, *problem.params.input_box)
                start_violations(_probe(problem), u_ws)
        evaluators = [call.args[0] for call in calls]
        assert {ev.j for ev in evaluators} == set(range(1, MpcParams().N))
        assert all(ev.problem.params.state_bounds is not None for ev in evaluators)
        self._assert_same_bits(calls)


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
        seg = np.array([[1.2, -0.5], [1.2, 0.5]])
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        problem = make_problem([0, 0, 0], [3, 0], params, families=[fam])
        res = solve(problem)
        assert res.status == "optimal"
        dmin = params.d_safe + params.r_robot
        z_proj = problem.projections.z_proj[0]
        for k in range(1, res.stop_index + 1):
            dist = np.hypot(*(res.plan.states[k, :2] - z_proj[k - 1]))
            assert dist >= dmin - params.feas_tol

    def test_stop_inside_margin_allowed(self):
        # The goal sits beyond an anchor blocking the way: the plan may move
        # then hold, with held steps tolerating margin violations.
        params = MpcParams()
        seg = np.array([[0.9, -2.0], [0.9, 2.0]])
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        problem = make_problem([0, 0, 0], [3, 0], params, families=[fam])
        res = solve(problem)
        assert res.status == "optimal"
        report = check_feasibility(
            res.plan, problem.projections, problem.static_circles, params, z_init=problem.z0
        )
        assert report.ok(params.feas_tol)

    def test_parked_winner_is_replaced_by_the_turning_stationary_plan(self):
        # Static circles on every side, the robot inside their margins and
        # facing away from its goal: no plan may translate. Holding still is
        # cheaper than turning, so the full-freedom probe wins on cost with a
        # plan that stays parked. solve replaces it with the aligned
        # stationary plan, which holds position and turns toward the goal.
        ring = np.arange(6) * math.pi / 3
        circles = [(0.35 * math.cos(a), 0.35 * math.sin(a), 0.1) for a in ring]
        problem = make_problem([0, 0, math.pi], [5, 0], circles=circles)
        params = problem.params
        probe = _probe(problem)
        j = params.N - 1  # the full-freedom probe from rest
        evaluator = _NlpEvaluator(probe, j)
        lo, hi = params.input_box
        held = solve_sqp(evaluator, np.zeros(2 * j), np.tile(lo, j), np.tile(hi, j), feas_tol=params.feas_tol)
        cost_held = held.objective
        turning = oampc.nmpc._aligned_stationary_plan(probe)
        cost_turning = total_cost(turning, problem.goal, params)
        assert held.status == "optimal"
        held_states = rollout(probe.z0, evaluator.full_inputs(held.x), params.dt)
        assert np.abs(np.diff(held_states[:, :2], axis=0)).max() <= 1e-4
        assert cost_held < cost_turning
        res = solve(problem)
        assert (res.status, res.search, res.stop_index) == ("optimal", "full", 0)
        assert np.array_equal(res.plan.inputs, turning.inputs) and res.objective == cost_turning
        assert np.array_equal(res.plan.states[:, :2], np.zeros((params.N + 1, 2)))
        assert np.all(res.plan.inputs[:-1, 1] == params.delta_min) and res.plan.inputs[-1, 1] == 0.0

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
        fam = build_disks(np.array([0.0, 0.0, 0.05]), AgentModel(0.0), params.dt, params.N)
        problem = make_problem([0, 0, 0], [3, 0], params, families=[fam])
        res = solve(problem)
        assert res.status == "optimal"
        z_proj = problem.projections.z_proj[0]
        for k in range(1, params.N):
            gap0 = np.hypot(*(problem.z0[:2] - z_proj[k - 1]))
            gap_k = np.hypot(*(res.plan.states[k, :2] - z_proj[k - 1]))
            assert gap_k >= gap0 - params.feas_tol

    def test_never_degrades_feasible_warm_start(self):
        params = MpcParams()
        # Warm start: straight drive at 1 m/s for N-1 steps, then stop.
        inputs = np.zeros((params.N, 2))
        inputs[: params.N - 1, 0] = 1.0
        states = rollout(np.zeros(3), inputs, params.dt)
        warm = OpenLoopPlan(states, inputs)
        problem = make_problem([0, 0, 0], [2, 0], warm=warm)
        res = solve(problem)
        ws_cost = total_cost(warm, problem.goal, params)
        assert res.status == "optimal"
        assert res.objective <= ws_cost + 1e-9

    def test_deterministic(self):
        params = MpcParams()
        seg = np.array([[1.0, -0.3], [1.4, 0.8]])
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        p1 = make_problem([0, 0, 0.1], [3, 0.5], params, families=[fam])
        p2 = make_problem([0, 0, 0.1], [3, 0.5], params, families=[fam])
        r1, r2 = solve(p1), solve(p2)
        assert np.array_equal(r1.plan.inputs, r2.plan.inputs)
        assert r1.stop_index == r2.stop_index


def step_solves(run, steps=None):
    """The (problem, result) of each step of a recorded run, or of its first
    steps."""
    return [(call.args[0], call.result) for call in run.calls("oampc.sim_engine.solve", steps)]


@pytest.fixture(scope="module")
def workload_solves(corner_fast_run, corner_occluded_run, pillars_crowd_run):
    """The (workload, step, problem, result) of the first 56 steps of
    corner-fast, 40 of corner-occluded and 20 of pillars-crowd."""
    runs = (("corner-fast", corner_fast_run, 56), ("corner-occluded", corner_occluded_run, 40),
            ("pillars-crowd", pillars_crowd_run, 20))
    return [(w, t, p, r) for w, run, steps in runs for t, (p, r) in enumerate(step_solves(run, steps))]


# One solve from z0 = (1, 0, 0) toward GOAL. At the goal no move beats standing
# still, so the search sweeps N - 2 stop indexes; 1 m short of it, the
# full-freedom probe wins alone. It prints the last phase, the probes, whether
# multiprocessing was imported and the live threads.
SWEEP_SCRIPT = textwrap.dedent(
    """
    import sys
    import threading
    import numpy as np
    from oampc.avoidance import OpenLoopPlan, project_plan
    from oampc.nmpc import MpcParams, NlpProblem, solve

    params = MpcParams()
    z0 = np.array([1.0, 0.0, 0.0])
    goal = np.array(GOAL)
    warm = OpenLoopPlan.stationary(z0, params.N)
    problem = NlpProblem(z0, goal, project_plan(warm.positions()[1:], []), np.zeros((0, 3)), params, warm)
    res = solve(problem)
    print(res.search, res.work.probes, "multiprocessing" in sys.modules, threading.active_count())
    """
)


def run_script(tmp_path, goal):
    """SWEEP_SCRIPT's exit status, printed words, standard error and session
    ID. A script that hangs is killed with every process it started."""
    script = tmp_path / "sweep.py"
    script.write_text(SWEEP_SCRIPT.replace("GOAL", repr(goal)))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    args = [sys.executable, "-W", "error", str(script)]
    pipe = subprocess.PIPE
    with subprocess.Popen(args, stdout=pipe, stderr=pipe, text=True, env=env, start_new_session=True) as done:
        try:
            out, err = done.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(done.pid, signal.SIGKILL)
            raise
    return done.returncode, out.split(), err, done.pid


class TestProbesInProcess:
    """Every stop-index probe runs in the planner's process, one after
    another, where its counters are taken and a tracer sees it; a solve
    keeps nothing from one call to the next."""

    def test_a_sweep_forks_nothing_and_runs_every_probe_here(self, monkeypatch):
        # SWEEP_SCRIPT's problem at the goal: one SQP per probe, each seen
        # here, with no process forked.
        def no_fork():
            raise OSError("a probe forked")

        monkeypatch.setattr(os, "fork", no_fork)
        with recording("oampc.nmpc.solve_sqp") as (sqps,):
            res = solve(make_problem([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
        assert res.search == "sweep" and res.work.probes == len(sqps) >= MpcParams().N - 1

    def test_a_recorded_step_solved_again_gives_its_result(self, corner_fast_run):
        # The run's searched steps, solved again on their own and in reverse
        # order, return the plans, tie-breaks and counters the run's solves
        # did.
        searched = [(p, r) for p, r in step_solves(corner_fast_run) if r.search != "full"]
        assert {r.search for _, r in searched} == {"hint", "sweep"}
        for problem, recorded in reversed(searched):
            here = solve(problem)
            assert np.array_equal(here.plan.states, recorded.plan.states)
            assert np.array_equal(here.plan.inputs, recorded.plan.inputs)
            for name in ("status", "objective", "stop_index", "search", "work"):
                assert getattr(here, name) == getattr(recorded, name), name

    def test_corner_fast_same_log_on_a_second_run(self, corner_fast_run, tmp_path):
        # The closed loop run again from its scenario writes the same log:
        # every field but the times the same to the bit.
        first = corner_fast_run.log
        again, _ = oampc.sim_engine.run(corner_fast_run.scenario)
        first.write_jsonl(tmp_path / "first.jsonl")
        again.write_jsonl(tmp_path / "again.jsonl")
        assert summarize_main([str(tmp_path / "again.jsonl"), "--against", str(tmp_path / "first.jsonl")]) == 0

    def test_rungs_and_infeasible_probes_counted(self, corner_fast_run):
        # Counted independently in this process: a rung is a solve of an
        # elastic QP already solved once (one QP per linearization), and an
        # infeasible probe an SQP that returns STATUS_INFEASIBLE.
        total_rungs = total_infeasible = 0
        for problem, recorded in step_solves(corner_fast_run):
            with recording("oampc.solver._ElasticQp.solve", "oampc.nmpc.solve_sqp") as (qp_solves, sqps):
                here = solve(problem).work
            per_qp = Counter(call.args[0] for call in qp_solves)  # keyed by the QP itself, kept alive
            statuses = [call.result.status for call in sqps]
            assert here.penalty_rungs == recorded.work.penalty_rungs == sum(k - 1 for k in per_qp.values())
            assert here.infeasible_probes == recorded.work.infeasible_probes == statuses.count(STATUS_INFEASIBLE)
            assert here.probes == len(statuses)
            total_rungs += here.penalty_rungs
            total_infeasible += here.infeasible_probes
        # Corner-fast climbs the penalty ladder and ends probes infeasible.
        assert total_rungs > 0 and total_infeasible > 0

    def test_unguarded_script_sweeps_and_leaves_no_process(self, tmp_path):
        # The script has no __main__ guard; once it has ended, no process of
        # its session is left.
        code, out, err, session = run_script(tmp_path, [1.0, 0.0, 0.0])
        assert code == 0 and err == ""
        search, probes, *_ = out
        assert search == "sweep" and int(probes) >= MpcParams().N - 1
        with pytest.raises(ProcessLookupError):
            os.killpg(session, 0)

    def test_sweep_imports_no_multiprocessing_and_starts_no_thread(self, tmp_path):
        code, out, err, _ = run_script(tmp_path, [1.0, 0.0, 0.0])
        assert code == 0 and err == ""
        assert out[0] == "sweep" and out[2:] == ["False", "1"]

    def test_single_probe_step_never_imports_multiprocessing(self, tmp_path):
        code, out, err, _ = run_script(tmp_path, [2.0, 0.0, 0.0])
        assert code == 0 and err == ""
        assert out == ["full", "1", "False", "1"]


class TestStopIndexProbe:
    def test_one_evaluator_per_stop_index(self, corner_fast_run):
        # Each probe builds one evaluator and runs one SQP on it: in order,
        # probe k builds evaluator k for its own problem and stop index, and
        # SQP k runs on evaluator k from the probe's start.
        targets = ("oampc.nmpc._try_stop_index", "oampc.nmpc._NlpEvaluator.__init__", "oampc.nmpc.solve_sqp")
        with recording(*targets) as (probes, built, sqps):
            for problem, _ in step_solves(corner_fast_run):
                solve(problem)
        assert probes and len(probes) == len(built) == len(sqps)
        for probe, init, sqp in zip(probes, built, sqps):
            problem, start, j = probe.args
            evaluator, for_problem, for_j = init.args
            assert for_problem is problem and for_j == j and sqp.args[0] is evaluator
            assert np.array_equal(sqp.args[1], start[:j].ravel())

    def test_a_probe_runs_one_sqp(self, corner_fast_run):
        # The recorded steps parked with a warm start at rest, probed at every
        # stop index from the warm start and from its nudged copy: whatever
        # its cost, a probe is one SQP.
        at_rest = 0
        for problem, _ in step_solves(corner_fast_run):
            params = problem.params
            u_ws = np.clip(problem.warm_start.inputs, *params.input_box)
            if abs(u_ws[0, 0]) >= 0.1:
                continue
            nudged = u_ws.copy()
            nudged[:, 0] = min(0.3, params.v_max)
            for j in range(1, params.N):
                for start in (u_ws, nudged):
                    _, work = oampc.nmpc._try_stop_index(_probe(problem), start, j)
                    assert work.probes == 1, j
                at_rest += np.abs(u_ws[:j, 0]).max() < 0.1
        assert at_rest >= 100


def probes_of(problem):
    """solve(problem) and its stop-index probes, in order, each (stop index,
    whether it starts from the nudged warm start, its result)."""
    with recording("oampc.nmpc._try_stop_index") as (calls,):
        res = solve(problem)
    return res, [(call.args[2], bool(np.all(call.args[1][:, 0] == 0.3)), call.result) for call in calls]


def sweep_round(probes, problem):
    """The probes of problem's sweep round, the last round of its search:
    each round before it probes N-1 or an index next to the hint, which the
    sweep never does, so the sweep's probes are those after the last of
    these."""
    n, hint = problem.params.N, problem.stop_hint
    earlier = {n - 1} | (set() if hint is None else {hint - 1, hint, hint + 1})
    k = max((i + 1 for i, (j, *_) in enumerate(probes) if j in earlier), default=0)
    assert all(j in earlier for j, *_ in probes[:k])
    return probes[k:]


def solve_at_costs(monkeypatch, problem, cost):
    """solve(problem) with each probe's candidate at cost(j, nudged), none
    where that is None, and the plan each probe returned, by (j, nudged);
    nudged is whether the probe starts from the nudged warm start."""
    plans, probe = {}, oampc.nmpc._try_stop_index

    def costed(data, start, j):
        (_, plan, _), work = probe(data, start, j)
        nudged = bool(np.all(start[:, 0] == 0.3))
        plans[j, nudged] = plan
        c = cost(j, nudged)
        return (None if c is None else (c, plan, j)), work

    monkeypatch.setattr(oampc.nmpc, "_try_stop_index", costed)
    return solve(problem), plans


class TestTieBreaks:
    """The cheapest candidate wins, ties going to the larger stop index, then
    to the warm start. The probes here, 1 m short of the goal from a warm
    start at rest, are costed as standing still, the stationary plan at
    stop index 0: no round ends below the floor, so every round runs."""

    @staticmethod
    def _problem():
        problem = make_problem([0.0, 0.0, 0.0], [1.0, 0.0])
        stay = total_cost(_aligned_stationary_plan(_probe(problem)), problem.goal, problem.params, problem.u_prev)
        return problem, problem.params.N, stay

    def test_a_tie_goes_to_the_larger_stop_index(self, monkeypatch):
        # The full-freedom probes leave no candidate; every swept index ties
        # with standing still, and the largest of them wins.
        problem, n, stay = self._problem()
        res, plans = solve_at_costs(monkeypatch, problem, lambda j, nudged: None if j == n - 1 else stay)
        swept = [j for j, nudged in plans if j < n - 1]
        assert res.search == "sweep" and len(swept) >= 2
        assert res.stop_index == max(swept) and res.plan is plans[max(swept), False] and res.objective == stay

    def test_a_tie_at_one_stop_index_goes_to_the_warm_start(self, monkeypatch):
        # The full-freedom probes from the warm start and from its nudged
        # copy tie with standing still, the other probes leave no candidate:
        # the warm start's plan wins.
        problem, n, stay = self._problem()
        res, plans = solve_at_costs(monkeypatch, problem, lambda j, nudged: stay if j == n - 1 else None)
        warm, nudged = plans[n - 1, False], plans[n - 1, True]
        assert not np.array_equal(warm.inputs, nudged.inputs)
        assert res.search == "sweep" and res.stop_index == n - 1 and res.plan is warm and res.objective == stay


class TestSearchOrder:
    def test_phases_run_in_order(self, corner_fast_run):
        # A recorded step whose full-freedom probe is blocked and whose hint
        # phase found nothing, solved again with other hints; its sweep is
        # won past index 1, so the warm probe at index 1 leaves the nudged
        # one something to beat. Its warm start is at rest through step 4,
        # and its nudged start breaks a row at step 2, so the nudged rounds
        # probe hint index 1 alone, and not the full-freedom index; the warm
        # start breaks a row at step 5, so the sweep probes the other
        # indexes up to 4. The probes are those of the first rounds, one
        # after another, and the last round run names the search (a probe
        # recorder sees no empty round); a hint next to the stop index that
        # wins the sweep ends the search in a hint round.
        solves = step_solves(corner_fast_run)
        problem = next(
            p for p, r in solves if r.search == "sweep" and r.stop_index > 1 and abs(p.warm_start.inputs[0, 0]) < 0.1
        )
        n = problem.params.N
        u_ws = np.clip(problem.warm_start.inputs, *problem.params.input_box)
        rest = [j for j in range(1, n) if np.abs(u_ws[:j, 0]).max() < 0.1]
        assert rest == [1, 2, 3, 4]
        met = _first_violated_step(_probe(problem), u_ws)
        assert met == 5
        nudged_start = u_ws.copy()
        nudged_start[:, 0] = 0.3
        restart = [j for j in rest if j < _first_violated_step(_probe(problem), nudged_start)]
        assert restart == [1]
        searches, nudged = set(), []
        for hint, near in ((None, []), (1, [1, 2]), (4, [4, 3, 5]), (n - 2, [n - 2, n - 3])):
            res, calls = probes_of(dataclasses.replace(problem, stop_hint=hint))
            rounds = [
                ([n - 1], False),
                ([], True),
                (near, False),
                ([j for j in near if j in restart], True),
                ([j for j in range(1, met) if j not in near], False),
            ]
            probes = [(j, from_nudged) for j, from_nudged, _ in calls]
            ran = [
                r
                for r, phase in enumerate(("full", "full", "hint", "hint", "sweep"), 1)
                if phase == res.search and probes == [(j, from_nudged) for js, from_nudged in rounds[:r] for j in js]
            ]
            assert res.search != "full" and ran, hint
            assert res.search == "sweep" or res.stop_index in near
            searches.add(res.search)
            nudged += [j for j, from_nudged in probes if from_nudged]
        assert searches == {"hint", "sweep"}
        assert nudged  # a nudged hint round ran

    def test_the_sweep_probes_each_index_once_and_ends_the_search(self, corner_fast_run):
        # The recorded steps that swept: the sweep is the last round, from
        # the warm start, and probes once every index outside the hint's
        # neighbourhood and below the first step the warm start breaks.
        swept = 0
        for problem, recorded in step_solves(corner_fast_run):
            if recorded.search != "sweep":
                continue
            n, hint = problem.params.N, problem.stop_hint
            near = [] if hint is None else [j for j in (hint, hint - 1, hint + 1) if 1 <= j <= n - 2]
            u_ws = np.clip(problem.warm_start.inputs, *problem.params.input_box)
            met = min(n - 1, _first_violated_step(_probe(problem), u_ws))
            res, calls = probes_of(problem)
            assert res.search == "sweep"
            assert [(j, from_nudged) for j, from_nudged, _ in sweep_round(calls, problem)] == [
                (j, False) for j in range(1, met) if j not in near
            ]
            assert res.work.probes == len(calls)
            swept += 1
        assert swept >= 10


def start_violations(data, inputs):
    """The violation of each stop index's start j = 1..N-1, the first j rows
    of inputs, as its SQP measures it."""
    return [_violation(_NlpEvaluator(data, j)(inputs[:j].ravel()).c) for j in range(1, data.params.N)]


class TestFirstViolatedStep:
    """_first_violated_step(probe, u) is the first horizon step at which the
    rollout of u breaks a kept row or a track limit: probe j's start, the
    first j rows of u, breaks one of its own rows exactly when j >= it."""

    def test_starts_break_exactly_from_the_first_violated_step(self, workload_solves):
        firsts = []
        for workload, t, problem, _ in workload_solves:
            params, data = problem.params, _probe(problem)
            u_ws = np.clip(problem.warm_start.inputs, *params.input_box)
            first = _first_violated_step(data, u_ws)
            broken = [v > params.feas_tol for v in start_violations(data, u_ws)]
            assert broken == [j >= first for j in range(1, params.N)], (workload, t, first)
            firsts.append(first)
        # Most warm starts meet every row; the others break one at five or
        # more different steps.
        n = MpcParams().N
        assert firsts.count(n + 1) >= 50 and len(set(firsts) - {n + 1}) >= 5

    def test_a_start_off_the_track_before_any_row_breaks(self):
        # Straight at full speed toward a static circle, across the track
        # limit x = 0.9: the track breaks at step 5 (x = 1.0), the circle's
        # 0.4 m margin at step 6 (x = 1.2). A NaN third input breaks step 3
        # and every later one, as _violation reads it.
        params = MpcParams(state_bounds=(-1.0, 0.9, -2.0, 2.0))
        inputs = np.zeros((params.N, 2))
        inputs[:-1, 0] = params.v_max
        warm = OpenLoopPlan(rollout(np.zeros(3), inputs, params.dt), inputs)
        data = _probe(make_problem([0, 0, 0], [3, 0], params, circles=[(1.5, 0.0, 0.1)], warm=warm))
        assert list(data.row_step) == [6, 7, 8, 9]
        assert _first_violated_step(data._replace(params=MpcParams()), inputs) == 6
        for steps, first in ((inputs, 5), (np.where(np.arange(params.N)[:, None] == 2, np.nan, inputs), 3)):
            assert _first_violated_step(data, steps) == first
            broken = [v > params.feas_tol for v in start_violations(data, steps)]
            assert broken == [j >= first for j in range(1, params.N)]

    def test_the_sweep_probes_the_feasible_starts_and_ends_none_infeasible(self, corner_fast_run):
        # Every recorded sweep step: the sweep round probes the indexes
        # outside the hint's neighbourhood whose start meets its own rows,
        # as its SQP measures them, and each of its probes returns a
        # candidate.
        swept = probed = skipped = 0
        for problem, recorded in step_solves(corner_fast_run):
            if recorded.search != "sweep":
                continue
            params, hint = problem.params, problem.stop_hint
            near = [] if hint is None else [hint - 1, hint, hint + 1]
            u_ws = np.clip(problem.warm_start.inputs, *params.input_box)
            met = [v <= params.feas_tol for v in start_violations(_probe(problem), u_ws)][:-1]
            res, calls = probes_of(problem)
            assert res.search == "sweep"
            js, _, results = zip(*sweep_round(calls, problem)) or ((), (), ())
            assert list(js) == [j for j, ok in enumerate(met, 1) if ok and j not in near]
            assert all(cand is not None and not work.infeasible_probes for cand, work in results)
            swept += 1
            probed += len(js)
            skipped += not all(met)
        assert swept >= 15 and probed >= 60 and skipped >= 10

    def test_nudged_rounds_probe_only_starts_that_meet_their_rows(self, corner_fast_run):
        # The recorded steps whose warm start is at rest at step 1 and whose
        # search went past full freedom, solved again with hints 1 and 4:
        # every probe from the nudged start is at an index through which the
        # warm start is at rest, starts meeting its own rows, as its SQP
        # measures them, and returns a candidate. Some nudged round that
        # surely ran skips an at-rest index whose nudged start breaks a row.
        steps = probed = skipped = 0
        for problem, recorded in step_solves(corner_fast_run):
            params, n = problem.params, problem.params.N
            u_ws = np.clip(problem.warm_start.inputs, *params.input_box)
            if recorded.search == "full" or abs(u_ws[0, 0]) >= 0.1:
                continue
            nudged = u_ws.copy()
            nudged[:, 0] = min(0.3, params.v_max)
            met = [v <= params.feas_tol for v in start_violations(_probe(problem), nudged)]
            rest = [j for j in range(1, n) if np.abs(u_ws[:j, 0]).max() < 0.1]
            for hint in (1, 4):
                res, calls = probes_of(dataclasses.replace(problem, stop_hint=hint))
                js = [j for j, from_nudged, _ in calls if from_nudged]
                assert all(j in rest and met[j - 1] for j in js), (js, met)
                assert all(cand is not None for _, from_nudged, (cand, _) in calls if from_nudged)
                # The nudged rounds that surely ran: full's once the search
                # went past it, hint's once the sweep ran.
                near = [j for j in (hint, hint - 1, hint + 1) if 1 <= j <= n - 2]
                ran = ([n - 1] if res.search != "full" else []) + (near if res.search == "sweep" else [])
                skipped += any(j in rest and not met[j - 1] for j in ran)
                probed += len(js)
            steps += 1
        assert steps >= 15 and probed >= 15 and skipped >= 15


class TestCheckFeasibility:
    def test_stopped_plan_inside_margin_ok(self):
        params = MpcParams()
        fam = build_disks(np.array([0, 0, 0.1]), AgentModel(0.0), params.dt, params.N)
        plan = OpenLoopPlan.stationary(np.zeros(3), params.N)
        shifted = fallback_plan(plan).positions()[1:]
        projections = project_plan(shifted, [fam])
        report = check_feasibility(plan, projections, circle_rows([]), params, z_init=np.zeros(3))
        assert report.ok(params.feas_tol)
        assert report.avoidance_margin.max() > 0  # inside the margin, reported

    def test_moving_plan_with_violation_flagged(self):
        params = MpcParams()
        fam = build_disks(np.array([0.5, 0.0, 0.1]), AgentModel(0.0), params.dt, params.N)
        inputs = np.zeros((params.N, 2))
        inputs[: params.N - 1, 0] = 1.0
        states = rollout(np.zeros(3), inputs, params.dt)
        plan = OpenLoopPlan(states, inputs)
        projections = project_plan(states[1:, :2], [fam])
        report = check_feasibility(plan, projections, circle_rows([]), params, z_init=np.zeros(3))
        assert not report.ok(params.feas_tol)
        assert report.complementarity.max() > params.feas_tol

    def test_solver_optimal_plan_clean(self):
        params = MpcParams(state_bounds=(-1, 4, -2, 2))
        seg = np.array([[2.0, -0.5], [2.0, 0.5]])
        fam = build_capsules(seg, AgentModel(0.5), params.dt, params.N)
        problem = make_problem([0, 0, 0], [3.5, 0], params, families=[fam])
        res = solve(problem)
        report = check_feasibility(
            res.plan, problem.projections, problem.static_circles, params, z_init=problem.z0
        )
        assert report.ok(params.feas_tol)

    @pytest.mark.parametrize("steps", [1, 3])
    def test_plan_and_projections_of_different_horizons_raise(self, steps):
        # A 1-step plan against 10-step projections once gave a 10-entry
        # report with max_violation 0.1; a 3-step plan failed inside numpy
        # broadcasting. Both raise, naming the two horizons.
        params = MpcParams()
        fam = build_disks(np.array([0.5, 0.0, 0.1]), AgentModel(0.0), params.dt, params.N)
        projections = project_plan(np.zeros((params.N, 2)), [fam])
        plan = OpenLoopPlan.stationary(np.zeros(3), steps)
        with pytest.raises(ValueError, match=f"projection horizon {params.N} != plan horizon {steps}$"):
            check_feasibility(plan, projections, circle_rows([]), params, z_init=np.zeros(3))


class TestSolveProperties:
    """What every plan of a correct planner satisfies, whatever plan it picks:
    judged on recorded workload problems, these hold across a change that
    moves plans, where the bit-for-bit replays of tests/oracles.py cannot."""

    def test_hard_terms_and_cost_floor(self, workload_solves):
        # Every start is on the track, so the stationary floor exists: the
        # result is optimal, meets every hard term and costs no more than
        # holding position while turning toward the goal.
        assert len(workload_solves) == 116
        for workload, t, problem, result in workload_solves:
            params, where = problem.params, f"{workload} step {t}"
            assert result.status == "optimal", where
            report = check_feasibility(
                result.plan, problem.projections, problem.static_circles, params, z_init=problem.z0
            )
            hard = (report.dynamics_defect, report.initial_error, report.terminal_error,
                    report.input_bound_violation, report.state_bound_violation)
            assert max(hard) <= params.feas_tol, (where, hard)
            floor = _aligned_stationary_plan(_probe(problem))
            cost = total_cost(result.plan, problem.goal, params, problem.u_prev)
            assert cost <= total_cost(floor, problem.goal, params, problem.u_prev), where

    def test_each_step_records_the_audit_of_the_shift(self, corner_fast_run):
        # The shift of the previous plan, applied or not, audited against the
        # step's problem: its largest violation is the record's. The shift
        # fails at some of these steps.
        scn, log, _ = corner_fast_run
        solves = step_solves(corner_fast_run)
        previous = [OpenLoopPlan.stationary(scn.robot_init.as_array(), scn.mpc.N), *(rec.plan for rec in log)]
        failed = 0
        for rec, (problem, _), prev in zip(log, solves, previous):
            report = check_feasibility(
                fallback_plan(prev), problem.projections, problem.static_circles, problem.params, z_init=problem.z0
            )
            assert rec.fallback_violation == report.max_violation
            failed += not report.ok(problem.params.feas_tol)
        assert len(solves) == len(log) == 56 and failed >= 5

    @pytest.mark.xfail(
        strict=True,
        reason="the shifted plan and the relaxed rows let applied plans fail the avoidance audit (ROADMAP item 4)",
    )
    def test_applied_plans_pass_the_audit(self, corner_fast_run):
        # 21 of these 56 corner-fast steps fail, on the avoidance term alone.
        failed = [
            t
            for t, (rec, (problem, _)) in enumerate(zip(corner_fast_run.log, step_solves(corner_fast_run)))
            if not check_feasibility(
                rec.plan, problem.projections, problem.static_circles, problem.params, z_init=problem.z0
            ).ok(problem.params.feas_tol)
        ]
        assert failed == []


class TestAvoidanceRows:
    """The planner's rows and the audit's margins come from one table; both
    are checked against one-row-at-a-time oracles."""

    @staticmethod
    def _random_rows(rng, params, n_families, n_circles):
        families = []
        for _ in range(n_families):
            a, b = rng.uniform(-2, 2, (2, 2))
            if rng.random() < 0.5:
                families.append(build_disks(np.array([*a, 0.1]), AgentModel(0.5), params.dt, params.N))
            else:
                seg = np.array([a, b])
                families.append(build_capsules(seg, AgentModel(0.5), params.dt, params.N))
        circles = circle_rows([(*rng.uniform(-2, 2, 2), rng.uniform(0.1, 0.3)) for _ in range(n_circles)])
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
            plan = OpenLoopPlan(states, inputs)
            shifted = states[1:, :2] + rng.normal(0.0, 0.1, (n, 2))
            projections = project_plan(shifted, families)
            report = check_feasibility(plan, projections, circles, params)
            want = avoidance_margins_loop(states, projections, circles, params)
            assert np.array_equal(report.avoidance_margin, want)

    def test_problem_holds_only_its_inputs(self):
        # The row table is built by solve, per call, so a caller that keeps
        # problems keeps none.
        families = [build_disks(np.array([1.0, 0.0, 0.1]), AgentModel(0.5), 0.1, 10)]
        problem = make_problem([0, 0, 0], [3, 0], families=families, circles=[(0.0, 1.0, 0.2)])
        assert set(vars(problem)) == {f.name for f in fields(NlpProblem) if f.init}

    def test_problem_horizons_must_be_n(self):
        problem = make_problem([0, 0, 0], [3, 0])
        n = problem.params.N
        short = OpenLoopPlan.stationary(problem.z0, n - 1)
        with pytest.raises(ValueError, match=f"projection horizon {n - 1} != N {n}"):
            dataclasses.replace(problem, projections=project_plan(short.positions()[1:], []))
        with pytest.raises(ValueError, match="warm start horizon mismatch"):
            dataclasses.replace(problem, warm_start=short)

    def test_planner_rows_match_cull_then_relax_oracle(self):
        params = MpcParams()  # no track limits, so c holds the avoidance rows only
        seg = np.array([[1.2, -0.5], [1.2, 0.5]])
        families = [
            build_capsules(seg, AgentModel(0.5), params.dt, params.N),
            # Its projection sits 0.05 m from the robot: relaxed at every step.
            build_disks(np.array([0.1, 0.1, 0.05]), AgentModel(0.0), params.dt, params.N),
        ]
        circles = circle_rows(
            [
                (0.0, 0.2, 0.15),  # the robot starts inside its 0.45 m margin
                (1.3, 0.0, 0.2),  # culled at the early steps only
                (6.0, 5.0, 0.2),  # beyond the cull at every step
            ]
        )
        problem = make_problem([0, 0, 0.2], [3, 0], params, families=families, circles=circles)
        lo, hi = params.input_box
        rng = np.random.default_rng(5)
        for j in (1, 4, params.N - 1):
            ev = _NlpEvaluator(_probe(problem), stop_index=j)
            for _ in range(5):
                x = rng.uniform(np.tile(lo, j), np.tile(hi, j))
                states = rollout(problem.z0, ev.full_inputs(x), params.dt)
                want = planner_avoidance_rows(states, problem.z0, problem.projections, circles, params, j)
                assert np.array_equal(ev(x).c, want)

    def test_relaxed_rows_reported(self):
        # The rows the planner relaxes, counted one at a time: those of the
        # moving steps 1..N-1 that the robot starts inside (the cull keeps
        # every such row). Here the disk projection and the first circle.
        params = MpcParams()
        families = [build_disks(np.array([0.1, 0.1, 0.05]), AgentModel(0.0), params.dt, params.N)]
        circles = circle_rows([(0.0, 0.2, 0.15), (1.3, 0.0, 0.2)])
        problem = make_problem([0, 0, 0.2], [3, 0], params, families=families, circles=circles)
        anchors, margins = oampc.nmpc._avoidance_rows(problem.projections, circles, params)
        count, worst = 0, 0.0
        for k in range(1, params.N):
            for anchor, margin in zip(anchors[k - 1], margins):
                gap = np.hypot(*(anchor - problem.z0[:2]))
                if gap < margin:
                    count, worst = count + 1, max(worst, margin - gap)
        assert count == 2 * (params.N - 1)
        res = solve(problem)
        assert (res.relaxed_rows, res.relaxed_excess) == (count, worst) == _probe(problem)[-2:]
        free = solve(make_problem([0, 0, 0.2], [3, 0], params, circles=circle_rows([(1.3, 0.0, 0.2)])))
        assert (free.relaxed_rows, free.relaxed_excess) == (0, 0.0)


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
        fam = build_disks(np.array([*agent_pos, 0.1]), model, params.dt, params.N)
        problem = make_problem([0, 0, 0], [4, 0], params, families=[fam])
        res = solve(problem)
        assert res.status == "optimal"

        fb = fallback_plan(res.plan)
        # Agent moves at most one step distance.
        agent_next = agent_pos + np.array([-0.04, 0.02])
        fam_next = build_disks(np.array([*agent_next, 0.1]), model, params.dt, params.N)
        shifted = fallback_plan(res.plan).positions()[1:]
        projections = project_plan(shifted, [fam_next])
        report = check_feasibility(fb, projections, circle_rows([]), params, z_init=res.plan.states[1])
        assert report.ok(params.feas_tol)
        # Shrinkage: the new one-step set sits inside the previous two-step set.
        gap = np.hypot(*(agent_next - agent_pos))
        assert gap + fam_next.radii[0] <= fam.radii[1] + 1e-12

    def test_requires_stopped_tail(self):
        inputs = np.ones((4, 2))
        states = rollout(np.zeros(3), inputs, 0.1)
        with pytest.raises(ValueError):
            fallback_plan(OpenLoopPlan(states, inputs))


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
        with pytest.raises(ValueError, match="state weights must be nonnegative"):
            MpcParams(q_state=(10.0, -1.0, 0.0))
        with pytest.raises(ValueError, match="heading-rate bounds must admit"):
            MpcParams(delta_min=0.1)  # cannot hold the heading
        with pytest.raises(ValueError):
            MpcParams(state_bounds=(1, 0, 0, 1))

    def test_derived_reach_rules(self):
        # step_reach is derived, not a field: the faster of reversing and
        # driving forward, over one step.
        params = MpcParams(v_min=-3.0, v_max=2.0, state_bounds=(-1, 10, -3, 6))
        assert params.step_reach == 0.1 * 3.0
        assert "step_reach" not in {f.name for f in fields(MpcParams)}
        with pytest.raises(AttributeError):
            params.step_reach = 1.0
        # track_violation: the worst distance outside the limits, 0 inside.
        assert params.track_violation(np.array([[0.0, 0.0], [10.5, 2.0], [3.0, -3.25]])) == 0.5
        assert params.track_violation(np.array([-1.0, 6.0])) == 0.0
        assert MpcParams().track_violation(np.array([1e9, -1e9])) == 0.0

    def test_rejects_non_finite_values(self):
        # A NaN passes every comparison, so it once went through and quietly
        # switched safety off: with a NaN d_safe every audit read 0.0.
        bad_values = {
            "N": math.inf,
            "dt": math.nan,
            "q_state": (10.0, math.nan, 0.0),
            "q_input": (1.0, math.inf),
            "q_input_rate": (math.nan, 1.0),
            "d_safe": math.nan,
            "d_safe_static": math.inf,
            "r_robot": math.nan,
            "v_min": -math.inf,
            "v_max": math.inf,
            "delta_min": math.nan,
            "delta_max": math.inf,
            "state_bounds": (-1.0, math.nan, -3.0, 6.0),
            "feas_tol": math.nan,
        }
        assert bad_values.keys() == {f.name for f in fields(MpcParams)}
        for name, value in bad_values.items():
            with pytest.raises(ValueError, match=name):
                MpcParams(**{name: value})

    def test_rejects_a_non_integer_horizon(self):
        # N = 10.0 once went through, and the planner then died with a
        # TypeError at its first step. Numpy integers are integers.
        for value in (10.0, np.float64(10.0), 10.5, True, np.bool_(True)):
            with pytest.raises(ValueError, match="N must be an integer"):
                MpcParams(N=value)
        assert MpcParams(N=np.int64(12)).N == 12

    @pytest.mark.parametrize("name, value", [("N", "10"), ("dt", "0.1"), ("v_max", None)])
    def test_rejects_a_value_that_is_not_a_number(self, name, value):
        # Such a value once went through np.isfinite, whose TypeError named
        # no field.
        with pytest.raises(ValueError, match=name):
            MpcParams(**{name: value})

    @pytest.mark.parametrize(
        "name, value", [("q_state", (10.0, 10.0)), ("q_input", (1.0,)), ("q_input_rate", (1.0, 1.0, 1.0))]
    )
    def test_rejects_weights_of_the_wrong_length(self, name, value):
        # A single input weight once broadcast to both inputs, and two state
        # weights failed inside the planner with a broadcast error.
        with pytest.raises(ValueError, match=name):
            MpcParams(**{name: value})

    def test_sequences_are_stored_as_float_tuples(self):
        # A list or array once went through, and the planner then died at its
        # first probe: the cache of its input Hessian hashes the params.
        given = {"q_state": (10, 10.0, 0), "q_input": (1.0, 2.0), "q_input_rate": (1, 1)}
        given["state_bounds"] = (-1, 10, -3, 6)
        forms = [given, {k: list(v) for k, v in given.items()}, {k: np.array(v) for k, v in given.items()}]
        params = [MpcParams(**form) for form in forms]
        assert params[0] == params[1] == params[2] and len({hash(p) for p in params}) == 1
        plans = []
        for p in params:
            assert all(type(getattr(p, k)) is tuple for k in given)
            assert all(type(v) is float and v == w for k in given for v, w in zip(getattr(p, k), given[k]))
            plans.append(solve(make_problem([0.0, 0.0, 0.0], [2.0, 0.5], params=p)).plan.inputs)
        assert all(np.array_equal(plan, plans[0]) for plan in plans)

    def test_rejects_negative_r_robot(self):
        with pytest.raises(ValueError):
            MpcParams(r_robot=-0.1)

    def test_rejects_negative_d_safe_static(self):
        with pytest.raises(ValueError):
            MpcParams(d_safe_static=-0.05)

    def test_rejects_nonpositive_feas_tol(self):
        for feas_tol in (0.0, -1e-6):
            with pytest.raises(ValueError):
                MpcParams(feas_tol=feas_tol)
