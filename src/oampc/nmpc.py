"""Receding-horizon planner for the unicycle with avoidance constraints.

The decision variables are the input sequence only (single shooting), so the
dynamics and initial condition hold exactly by construction and the terminal
stopping constraint z_N = z_{N-1} reduces to pinning the last input at zero.
The model is defined once: unicycle.rollout gives the states,
unicycle.sensitivities their closed-form derivatives in the inputs, and
_objective the cost with its gradients, for the planner and total_cost alike.

Collision avoidance enters through fixed projected points: at horizon step k
the planned position must keep d_safe + r_robot from each reachable-set
projection and d_safe_static + r_robot + r_circle from each static coverage
circle. The planner and the auditor (check_feasibility) share these rows, the
track limits and the input box, except that the planner relaxes a row the
robot already starts inside to the current standoff, so that it can still
turn and escape; the auditor keeps the strict margin.

Avoidance is subject to the stop-speed complementarity semantics: a step may
sit inside a margin only if the plan is stopped there. The solver realizes
this with a stop index j (move through step j, hold position after), found by
one full-freedom solve plus, when needed, probes of earlier stop indexes: the
previous step's index and its two neighbours first, then the rest in order if
none of those beats standing still. The cheapest candidate wins, and the
all-stopped plan is the always-feasible floor.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .avoidance import OpenLoopPlan, ProjectionSet
from .lidar_sim import PointCloudCircle
from .solver import STATUS_INFEASIBLE, STATUS_OPTIMAL, EvalResult, SqpResult, solve_sqp
from .unicycle import ControlInput, RobotState, dynamics_step, rollout, sensitivities

__all__ = [
    "RobotState",
    "ControlInput",
    "dynamics_step",
    "MpcParams",
    "NlpProblem",
    "SolveResult",
    "FeasibilityReport",
    "total_cost",
    "solve",
    "check_feasibility",
    "fallback_plan",
]

logger = logging.getLogger("oampc.nmpc")


@dataclass(frozen=True)
class MpcParams:
    """Planner configuration. Defaults follow the reference scenario set:
    10 steps of 0.1 s, 0.5 m dynamic safety margin, speed in [0, 2] m/s,
    heading rate within +-pi rad/s, robot radius 0.2 m."""

    N: int = 10
    dt: float = 0.1
    q_state: tuple[float, float, float] = (10.0, 10.0, 0.0)
    q_input: tuple[float, float] = (1.0, 1.0)
    q_input_rate: tuple[float, float] = (1.0, 1.0)
    d_safe: float = 0.5
    d_safe_static: float = 0.1
    r_robot: float = 0.2
    v_min: float = 0.0
    v_max: float = 2.0
    delta_min: float = -math.pi
    delta_max: float = math.pi
    state_bounds: Optional[tuple[float, float, float, float]] = None  # xmin, xmax, ymin, ymax
    feas_tol: float = 1e-6

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("horizon N must be at least 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.d_safe <= 0:
            raise ValueError("d_safe must be positive")
        if any(w < 0 for w in self.q_state):
            raise ValueError("state weights must be nonnegative")
        if any(w <= 0 for w in self.q_input) or any(w <= 0 for w in self.q_input_rate):
            raise ValueError("input and input-rate weights must be positive")
        if self.v_min > 0 or self.v_max < 0:
            raise ValueError("speed bounds must admit v = 0 (stopping plans)")
        if self.delta_min > 0 or self.delta_max < 0:
            raise ValueError("heading-rate bounds must admit delta = 0")
        if self.state_bounds is not None:
            xmin, xmax, ymin, ymax = self.state_bounds
            if xmin >= xmax or ymin >= ymax:
                raise ValueError("empty state bounds")

    @property
    def input_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds of an input (v, delta)."""
        return np.array([self.v_min, self.delta_min]), np.array([self.v_max, self.delta_max])

    @property
    def Qz(self) -> np.ndarray:
        return np.diag(self.q_state)

    @property
    def Qu(self) -> np.ndarray:
        return np.diag(self.q_input)

    @property
    def Qdu(self) -> np.ndarray:
        return np.diag(self.q_input_rate)


@dataclass
class NlpProblem:
    """One planning instance: live constraint data plus the warm start.

    stop_hint, when given, is the stop index that won the previous planning
    step; the solver probes its neighborhood first when the full-freedom
    problem saturates.

    The avoidance rows that can bind while a plan moves are built once here,
    ordered by horizon step, so a probe with stop index j keeps a prefix of
    them: the rows of steps 1..min(j, N-1).
    """

    z0: np.ndarray  # (3,)
    goal: np.ndarray  # (3,)
    projections: ProjectionSet
    static_circles: Sequence[PointCloudCircle]
    params: MpcParams
    warm_start: OpenLoopPlan
    u_prev: np.ndarray = field(default_factory=lambda: np.zeros(2))
    stop_hint: Optional[int] = None
    row_step: np.ndarray = field(init=False, repr=False)  # (R,) horizon step of each row
    row_anchor: np.ndarray = field(init=False, repr=False)  # (R, 2)
    row_margin: np.ndarray = field(init=False, repr=False)  # (R,)

    def __post_init__(self):
        self.z0 = np.asarray(self.z0, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        self.u_prev = np.asarray(self.u_prev, dtype=float)
        params = self.params
        n = params.N
        if self.projections.horizon != n:
            raise ValueError(f"projection horizon {self.projections.horizon} != N {n}")
        if self.warm_start.horizon != n:
            raise ValueError("warm start horizon mismatch")

        anchors, margins = _avoidance_rows(self.projections, self.static_circles, params)
        diff = anchors - self.z0[:2]
        gap = np.hypot(diff[..., 0], diff[..., 1])  # (N, M) standoff at the start
        steps = np.arange(1, n + 1)[:, None]
        reach = params.dt * max(abs(params.v_min), abs(params.v_max))
        # Rows bind only while the plan moves, at most through step N-1. A
        # row can only be active if its anchor is within the robot's step-k
        # travel radius plus the margin; farther rows are dropped exactly.
        keep = (steps < n) & (gap <= steps * reach + 1e-6 + margins)
        self.row_step = np.nonzero(keep)[0] + 1
        self.row_anchor = anchors[keep]
        # Planner-only relaxation: a row the robot already starts inside (from
        # anchor drift between re-projections) demands no more than the
        # current standoff, so the state can still rotate in place and
        # escape. check_feasibility audits the strict margin.
        self.row_margin = np.minimum(margins, gap)[keep]


@dataclass
class SolveResult:
    status: str
    plan: OpenLoopPlan
    objective: float
    iterations: int  # SQP iterations summed over the probes
    qp_iterations: int  # interior-point iterations summed over the probes
    qp_solves: int  # QP solves summed over the probes
    probes: int  # SQP solves run for this step, re-probes included
    stop_index: int  # steps with motion allowed; N-1 means full freedom


def total_cost(plan: OpenLoopPlan, goal, params: MpcParams, u_prev=None) -> float:
    """Tracking + input effort + input-rate cost over the plan: the planner's
    objective (_objective), so a solved probe's SQP objective is this cost."""
    u_prev = np.zeros(2) if u_prev is None else np.asarray(u_prev, dtype=float)
    return _objective(plan.states, plan.inputs, np.asarray(goal, dtype=float), params, u_prev)[0]


def _objective(states, inputs, goal, params: MpcParams, u_prev) -> tuple[float, np.ndarray, np.ndarray]:
    """The planner's cost and its gradients in the states and in the inputs.

    Sum over k of ||z_k - goal||^2_Qz for k = 0..N plus ||u_k||^2_Qu and
    ||u_k - u_{k-1}||^2_Qdu for k = 0..N-1, where the rate at k = 0 is taken
    against the previously applied input u_prev. Returns (cost, (N+1, 3)
    gradient in the states, (N, 2) gradient in the inputs).
    """
    err = states - goal
    du = inputs.copy()
    du[0] -= u_prev
    du[1:] -= inputs[:-1]
    # The weight matrices are diagonal: scale by their diagonals.
    Qe, Qu_u, Qdu_du = err * params.q_state, inputs * params.q_input, du * params.q_input_rate
    cost = float(np.einsum("ki,ki->", Qe, err))
    cost += float(np.einsum("ki,ki->", Qu_u, inputs))
    cost += float(np.einsum("ki,ki->", Qdu_du, du))
    grad_u = 2.0 * (Qu_u + Qdu_du)
    grad_u[:-1] -= 2.0 * Qdu_du[1:]
    return cost, 2.0 * Qe, grad_u


@lru_cache(maxsize=64)
def _input_hessian(params: MpcParams, n_free: int) -> np.ndarray:
    """Constant Hessian of the effort and rate costs in the first n_free
    inputs, the later ones held at zero: kron(I, 2Qu + 2Qdu) plus the rate's
    second difference kron(I - E_{+1} - E_{-1}, 2Qdu). Every free input has a
    successor in the horizon, so every diagonal block carries 2Qdu twice.
    It depends on the parameters only, so it is built once and read-only."""
    eye = np.eye(n_free)
    rate = 2.0 * params.Qdu
    hess = np.kron(eye, 2.0 * params.Qu + rate) + np.kron(
        eye - np.eye(n_free, k=1) - np.eye(n_free, k=-1), rate
    )
    hess.flags.writeable = False
    return hess


def _avoidance_rows(
    projections: ProjectionSet, static_circles: Sequence[PointCloudCircle], params: MpcParams
) -> tuple[np.ndarray, np.ndarray]:
    """Every avoidance row of one planning step.

    Returns anchors (N, M, 2) and margins (M,): the step-k position must keep
    margins[m] from anchors[k-1, m]. The rows are the families' projections
    (margin d_safe + r_robot), then the static circles' centres (margin
    d_safe_static + r_robot + radius, the same anchor at every step).
    """
    n = projections.horizon
    fams = np.reshape([p.z_proj for p in projections.families], (-1, n, 2)).transpose(1, 0, 2)
    centres = np.reshape([c.center.as_array() for c in static_circles], (-1, 2))
    radii = np.array([c.radius for c in static_circles], dtype=float)
    anchors = np.concatenate([fams, np.broadcast_to(centres, (n,) + centres.shape)], axis=1)
    margins = np.concatenate(
        [
            np.full(len(projections.families), params.d_safe + params.r_robot),
            params.d_safe_static + params.r_robot + radii,
        ]
    )
    return anchors, margins


def _track_gaps(positions: np.ndarray, params: MpcParams) -> tuple[np.ndarray, np.ndarray]:
    """Gaps to the track limits and their gradient in the position.

    For positions (..., 2) returns gaps (G, ...), in order px - xmin,
    xmax - px, py - ymin, ymax - py (negative outside the track), and the
    constant gradient (G, 2). G is 0 when the track is unbounded.
    """
    if params.state_bounds is None:
        return np.zeros((0,) + positions.shape[:-1]), np.zeros((0, 2))
    xmin, xmax, ymin, ymax = params.state_bounds
    px, py = positions[..., 0], positions[..., 1]
    gaps = np.stack([px - xmin, xmax - px, py - ymin, ymax - py])
    return gaps, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])


class _NlpEvaluator:
    """Single-shooting evaluation of cost, constraints, and derivatives.

    Decision vector: the free inputs u_0..u_{j-1} flattened; inputs from the
    stop index j onward are fixed at zero. The state sensitivities are the
    closed form of unicycle.sensitivities, which gives analytic gradients and
    a Gauss-Newton cost Hessian. The avoidance rows are the problem's rows
    through step min(j, N-1).
    """

    def __init__(self, problem: NlpProblem, stop_index: int):
        self.problem = problem
        self.params = problem.params
        self.j = stop_index
        self.n_free = 2 * stop_index
        rows = np.searchsorted(problem.row_step, stop_index, side="right")
        self._row_step = problem.row_step[:rows]
        self._row_anchor = problem.row_anchor[:rows]
        self._row_margin = problem.row_margin[:rows]
        self._hess_input = _input_hessian(self.params, stop_index)

    def full_inputs(self, x: np.ndarray) -> np.ndarray:
        u = np.zeros((self.params.N, 2))
        u[: self.j] = x.reshape(self.j, 2)
        return u

    def __call__(self, x: np.ndarray) -> EvalResult:
        params, problem, j = self.params, self.problem, self.j
        u = self.full_inputs(x)
        states = rollout(problem.z0, u, params.dt)
        S = sensitivities(states, j, params.dt)  # (N+1, 3, n_free)

        f, grad_z, grad_u = _objective(states, u, problem.goal, params, problem.u_prev)
        grad = np.einsum("kiv,ki->v", S, grad_z) + grad_u[:j].ravel()
        QS = S * np.asarray(params.q_state)[:, None]  # Qz S
        hess = 2.0 * np.einsum("kiv,kiw->vw", S, QS) + self._hess_input

        k = self._row_step
        diff = states[k, :2] - self._row_anchor
        dist = np.hypot(diff[:, 0], diff[:, 1])
        dirs = diff / np.maximum(dist, 1e-9)[:, None]
        P = S[: j + 1, :2, :]
        gaps, gap_grad = _track_gaps(states[1 : j + 1, :2], params)
        c = np.concatenate([dist - self._row_margin, gaps.ravel()])
        jac = np.vstack(
            [
                np.einsum("ri,riv->rv", dirs, P[k]),
                np.einsum("gi,kiv->gkv", gap_grad, P[1:]).reshape(-1, self.n_free),
            ]
        )
        return EvalResult(f=f, grad=grad, hess=hess, c=c, jac=jac)


def solve(problem: NlpProblem) -> SolveResult:
    """Plan over the horizon, honoring stop-speed complementarity.

    First solves with motion allowed through step N-1 (avoidance enforced at
    every moving step). If that fails or barely improves on standing still,
    earlier stop indexes are probed: the previous step's winning index and its
    two neighbours first, then, if none of them beats standing still, every
    other index in increasing order. The cheapest candidate wins, ties going
    to the larger stop index; the stationary plan is the guaranteed fallback
    floor whenever the current state respects the track limits.
    """
    params = problem.params
    n = params.N
    stamp = problem.warm_start.stamp

    lo, hi = params.input_box
    u_ws = np.clip(problem.warm_start.inputs, lo, hi)
    u_ws[n - 1] = 0.0

    stationary = _aligned_stationary_plan(problem, stamp)
    stationary_ok = bool(np.min(_track_gaps(problem.z0[:2], params)[0], initial=np.inf) >= -params.feas_tol)
    cost_stationary = total_cost(stationary, problem.goal, params, problem.u_prev)

    candidates: list[tuple[float, OpenLoopPlan, SqpResult, int]] = []
    iterations = 0
    qp_iterations = 0
    qp_solves = 0
    probes = 0
    stall_eps = 1e-3 * max(1.0, abs(cost_stationary))

    def run_probe(j: int, u_init: np.ndarray):
        nonlocal iterations, qp_iterations, qp_solves, probes
        evaluator = _NlpEvaluator(problem, j)
        res = solve_sqp(evaluator, u_init[:j].reshape(-1), np.tile(lo, j), np.tile(hi, j), feas_tol=params.feas_tol)
        iterations += res.iterations
        qp_iterations += res.qp_iterations
        qp_solves += res.qp_solves
        probes += 1
        if res.status != STATUS_OPTIMAL:
            return None
        u = evaluator.full_inputs(res.x)
        return (res.objective, OpenLoopPlan(rollout(problem.z0, u, params.dt), u, stamp), res, j)

    def rotate_then_drive_seed(j: int) -> Optional[np.ndarray]:
        # Turn toward the goal bearing first, then roll forward: the escape
        # pattern a wedged heading needs, encoded explicitly because the
        # linearization cannot discover it from rest.
        err = _goal_bearing_error(problem)
        rate = params.delta_max if err >= 0 else params.delta_min
        if abs(rate) < 1e-9:
            return None
        turn_steps = min(j - 1, int(math.ceil(abs(err / (rate * params.dt))))) if j > 1 else 0
        seed = np.zeros((n, 2))
        if turn_steps > 0:
            seed[:turn_steps, 1] = np.clip(err / (turn_steps * params.dt), params.delta_min, params.delta_max)
        seed[turn_steps:j, 0] = min(0.4, params.v_max)
        return seed

    def try_stop_index(j: int, u_init: np.ndarray) -> bool:
        cand = run_probe(j, u_init)
        helped = cand is not None and cand[0] < cost_stationary - stall_eps
        if not helped and np.abs(u_init[:j, 0]).max(initial=0.0) < 0.1:
            # At zero speed the heading-rate-to-position coupling vanishes,
            # so the linear model cannot see that turning first pays off.
            # Re-probe from a small forward-speed seed, then from an explicit
            # rotate-then-drive seed.
            nudged = u_init.copy()
            nudged[:j, 0] = min(0.3, params.v_max)
            cand2 = run_probe(j, nudged)
            if cand2 is not None and (cand is None or cand2[0] < cand[0]):
                cand = cand2
            if cand is None or cand[0] >= cost_stationary - stall_eps:
                seed = rotate_then_drive_seed(j)
                if seed is not None:
                    cand3 = run_probe(j, seed)
                    if cand3 is not None and (cand is None or cand3[0] < cand[0]):
                        cand = cand3
        if cand is None:
            return False
        candidates.append(cand)
        return True

    full_ok = try_stop_index(n - 1, u_ws)
    stagnant = not full_ok or candidates[0][0] >= cost_stationary - stall_eps

    if stagnant:
        # Full freedom is blocked or has no incentive to move: probe earlier
        # stop indexes. Holding after an early stop drops the late margins,
        # which is what lets the plan edge toward a receding constraint, so
        # small indexes often win on cost here. The previous step's winning
        # index is tried first; the full sweep only runs when its
        # neighborhood yields nothing.
        hint = problem.stop_hint
        order: list[int] = []
        if hint is not None:
            order.extend(j for j in (hint, hint - 1, hint + 1) if 1 <= j <= n - 2)
        remaining = [j for j in range(1, n - 1) if j not in order]

        def probe_list(js):
            for j in js:
                u_init = u_ws.copy()
                u_init[j:] = 0.0
                try_stop_index(j, u_init)

        probe_list(order)
        best_sweep = min((c[0] for c in candidates), default=math.inf)
        if best_sweep >= cost_stationary - stall_eps:
            probe_list(remaining)

    if stationary_ok:
        candidates.append((cost_stationary, stationary, None, 0))

    if not candidates:
        status = STATUS_INFEASIBLE
        logger.debug("solve infeasible: initial state violates track limits")
        return SolveResult(
            status=status,
            plan=problem.warm_start,
            objective=math.inf,
            iterations=iterations,
            qp_iterations=qp_iterations,
            qp_solves=qp_solves,
            probes=probes,
            stop_index=0,
        )

    candidates.sort(key=lambda item: (item[0], -item[3]))
    cost, plan, res, j = candidates[0]
    translation = float(np.abs(np.diff(plan.states[:, :2], axis=0)).max())
    if stationary_ok and translation <= 1e-4 and np.abs(stationary.inputs[:, 1]).max() > 1e-9:
        # Parked without moving anywhere: hold position but keep turning
        # toward the goal so forward plans reappear within their arrival
        # margins (a stopped rotation is admissible under the stop-speed
        # avoidance semantics).
        plan = stationary
        cost = cost_stationary
        j = 0
    return SolveResult(
        status=STATUS_OPTIMAL,
        plan=plan,
        objective=cost,
        iterations=iterations,
        qp_iterations=qp_iterations,
        qp_solves=qp_solves,
        probes=probes,
        stop_index=j,
    )


def _aligned_stationary_plan(problem: NlpProblem, stamp: int) -> OpenLoopPlan:
    """Hold position while rotating toward the current goal bearing.

    Positions never change, so the plan is admissible whenever the pose
    respects the track limits, exactly like the plain stationary plan; the
    rotation keeps a parked robot oriented so that later forward plans exist
    within their arrival margins. Already-aligned poses yield the plain
    stationary plan.
    """
    params = problem.params
    n = params.N
    z0 = problem.z0
    err = _goal_bearing_error(problem)
    inputs = np.zeros((n, 2))
    if abs(err) > 1e-3:
        remaining = err
        for k in range(n - 1):
            delta = float(np.clip(remaining / params.dt, params.delta_min, params.delta_max))
            if abs(delta) < 1e-12:
                break
            inputs[k, 1] = delta
            remaining -= delta * params.dt
    states = rollout(z0, inputs, params.dt)
    return OpenLoopPlan(states, inputs, stamp)


def _goal_bearing_error(problem: NlpProblem) -> float:
    """Heading change in [-pi, pi] that points the robot at the goal."""
    z0, goal = problem.z0, problem.goal
    bearing = math.atan2(goal[1] - z0[1], goal[0] - z0[0])
    return math.remainder(bearing - z0[2], 2.0 * math.pi)


@dataclass
class FeasibilityReport:
    """Constraint residuals of a plan against live constraint data.

    Avoidance uses the stop-speed complementarity form: per step, the product
    of the step motion and the worst margin violation must vanish, so a
    stopped step may sit inside a margin without being counted as a
    violation. The raw per-step margins are reported alongside.
    """

    dynamics_defect: float
    initial_error: float
    terminal_error: float
    input_bound_violation: float
    state_bound_violation: float
    step_motion: np.ndarray  # (N,)
    avoidance_margin: np.ndarray  # (N,) g_k: positive means inside a margin
    complementarity: np.ndarray  # (N,) max(0, motion_k * g_k)

    @property
    def max_violation(self) -> float:
        comp = float(self.complementarity.max()) if len(self.complementarity) else 0.0
        return max(
            self.dynamics_defect,
            self.initial_error,
            self.terminal_error,
            self.input_bound_violation,
            self.state_bound_violation,
            comp,
        )

    def ok(self, tol: float) -> bool:
        return self.max_violation <= tol


def check_feasibility(
    plan: OpenLoopPlan,
    projections: ProjectionSet,
    static_circles: Sequence[PointCloudCircle],
    params: MpcParams,
    z_init: Optional[np.ndarray] = None,
) -> FeasibilityReport:
    """Audit a plan against the exact constraint semantics.

    Dynamics, the initial condition, input and track-limit bounds, and the
    terminal stop are hard; avoidance is audited in the complementarity form
    ||z_k - z_{k-1}|| * g_t(z_k) <= 0 so stopped steps tolerate positive
    margins. Stopped means not translating: the motion factor is measured on
    position, since rotating in place cannot produce contact. Every row keeps
    its strict margin, also where the planner relaxed it because the robot
    started inside it. Diagnostic only: never raises.
    """
    n = plan.horizon
    states = plan.states
    inputs = plan.inputs
    dt = params.dt

    predicted = rollout(states[0], inputs, dt)
    dynamics_defect = float(np.abs(predicted - states).max())

    initial_error = 0.0 if z_init is None else float(np.abs(states[0] - np.asarray(z_init)).max())
    terminal_error = float(np.linalg.norm(states[n] - states[n - 1]))

    lo, hi = params.input_box
    ib = float(np.max(np.concatenate([lo - inputs, inputs - hi]), initial=0.0))
    gaps, _ = _track_gaps(states[1:, :2], params)
    sb = float(np.max(-gaps, initial=0.0))

    motion = np.linalg.norm(np.diff(states[:, :2], axis=0), axis=1)
    anchors, margins = _avoidance_rows(projections, static_circles, params)
    diff = states[1:, None, :2] - anchors
    excess = margins - np.hypot(diff[..., 0], diff[..., 1])  # (N, M)
    avoidance = excess.max(axis=1) if len(margins) else np.zeros(n)
    complementarity = np.maximum(0.0, motion * np.maximum(avoidance, 0.0))

    return FeasibilityReport(
        dynamics_defect=dynamics_defect,
        initial_error=initial_error,
        terminal_error=terminal_error,
        input_bound_violation=ib,
        state_bound_violation=sb,
        step_motion=motion,
        avoidance_margin=avoidance,
        complementarity=complementarity,
    )


def fallback_plan(prev: OpenLoopPlan) -> OpenLoopPlan:
    """Shift the previous plan forward, repeating its final input.

    A feasible previous plan ends stopped (the terminal equality forces its
    last input to zero for the unicycle), so the appended step holds the
    final state and the shifted plan ends stopped as well. This is the
    guaranteed contingency when a fresh solve fails: reachable sets only
    shrink between steps, so the shifted plan stays feasible under the new
    constraint data.
    """
    if np.abs(prev.inputs[-1]).max() > 1e-9:
        raise ValueError("previous plan does not end stopped; it was not terminally feasible")
    inputs = np.vstack([prev.inputs[1:], prev.inputs[-1][None, :]])
    states = np.vstack([prev.states[1:], prev.states[-1][None, :]])
    return OpenLoopPlan(states, inputs, prev.stamp + 1)
