"""Receding-horizon planner for the unicycle with avoidance constraints.

The decision variables are the input sequence only (single shooting), so the
dynamics and initial condition hold exactly by construction and the terminal
stopping constraint z_N = z_{N-1} reduces to pinning the last input at zero.

Collision avoidance enters through fixed projected points: at horizon step k
the planned position must keep d_safe + r_robot from each reachable-set
projection and d_safe_static + r_robot + r_circle from each static coverage
circle. Avoidance is subject to the stop-speed complementarity semantics: a
step may sit inside a margin only if the plan is stopped there. The solver
realizes this with a stop index j (move through step j, hold position after),
found by one full-freedom solve plus, when needed, probes of earlier stop
indexes: the previous step's index and its two neighbours first, then the rest
in order if none of those beats standing still. The cheapest candidate wins,
and the all-stopped plan is the always-feasible floor.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .avoidance import OpenLoopPlan, ProjectionSet
from .lidar_sim import PointCloudCircle
from .solver import STATUS_INFEASIBLE, STATUS_OPTIMAL, EvalResult, SqpResult, solve_sqp
from .unicycle import ControlInput, RobotState, dynamics_step, rollout

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
    opt_tol: float = 1e-8
    max_iter: int = 60

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
    """

    z0: np.ndarray  # (3,)
    goal: np.ndarray  # (3,)
    projections: ProjectionSet
    static_circles: Sequence[PointCloudCircle]
    params: MpcParams
    warm_start: OpenLoopPlan
    u_prev: np.ndarray = field(default_factory=lambda: np.zeros(2))
    stop_hint: Optional[int] = None

    def __post_init__(self):
        self.z0 = np.asarray(self.z0, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        self.u_prev = np.asarray(self.u_prev, dtype=float)
        if self.projections.horizon != self.params.N:
            raise ValueError(
                f"projection horizon {self.projections.horizon} != N {self.params.N}"
            )
        if self.warm_start.horizon != self.params.N:
            raise ValueError("warm start horizon mismatch")


@dataclass
class SolveResult:
    status: str
    plan: OpenLoopPlan
    objective: float
    iterations: int
    wall_time: float
    stop_index: int  # steps with motion allowed; N-1 means full freedom


def total_cost(plan: OpenLoopPlan, goal, params: MpcParams, u_prev=None) -> float:
    """Tracking + input effort + input-rate cost over the plan.

    Sum over k of ||z_k - goal||^2_Qz for k = 0..N plus ||u_k||^2_Qu and
    ||u_k - u_{k-1}||^2_Qdu for k = 0..N-1, where the rate at k = 0 is taken
    against the previously applied input.
    """
    goal = np.asarray(goal, dtype=float)
    u_prev = np.zeros(2) if u_prev is None else np.asarray(u_prev, dtype=float)
    Qz, Qu, Qdu = params.Qz, params.Qu, params.Qdu
    err = plan.states - goal[None, :]
    cost = float(np.einsum("ki,ij,kj->", err, Qz, err))
    cost += float(np.einsum("ki,ij,kj->", plan.inputs, Qu, plan.inputs))
    du = np.diff(np.vstack([u_prev[None, :], plan.inputs]), axis=0)
    cost += float(np.einsum("ki,ij,kj->", du, Qdu, du))
    return cost


@dataclass
class _ConstraintData:
    """Distance-anchor rows grouped per horizon step.

    anchors[k] is an (m_k, 2) array of points the step-k position must keep
    dmins[k] away from; assembled once per solve from the projection set and
    the culled static circles.
    """

    anchors: list[np.ndarray]
    dmins: list[np.ndarray]


def _build_anchor_rows(problem: NlpProblem, stop_index: int) -> _ConstraintData:
    params = problem.params
    n = params.N
    p0 = problem.z0[:2]
    d_dyn = params.d_safe + params.r_robot
    reach = params.dt * max(abs(params.v_min), abs(params.v_max))

    anchors: list[np.ndarray] = [np.zeros((0, 2)) for _ in range(n + 1)]
    dmins: list[np.ndarray] = [np.zeros(0) for _ in range(n + 1)]
    for k in range(1, min(stop_index, n - 1) + 1):
        rows = []
        dvals = []
        # A row can only be active if its anchor is within the robot's step-k
        # travel radius plus the margin; farther rows are dropped exactly.
        cull = k * reach + 1e-6
        for proj in problem.projections.families:
            q = proj.z_proj[k - 1]
            gap = np.hypot(*(q - p0))
            if gap <= cull + d_dyn:
                rows.append(q)
                # Recoverable margin: a state already inside a margin (from
                # anchor drift between re-projections) must still be able to
                # rotate in place and escape, so the row never demands more
                # than the current standoff.
                dvals.append(min(d_dyn, gap))
        for circ in problem.static_circles:
            c = circ.center.as_array()
            dmin = params.d_safe_static + params.r_robot + circ.radius
            gap = np.hypot(*(c - p0))
            if gap <= cull + dmin:
                rows.append(c)
                dvals.append(min(dmin, gap))
        if rows:
            anchors[k] = np.array(rows)
            dmins[k] = np.array(dvals)
    return _ConstraintData(anchors, dmins)


class _NlpEvaluator:
    """Single-shooting evaluation of cost, constraints, and derivatives.

    Decision vector: the free inputs u_0..u_{j-1} flattened; inputs from the
    stop index j onward are fixed at zero. State sensitivities propagate as
    S_{k+1} = A_k S_k + B_k E_k, giving analytic gradients and a Gauss-Newton
    cost Hessian.
    """

    def __init__(self, problem: NlpProblem, stop_index: int):
        self.problem = problem
        self.params = problem.params
        self.j = stop_index
        self.n_free = 2 * stop_index
        self.cons = _build_anchor_rows(problem, stop_index)
        # Effort and rate costs are quadratic in the inputs with a constant
        # Hessian; assemble it once.
        n, j = self.params.N, stop_index
        Qu, Qdu = self.params.Qu, self.params.Qdu
        H = np.zeros((self.n_free, self.n_free))
        for k in range(n):
            blk = slice(2 * k, 2 * k + 2)
            if k < j:
                H[blk, blk] += 2.0 * Qu + 2.0 * Qdu
            if 1 <= k and k - 1 < j:
                prev = slice(2 * (k - 1), 2 * (k - 1) + 2)
                H[prev, prev] += 2.0 * Qdu
                if k < j:
                    H[blk, prev] -= 2.0 * Qdu
                    H[prev, blk] -= 2.0 * Qdu
        self._hess_input = H
        self._state_steps = np.minimum(np.arange(n + 1), j)

    def full_inputs(self, x: np.ndarray) -> np.ndarray:
        u = np.zeros((self.params.N, 2))
        u[: self.j] = x.reshape(self.j, 2)
        return u

    def __call__(self, x: np.ndarray) -> EvalResult:
        params = self.params
        n = params.N
        dt = params.dt
        j = self.j
        u = self.full_inputs(x)
        states = rollout(self.problem.z0, u, dt)

        # Sensitivities S_k = dz_k/dx for k = 0..j (frozen afterwards).
        sens = np.zeros((j + 1, 3, self.n_free))
        for k in range(j):
            psi = states[k, 2]
            v = u[k, 0]
            A = np.array(
                [[1.0, 0.0, -dt * v * math.sin(psi)], [0.0, 1.0, dt * v * math.cos(psi)], [0.0, 0.0, 1.0]]
            )
            sens[k + 1] = A @ sens[k]
            sens[k + 1][0, 2 * k] = dt * math.cos(psi)
            sens[k + 1][1, 2 * k] = dt * math.sin(psi)
            sens[k + 1][2, 2 * k + 1] = dt

        S_all = sens[self._state_steps]  # (n+1, 3, n_free)

        Qz, Qu, Qdu = params.Qz, params.Qu, params.Qdu
        err = states - self.problem.goal[None, :]
        Qe = err @ Qz
        f = float(np.einsum("ki,ki->", Qe, err))
        grad = 2.0 * np.einsum("kiv,ki->v", S_all, Qe)
        QS = np.einsum("ij,kjv->kiv", Qz, S_all)
        hess = 2.0 * np.einsum("kiv,kiw->vw", S_all, QS) + self._hess_input

        du = np.diff(np.vstack([self.problem.u_prev[None, :], u]), axis=0)
        f += float(np.einsum("ki,ij,kj->", u, Qu, u))
        f += float(np.einsum("ki,ij,kj->", du, Qdu, du))
        grad_u = 2.0 * (u @ Qu) + 2.0 * (du @ Qdu)
        grad_u[:-1] -= 2.0 * (du[1:] @ Qdu)
        grad += grad_u[:j].reshape(-1)

        c_parts: list[np.ndarray] = []
        j_parts: list[np.ndarray] = []
        for k in range(1, j + 1):
            anchors = self.cons.anchors[k]
            if len(anchors) == 0:
                continue
            Pk = sens[k][:2, :]
            diff = states[k, :2][None, :] - anchors
            dist = np.hypot(diff[:, 0], diff[:, 1])
            dirs = diff / np.maximum(dist, 1e-9)[:, None]
            c_parts.append(dist - self.cons.dmins[k])
            j_parts.append(dirs @ Pk)
        if params.state_bounds is not None:
            xmin, xmax, ymin, ymax = params.state_bounds
            P = sens[1 : j + 1, :2, :]  # (j, 2, n_free)
            px, py = states[1 : j + 1, 0], states[1 : j + 1, 1]
            c_parts.append(np.concatenate([px - xmin, xmax - px, py - ymin, ymax - py]))
            j_parts.append(
                np.vstack([P[:, 0, :], -P[:, 0, :], P[:, 1, :], -P[:, 1, :]])
            )

        if c_parts:
            c = np.concatenate(c_parts)
            jac = np.vstack(j_parts)
        else:
            c = np.zeros(0)
            jac = np.zeros((0, self.n_free))
        return EvalResult(f=f, grad=grad, hess=hess, c=c, jac=jac)


def _plan_from_inputs(problem: NlpProblem, u: np.ndarray, stamp: int) -> OpenLoopPlan:
    states = rollout(problem.z0, u, problem.params.dt)
    return OpenLoopPlan(states, u.copy(), stamp)


def _solve_at_stop_index(problem: NlpProblem, stop_index: int, u_init: np.ndarray) -> SqpResult:
    params = problem.params
    evaluator = _NlpEvaluator(problem, stop_index)
    lb = np.tile([params.v_min, params.delta_min], stop_index)
    ub = np.tile([params.v_max, params.delta_max], stop_index)
    x0 = u_init[:stop_index].reshape(-1)
    return solve_sqp(
        evaluator,
        x0,
        lb,
        ub,
        feas_tol=params.feas_tol,
        opt_tol=params.opt_tol,
        max_iter=params.max_iter,
    )


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
    t0 = time.perf_counter()
    params = problem.params
    n = params.N
    stamp = problem.warm_start.stamp

    u_ws = problem.warm_start.inputs.copy()
    u_ws[:, 0] = np.clip(u_ws[:, 0], params.v_min, params.v_max)
    u_ws[:, 1] = np.clip(u_ws[:, 1], params.delta_min, params.delta_max)
    u_ws[n - 1] = 0.0

    stationary = _aligned_stationary_plan(problem, stamp)
    stationary_ok = _within_state_bounds(problem.z0, params)
    cost_stationary = total_cost(stationary, problem.goal, params, problem.u_prev)

    candidates: list[tuple[float, OpenLoopPlan, SqpResult, int]] = []
    iterations = 0
    stall_eps = 1e-3 * max(1.0, abs(cost_stationary))

    def run_probe(j: int, u_init: np.ndarray):
        nonlocal iterations
        res = _solve_at_stop_index(problem, j, u_init)
        iterations += res.iterations
        if res.status != STATUS_OPTIMAL:
            return None
        u = np.zeros((n, 2))
        u[:j] = res.x.reshape(j, 2)
        plan = _plan_from_inputs(problem, u, stamp)
        cost = total_cost(plan, problem.goal, params, problem.u_prev)
        return (cost, plan, res, j)

    def rotate_then_drive_seed(j: int) -> Optional[np.ndarray]:
        # Turn toward the goal bearing first, then roll forward: the escape
        # pattern a wedged heading needs, encoded explicitly because the
        # linearization cannot discover it from rest.
        err = math.atan2(problem.goal[1] - problem.z0[1], problem.goal[0] - problem.z0[0])
        err = math.remainder(err - problem.z0[2], 2.0 * math.pi)
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
            wall_time=time.perf_counter() - t0,
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
        wall_time=time.perf_counter() - t0,
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
    err = math.atan2(problem.goal[1] - z0[1], problem.goal[0] - z0[0])
    err = math.remainder(err - z0[2], 2.0 * math.pi)
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


def _within_state_bounds(z: np.ndarray, params: MpcParams, tol: float = None) -> bool:
    if params.state_bounds is None:
        return True
    tol = params.feas_tol if tol is None else tol
    xmin, xmax, ymin, ymax = params.state_bounds
    return xmin - tol <= z[0] <= xmax + tol and ymin - tol <= z[1] <= ymax + tol


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
    position, since rotating in place cannot produce contact. Diagnostic
    only: never raises.
    """
    n = plan.horizon
    states = plan.states
    inputs = plan.inputs
    dt = params.dt

    predicted = rollout(states[0], inputs, dt)
    dynamics_defect = float(np.abs(predicted - states).max())

    initial_error = 0.0 if z_init is None else float(np.abs(states[0] - np.asarray(z_init)).max())
    terminal_error = float(np.linalg.norm(states[n] - states[n - 1]))

    ib = 0.0
    ib = max(ib, float(np.max(params.v_min - inputs[:, 0], initial=0.0)))
    ib = max(ib, float(np.max(inputs[:, 0] - params.v_max, initial=0.0)))
    ib = max(ib, float(np.max(params.delta_min - inputs[:, 1], initial=0.0)))
    ib = max(ib, float(np.max(inputs[:, 1] - params.delta_max, initial=0.0)))

    sb = 0.0
    if params.state_bounds is not None:
        xmin, xmax, ymin, ymax = params.state_bounds
        px, py = states[1:, 0], states[1:, 1]
        sb = max(
            float(np.max(xmin - px, initial=0.0)),
            float(np.max(px - xmax, initial=0.0)),
            float(np.max(ymin - py, initial=0.0)),
            float(np.max(py - ymax, initial=0.0)),
        )

    motion = np.linalg.norm(np.diff(states[:, :2], axis=0), axis=1)
    margins = np.zeros(n)
    d_dyn = params.d_safe + params.r_robot
    for k in range(1, n + 1):
        g = -math.inf
        pk = states[k, :2]
        for proj in projections.families:
            dist = float(np.hypot(*(pk - proj.z_proj[k - 1])))
            g = max(g, d_dyn - dist)
        for circ in static_circles:
            dmin = params.d_safe_static + params.r_robot + circ.radius
            dist = float(np.hypot(*(pk - circ.center.as_array())))
            g = max(g, dmin - dist)
        margins[k - 1] = 0.0 if g == -math.inf else g
    complementarity = np.maximum(0.0, motion * np.maximum(margins, 0.0))

    return FeasibilityReport(
        dynamics_defect=dynamics_defect,
        initial_error=initial_error,
        terminal_error=terminal_error,
        input_bound_violation=ib,
        state_bound_violation=sb,
        step_motion=motion,
        avoidance_margin=margins,
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
