"""Receding-horizon planner for the unicycle with avoidance constraints.

The decision variables are the input sequence only (single shooting), so the
dynamics and initial condition hold exactly by construction and the terminal
stopping constraint z_N = z_{N-1} reduces to pinning the last input at zero.
The model is defined once: unicycle.rollout gives the states,
unicycle.rollout_sensitivities the same states with their closed-form
derivatives in the inputs, in one pass, and _objective the cost with its
gradients, for the planner and total_cost alike.

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
a search over the phases of SEARCH_PHASES (solve); the all-stopped plan is the
always-feasible floor. Each stop index is one probe of up to two SQPs
(_try_stop_index); a phase of two or more sends its probes down pipes to
forked worker processes (_map). What the probes cost is one _Work record,
summed with + and returned as SolveResult.work; a step record takes its
fields as they are.
"""

from __future__ import annotations

import atexit
import logging
import math
import numbers
import os
import pickle
import select
import sys
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np

from .avoidance import OpenLoopPlan, ProjectionSet
from .solver import STATUS_INFEASIBLE, STATUS_OPTIMAL, EvalResult, solve_sqp
from .unicycle import rollout, rollout_sensitivities

__all__ = [
    "MpcParams",
    "NlpProblem",
    "SEARCH_PHASES",
    "SolveResult",
    "FeasibilityReport",
    "total_cost",
    "solve",
    "check_feasibility",
    "fallback_plan",
]

logger = logging.getLogger("oampc.nmpc")

# The stop-index search phases, in the order solve runs them.
SEARCH_PHASES = ("full", "hint", "sweep")


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
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral):
            raise ValueError(f"N must be an integer, not {self.N!r}")
        lengths = {"q_state": 3, "q_input": 2, "q_input_rate": 2, "state_bounds": 4}
        for f in fields(self):  # first: a NaN passes every comparison below
            value = getattr(self, f.name)
            if f.name == "state_bounds" and value is None:
                continue
            length = lengths.get(f.name)
            items = np.array(value, dtype=object)
            if items.shape != (() if length is None else (length,)) or not all(
                isinstance(v, numbers.Real) and math.isfinite(v) for v in items.flat
            ):
                what = "a finite number" if length is None else f"{length} finite numbers"
                raise ValueError(f"{f.name} must be {what}, not {value!r}")
            if length is not None:  # a tuple of floats, whatever sequence was given, so params hash
                object.__setattr__(self, f.name, tuple(float(v) for v in items))
        if self.N < 2:
            raise ValueError("horizon N must be at least 2")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.d_safe <= 0:
            raise ValueError("d_safe must be positive")
        if self.d_safe_static < 0 or self.r_robot < 0 or self.feas_tol <= 0:
            raise ValueError("d_safe_static and r_robot must be nonnegative and feas_tol positive")
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
    def step_reach(self) -> float:
        """Farthest the robot moves in one step: dt * max(|v_min|, |v_max|)."""
        return self.dt * max(abs(self.v_min), abs(self.v_max))

    def track_violation(self, positions) -> float:
        """How far the worst of positions (..., 2) lies outside the track
        limits, 0 inside them or without limits. A start or plan is on the
        track when this is within feas_tol."""
        return float(np.max(-_track_gaps(np.asarray(positions, dtype=float), self)[0], initial=0.0))


class _Probe(NamedTuple):
    """What a stop-index probe reads of an NlpProblem: the start, goal and
    previous input, the parameters and the avoidance row table, which lives
    only here. solve builds it once (_probe); the probes of a step share it
    here, and a worker is sent it, not the whole problem, in each task."""

    z0: np.ndarray
    goal: np.ndarray
    u_prev: np.ndarray
    params: MpcParams
    row_step: np.ndarray  # (R,) horizon step of each row
    row_anchor: np.ndarray  # (R, 2)
    row_margin: np.ndarray  # (R,)


@dataclass
class NlpProblem:
    """One planning instance: live constraint data plus the warm start.

    stop_hint, when given, is the stop index that won the previous planning
    step; the solver probes its neighborhood first when the full-freedom
    problem saturates.

    A problem holds only its inputs: solve builds the probe record from them
    once per call (_probe), with the avoidance rows that can bind while a
    plan moves.
    """

    z0: np.ndarray  # (3,)
    goal: np.ndarray  # (3,)
    projections: ProjectionSet
    static_circles: np.ndarray  # (M, 3) centre x, centre y, radius
    params: MpcParams
    warm_start: OpenLoopPlan
    u_prev: np.ndarray = field(default_factory=lambda: np.zeros(2))
    stop_hint: Optional[int] = None

    def __post_init__(self):
        self.z0 = np.asarray(self.z0, dtype=float)
        self.goal = np.asarray(self.goal, dtype=float)
        self.u_prev = np.asarray(self.u_prev, dtype=float)
        n = self.params.N
        if self.projections.horizon != n:
            raise ValueError(f"projection horizon {self.projections.horizon} != N {n}")
        if self.warm_start.horizon != n:
            raise ValueError("warm start horizon mismatch")


def _probe(problem: NlpProblem) -> _Probe:
    """The probe record of a problem. Its avoidance rows are those that can
    bind while a plan moves, ordered by horizon step, so a probe with stop
    index j keeps a prefix of them: the rows of steps 1..min(j, N-1)."""
    params = problem.params
    n = params.N
    anchors, margins = _avoidance_rows(problem.projections, problem.static_circles, params)
    diff = anchors - problem.z0[:2]
    gap = np.hypot(diff[..., 0], diff[..., 1])  # (N, M) standoff at the start
    steps = np.arange(1, n + 1)[:, None]
    # Rows bind only while the plan moves, at most through step N-1. A
    # row can only be active if its anchor is within the robot's step-k
    # travel radius plus the margin; farther rows are dropped exactly.
    keep = (steps < n) & (gap <= steps * params.step_reach + 1e-6 + margins)
    # Planner-only relaxation: a row the robot already starts inside (from
    # anchor drift between re-projections) demands no more than the
    # current standoff, so the state can still rotate in place and
    # escape. check_feasibility audits the strict margin.
    rows = (np.nonzero(keep)[0] + 1, anchors[keep], np.minimum(margins, gap)[keep])
    return _Probe(problem.z0, problem.goal, problem.u_prev, params, *rows)


class _Work(NamedTuple):
    """What probes cost, summed with +."""

    sqp_iterations: int = 0
    qp_iterations: int = 0  # interior-point iterations
    qp_solves: int = 0
    penalty_rungs: int = 0  # QP solves at a raised penalty
    probes: int = 0  # SQP solves, re-probes included
    infeasible_probes: int = 0  # probes whose SQP ended infeasible
    probe_ms: float = 0.0  # the probes' own times, each taken where it ran

    def __add__(self, other: "_Work") -> "_Work":
        return _Work(*(a + b for a, b in zip(self, other)))


@dataclass
class SolveResult:
    status: str
    plan: OpenLoopPlan  # the warm start when infeasible
    objective: float
    work: _Work  # summed over the probes run for this step
    stop_index: int  # steps with motion allowed; N-1 means full freedom
    search: str  # the last phase run, one of SEARCH_PHASES


def total_cost(plan: OpenLoopPlan, goal, params: MpcParams, u_prev=None) -> float:
    """Tracking + input effort + input-rate cost over the plan: the planner's
    objective (_objective), so a solved probe's SQP objective is this cost."""
    u_prev = np.zeros(2) if u_prev is None else np.asarray(u_prev, dtype=float)
    return _objective(plan.states, plan.inputs, np.asarray(goal, dtype=float), params, u_prev)[0]


def _objective(states, inputs, goal, params: MpcParams, u_prev) -> tuple[float, np.ndarray, np.ndarray]:
    """The planner's cost and its gradients in the states and in the inputs.

    Sum over k of ||z_k - goal||^2 weighted by q_state for k = 0..N plus
    ||u_k||^2 weighted by q_input and ||u_k - u_{k-1}||^2 weighted by
    q_input_rate for k = 0..N-1, where the rate at k = 0 is taken
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
    inputs, the later ones held at zero: kron(I, 2U + 2R) plus the rate's
    second difference kron(I - E_{+1} - E_{-1}, 2R), with U = diag(q_input)
    and R = diag(q_input_rate). Every free input has a successor in the
    horizon, so every diagonal block carries 2R twice.
    It depends on the parameters only, so it is built once and read-only."""
    eye = np.eye(n_free)
    rate = 2.0 * np.diag(params.q_input_rate)
    hess = np.kron(eye, 2.0 * np.diag(params.q_input) + rate) + np.kron(
        eye - np.eye(n_free, k=1) - np.eye(n_free, k=-1), rate
    )
    hess.flags.writeable = False
    return hess


def _avoidance_rows(
    projections: ProjectionSet, static_circles: np.ndarray, params: MpcParams
) -> tuple[np.ndarray, np.ndarray]:
    """Every avoidance row of one planning step.

    Returns anchors (N, M, 2) and margins (M,): the step-k position must keep
    margins[m] from anchors[k-1, m]. The rows are the families' projections
    (margin d_safe + r_robot), then the static circles' centres (margin
    d_safe_static + r_robot + radius, the same anchor at every step).
    """
    n = projections.horizon
    centres = np.broadcast_to(static_circles[:, :2], (n, len(static_circles), 2))
    anchors = np.concatenate([projections.z_proj.transpose(1, 0, 2), centres], axis=1)
    margins = np.concatenate(
        [
            np.full(len(projections.families), params.d_safe + params.r_robot),
            params.d_safe_static + params.r_robot + static_circles[:, 2],
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
    stop index j onward are fixed at zero. One pass of
    unicycle.rollout_sensitivities gives the states and their closed-form
    sensitivities, hence analytic gradients and a Gauss-Newton cost Hessian.
    The avoidance rows are the probe record's rows through step min(j, N-1).
    """

    def __init__(self, problem: _Probe, stop_index: int):
        self.problem = problem
        self.params = problem.params
        self.j = stop_index
        self.n_free = 2 * stop_index
        rows = np.searchsorted(problem.row_step, stop_index, side="right")
        self._row_step = problem.row_step[:rows]
        self._row_anchor = problem.row_anchor[:rows]
        self._row_margin = problem.row_margin[:rows]
        self._hess_input = _input_hessian(self.params, stop_index)
        self._q_state = np.asarray(self.params.q_state)[:, None]

    def full_inputs(self, x: np.ndarray) -> np.ndarray:
        u = np.zeros((self.params.N, 2))
        u[: self.j] = x.reshape(self.j, 2)
        return u

    def __call__(self, x: np.ndarray) -> EvalResult:
        params, problem, j = self.params, self.problem, self.j
        u = self.full_inputs(x)
        states, S = rollout_sensitivities(problem.z0, u, j, params.dt)  # S (N+1, 3, n_free)

        f, grad_z, grad_u = _objective(states, u, problem.goal, params, problem.u_prev)
        grad = np.einsum("kiv,ki->v", S, grad_z) + grad_u[:j].ravel()
        QS = S * self._q_state  # diag(q_state) S
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

    The stop indexes are probed in phases, and the search stops after the
    first phase that leaves a candidate below the floor, a cost clearly under
    standing still: "full", motion allowed through step N-1 (avoidance
    enforced at every moving step); "hint", the previous step's winning index
    and its two neighbours within [1, N-2]; "sweep", every other index in
    increasing order. SolveResult.search names the last phase run. The
    cheapest candidate wins, ties going to the larger stop index; the
    stationary plan is the guaranteed fallback floor whenever the current
    state respects the track limits.

    The probes of one phase do not depend on each other, so a phase of two
    or more runs them in forked worker processes, one pickled task at a time
    down each worker's pipe (_map). Each result is put at its submission
    index, so the candidates, the tie-breaks and the counters are those of
    running the probes one after another here, bit for bit.
    """
    params = problem.params
    n = params.N
    u_ws = np.clip(problem.warm_start.inputs, *params.input_box)

    data = _probe(problem)
    stationary = _aligned_stationary_plan(data)
    stationary_ok = params.track_violation(problem.z0[:2]) <= params.feas_tol
    cost_stationary = total_cost(stationary, problem.goal, params, problem.u_prev)
    # A candidate improves on standing still only below this cost.
    floor = cost_stationary - 1e-3 * max(1.0, abs(cost_stationary))

    # When full freedom is blocked or has no incentive to move, earlier stop
    # indexes are probed. Holding after an early stop drops the late margins,
    # which is what lets the plan edge toward a receding constraint, so small
    # indexes often win on cost here. The previous step's winning index is
    # tried first; the full sweep only runs when its neighborhood yields
    # nothing.
    hint = problem.stop_hint
    near = [] if hint is None else [j for j in (hint, hint - 1, hint + 1) if 1 <= j <= n - 2]
    phases = zip(SEARCH_PHASES, ([n - 1], near, [j for j in range(1, n - 1) if j not in near]))
    candidates: list[tuple[float, OpenLoopPlan, int]] = []
    work = _Work()
    probe = partial(_try_stop_index, data, u_ws, floor)
    for search, js in phases:
        for cand, cost in _map(probe, js, n):
            work = work + cost
            if cand is not None:
                candidates.append(cand)
        if min((c[0] for c in candidates), default=math.inf) < floor:
            break

    if stationary_ok:
        candidates.append((cost_stationary, stationary, 0))

    if not candidates:
        logger.debug("solve infeasible: initial state violates track limits")
        return SolveResult(STATUS_INFEASIBLE, problem.warm_start, math.inf, work, stop_index=0, search=search)

    cost, plan, j = min(candidates, key=lambda item: (item[0], -item[2]))
    translation = float(np.abs(np.diff(plan.states[:, :2], axis=0)).max())
    if stationary_ok and translation <= 1e-4 and np.abs(stationary.inputs[:, 1]).max() > 1e-9:
        # Parked without moving anywhere: hold position but keep turning
        # toward the goal so forward plans reappear within their arrival
        # margins (a stopped rotation is admissible under the stop-speed
        # avoidance semantics).
        cost, plan, j = cost_stationary, stationary, 0
    return SolveResult(STATUS_OPTIMAL, plan, cost, work, stop_index=j, search=search)


def _try_stop_index(problem: _Probe, u_ws: np.ndarray, floor: float, j: int) -> tuple[Optional[tuple], _Work]:
    """Probe stop index j: one SQP from the first j inputs of the warm start
    u_ws, then, when no candidate gets below floor and that start is at
    rest, one from the same inputs at a small forward speed, both on one
    evaluator. A candidate (cost, plan, j) replaces the one kept only when
    strictly cheaper. Returns the cheapest candidate, or None when no SQP
    ends optimal, and the summed work of the SQPs, each timed where it ran.
    A module-level function, so a task pickled for a worker names it."""
    t0 = time.perf_counter()
    params = problem.params
    lo, hi = params.input_box
    evaluator = _NlpEvaluator(problem, j)
    lb, ub = np.tile(lo, j), np.tile(hi, j)
    starts = [u_ws[:j]]
    if np.abs(u_ws[:j, 0]).max(initial=0.0) < 0.1:
        # At zero speed the heading-rate-to-position coupling vanishes, so
        # the linear model cannot see that turning first pays off. Re-probe
        # from a small forward-speed seed.
        nudged = u_ws[:j].copy()
        nudged[:, 0] = min(0.3, params.v_max)
        starts.append(nudged)
    cand, work = None, _Work()
    for start in starts:
        res = solve_sqp(evaluator, start.reshape(-1), lb, ub, feas_tol=params.feas_tol)
        optimal = res.status == STATUS_OPTIMAL
        if optimal and (cand is None or res.objective < cand[0]):
            u = evaluator.full_inputs(res.x)
            cand = (res.objective, OpenLoopPlan(rollout(problem.z0, u, params.dt), u), j)
        t1 = time.perf_counter()
        work = work + _Work(
            res.iterations, res.qp_iterations, res.qp_solves, res.penalty_rungs, 1, int(not optimal), (t1 - t0) * 1e3
        )
        t0 = t1
        if cand is not None and cand[0] < floor:
            break
    return cand, work


# The probe workers once started, each (pid, task pipe, result pipe); False where none can run.
_pool = None


def _map(fn, js: list[int], n: int) -> list:
    """[fn(j) for j in js], in order: in the probe workers (started by the
    first call with two or more), else here. Each idle worker gets one pickled
    (fn, j); each result goes to its submission index. An exception, a
    worker's or its death, stops the workers and is raised here. A tracer in
    this process sees only the probes run here."""
    global _pool
    if len(js) > 1 and _pool is None:
        _pool = _start_pool(n)
    if len(js) < 2 or not _pool:
        return list(map(fn, js))
    results, todo, running = [None] * len(js), list(enumerate(js)), {}
    try:
        while todo or running:
            for pid, tasks, replies in [w for w in _pool if w[2] not in running][: len(todo)]:  # idle workers
                i, j = todo.pop(0)
                pickle.dump((fn, j), tasks)
                tasks.flush()
                running[replies] = pid, i
            for pipe in select.select(list(running), [], [])[0]:
                pid, i = running.pop(pipe)
                try:
                    ok, results[i] = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise RuntimeError(f"probe worker {pid} exited") from None
                if not ok:
                    raise results[i]
    except BaseException:
        _stop_pool()  # so that no task left running answers a later call
        raise
    return results


def _start_pool(n: int):
    """min(available CPUs, N - 2) probe workers (N - 2: the largest phase),
    forked once with a task and a result pipe each; False where that is fewer
    than 2 or processes cannot fork. A forked worker needs no main guard in
    the caller's script. It keeps only its own pipe ends, so it sees its task
    pipe close (_stop_pool), and leaves by os._exit, running no exit hook."""
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1, n - 2)
    if workers < 2 or not hasattr(os, "fork"):
        return False
    pipes = [os.pipe() + os.pipe() for _ in range(workers)]  # task read, task write, result read, result write
    sys.stdout.flush()
    sys.stderr.flush()
    pool = []
    for task, task_w, result_r, result in pipes:
        if (pid := os.fork()) == 0:
            try:
                for fd in {fd for ends in pipes for fd in ends} - {task, result}:
                    os.close(fd)
                tasks, results = os.fdopen(task, "rb"), os.fdopen(result, "wb")
                while tasks.peek(1):  # empty once the task pipe is closed
                    fn, j = pickle.load(tasks)
                    try:
                        reply = True, fn(j)
                    except Exception as exc:
                        reply = False, exc
                    pickle.dump(reply, results)
                    results.flush()
                os._exit(0)
            finally:
                os._exit(1)
        pool.append((pid, os.fdopen(task_w, "wb"), os.fdopen(result_r, "rb")))
    for fd in (fd for ends in pipes for fd in ends[::3]):  # the workers' task read and result write ends
        os.close(fd)
    return pool


def _drop_pool() -> list[int]:
    """Forget the workers and close this process's ends of their pipes, so
    that they exit; returns their PIDs. A process forked from this one runs
    it at once: the workers are not its children to wait for, and its copies
    of their task pipes would keep them from seeing EOF."""
    global _pool
    pool, _pool = _pool or [], None
    for _, tasks, results in pool:
        tasks.close()
        results.close()
    return [pid for pid, *_ in pool]


@atexit.register
def _stop_pool() -> None:
    """Stop the workers and wait for them."""
    for pid in _drop_pool():
        os.waitpid(pid, 0)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _aligned_stationary_plan(problem: _Probe) -> OpenLoopPlan:
    """Hold position while rotating toward the current goal bearing.

    Positions never change, so the plan is admissible whenever the pose
    respects the track limits, exactly like the plain stationary plan; the
    rotation keeps a parked robot oriented so that later forward plans exist
    within their arrival margins. Already-aligned poses yield the plain
    stationary plan.
    """
    params = problem.params
    err = _goal_bearing_error(problem)
    inputs = np.zeros((params.N, 2))
    if abs(err) > 1e-3:
        remaining = err
        for k in range(params.N - 1):
            delta = float(np.clip(remaining / params.dt, params.delta_min, params.delta_max))
            if abs(delta) < 1e-12:
                break
            inputs[k, 1] = delta
            remaining -= delta * params.dt
    return OpenLoopPlan(rollout(problem.z0, inputs, params.dt), inputs)


def _goal_bearing_error(problem: _Probe) -> float:
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
    avoidance_margin: np.ndarray  # (N,) g_k: positive means inside a margin
    complementarity: np.ndarray  # (N,) max(0, motion_k * g_k)

    @property
    def max_violation(self) -> float:
        bounds = (self.input_bound_violation, self.state_bound_violation, float(self.complementarity.max(initial=0.0)))
        return max(self.dynamics_defect, self.initial_error, self.terminal_error, *bounds)

    def ok(self, tol: float) -> bool:
        return self.max_violation <= tol


def check_feasibility(
    plan: OpenLoopPlan,
    projections: ProjectionSet,
    static_circles: np.ndarray,
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
    n, states, inputs = plan.horizon, plan.states, plan.inputs
    dynamics_defect = float(np.abs(rollout(states[0], inputs, params.dt) - states).max())

    initial_error = 0.0 if z_init is None else float(np.abs(states[0] - np.asarray(z_init)).max())
    terminal_error = float(np.linalg.norm(states[n] - states[n - 1]))

    lo, hi = params.input_box
    ib = float(np.max(np.concatenate([lo - inputs, inputs - hi]), initial=0.0))
    sb = params.track_violation(states[1:, :2])

    motion = np.linalg.norm(np.diff(states[:, :2], axis=0), axis=1)
    anchors, margins = _avoidance_rows(projections, static_circles, params)
    diff = states[1:, None, :2] - anchors
    excess = margins - np.hypot(diff[..., 0], diff[..., 1])  # (N, M)
    avoidance = excess.max(axis=1) if len(margins) else np.zeros(n)
    complementarity = np.maximum(0.0, motion * np.maximum(avoidance, 0.0))

    return FeasibilityReport(dynamics_defect, initial_error, terminal_error, ib, sb, avoidance, complementarity)


def fallback_plan(prev: OpenLoopPlan) -> OpenLoopPlan:
    """Shift the previous plan forward, repeating its final input.

    A feasible previous plan ends stopped (the terminal equality forces its
    last input to zero for the unicycle), so the appended step holds the
    final state. The shifted plan therefore ends stopped and satisfies the
    dynamics. It is not guaranteed to clear the new constraint data: the
    reachable sets are rebuilt from every scan and need not shrink between
    steps, so the shift can fail the audit (at 25 of 64 steps of a
    corner-fast episode). sim_engine audits it whenever it applies it, like
    every applied plan, and logs a warning when it fails.
    """
    if np.abs(prev.inputs[-1]).max() > 1e-9:
        raise ValueError("previous plan does not end stopped; it was not terminally feasible")
    inputs = np.vstack([prev.inputs[1:], prev.inputs[-1][None, :]])
    states = np.vstack([prev.states[1:], prev.states[-1][None, :]])
    return OpenLoopPlan(states, inputs)
