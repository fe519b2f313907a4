"""Small dense constrained-NLP solver.

Sequential quadratic programming with a trust region and an exact penalty:
each iteration linearizes the constraints, adds a single elastic slack so the
subproblem is always feasible, and solves the resulting convex QP with a
primal-dual interior-point method. A linearization assembles its QP once:
raising the penalty weight only changes the QP's linear term. The trust
region is the textbook one (Conn, Gould & Toint, Trust-Region Methods, SIAM
2000): a rejected step shrinks the radius, a good step at its edge grows it.
One rule answers a step without progress: stop once feasible or at the
penalty cap, else raise the penalty tenfold. Deterministic given identical
inputs. The SQP starts from the caller's point, so a previous plan
warm-starts it; every QP cold-starts its interior-point method.

The interior-point method stops at one tolerance, 1e-9 times the QP's data
scale, on the largest of the dual residual, the primal residual and the
complementarity mu. mu gets no tighter target: once both residuals reach
about 1e-10*scale, mu swings between 1e-11 and 1e-10*scale from one
iteration to the next, the floating-point floor of the Mehrotra iteration,
and waiting for it to go lower only idles. The stall exit (8 iterations
without progress) is left mainly to QPs with a large penalty weight, which
the cold start does not solve.

Sized for problems with tens of variables and a few hundred inequality
constraints; everything is dense numpy. At that size an interior-point
iteration's time goes mostly to numpy's per-call overhead, so the loop is
written to make few calls and few allocations. The slacks and multipliers
live in one (2, m) array [s; z], and the Newton step writes [ds; dz] into
one (2, m) buffer, so one masked divide and one row-wise max give both step
lengths and one V + alphas D moves s and z together. The step is written
once and run twice per iteration, for the predictor's complementarity
residual and then for the corrector's; only that residual differs. The
temporaries of an iteration (the scaling w, WG, the normal matrix, the
centred residual, |R|) are written into a workspace allocated once per call.

Matrix products go through ndarray.dot, not @. Both call the same BLAS
routine, so the results are the same bits, but the matmul gufunc's dispatch
costs about 1 us more per product (2.6 against 1.1 us for a 19 x 19 matrix
and a vector), and an iteration makes about 20: about 10% of its time.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

logger = logging.getLogger("oampc.solver")

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"

_TRUST_RADIUS = 1.0  # initial trust-region radius
_PENALTY_INIT = 10.0  # floor of the initial exact-penalty weight
_PENALTY_MAX = 1e7  # a violation surviving this weight means infeasible
_SQP_MAX_ITER = 60
_SQP_OPT_TOL = 1e-8  # relative model decrease below which the SQP stops
_QP_MAX_ITER = 40  # interior-point iterations per QP


@dataclass
class EvalResult:
    """One evaluation of the NLP: objective, gradient, model Hessian (PSD),
    inequality constraints (feasible when >= 0) and their Jacobian."""

    f: float
    grad: np.ndarray
    hess: np.ndarray
    c: np.ndarray
    jac: np.ndarray


@dataclass
class SqpResult:
    status: str
    x: np.ndarray
    objective: float
    iterations: int
    max_violation: float
    qp_iterations: int  # interior-point iterations summed over every QP solved
    qp_solves: int  # solve_qp calls
    penalty_rungs: int  # QP solves after the first at one linearization, at a raised penalty


def solve_qp(P: np.ndarray, q: np.ndarray, G: np.ndarray, h: np.ndarray):
    """Minimize 0.5 y'Py + q'y subject to G y <= h (P PSD, dense).

    Mehrotra predictor-corrector on the slack form G y + s = h, s >= 0,
    cold-started from y = 0 on every call. Each iteration factors the normal
    matrix P + G'WG + 1e-12 I once by Cholesky and inverts the factor, then
    runs one Newton step twice: for the predictor's complementarity residual
    s z, and for the corrector's s z + ds dz - sigma mu. Its solve is two
    products with the inverse plus one refinement pass, and it ends with the
    step length of each of s and z.
    Returns (y, z, iterations) with z the constraint multipliers and
    iterations the number of Newton steps taken. It stops at the first
    iterate whose dual residual, primal residual and complementarity mu are
    all within 1e-9*scale, scale being 1 plus the largest |q| or |h| (the
    module docstring says why mu has no tighter target). The QPs that never
    get there leave through the stall exit (8 iterations without progress),
    the iteration cap, or a normal matrix that does not factor (a singular
    or indefinite one, which no planner QP has), and return the iterate with
    the smallest residual.

    The loop keeps [s; z] and [ds; dz] in (2, m) arrays and writes its
    temporaries into a workspace allocated once per call (see the module
    docstring). The iterates y and [s; z] are updated out of place, so the
    incumbent keeps references to arrays no later iteration writes. Every
    value comes from the same floating-point operations in the same order as
    a loop over separate s and z arrays.
    """
    n = len(q)
    m = len(h)
    reg_eye = 1e-12 * np.eye(n)
    if m == 0:
        return np.linalg.solve(P + reg_eye, -q), np.zeros(0), 0

    y = np.zeros(n)
    V = np.ones((2, m))  # [s; z]
    np.maximum(h - G.dot(y), 1.0, out=V[0])
    Gt = G.T
    # The workspace. R is [r_d; r_p], the dual and primal residuals, and D
    # the latest Newton step [ds; dz].
    R, neg_R, abs_R = np.empty((3, n + m))
    r_d, r_p = R[:n], R[n:]
    neg_r_d, neg_r_p = neg_R[:n], neg_R[n:]
    D, ratios, after = np.empty((3, 2, m))
    ds, dz = D
    descent = np.empty((2, m), dtype=bool)
    w, w_r_p, sz, r_c_s = np.empty((4, m))
    GW = np.empty((m, n))
    M = np.empty((n, n))

    tol_resid = 1e-9 * (1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0)))
    best_resid, best_y, best_z = np.inf, y, V[1]
    stalled = 0
    for iterations in range(_QP_MAX_ITER + 1):
        # Judge the iterate reached after this many Newton steps.
        s, z = V
        np.add(P.dot(y) + q, Gt.dot(z), out=r_d)
        np.subtract(G.dot(y) + s, h, out=r_p)
        mu = float(s.dot(z)) / m

        # The largest |r_d| and |r_p| in one reduction: a max is exact.
        resid = max(np.maximum.reduce(np.abs(R, out=abs_R)), mu)
        # The incumbent is the earliest iterate of smallest residual, except
        # that the last one allowed wins a tie.
        if resid < best_resid or resid == best_resid and iterations == _QP_MAX_ITER:
            best_resid, best_y, best_z = resid, y, z
        if resid <= tol_resid or iterations == _QP_MAX_ITER:
            break
        if resid < 0.99 * best_resid or resid == best_resid:
            stalled = 0
        else:
            stalled += 1
            if stalled >= 8:
                break

        # Clipping the scaling keeps the normal matrix solvable when slacks
        # of active constraints collapse. G'W is formed as (WG)': the same
        # products in the same layout as Gt * w, from a faster broadcast.
        np.maximum(s, 1e-14, out=w)
        np.divide(z, w, out=w)
        np.minimum(w, 1e12, out=w)
        np.multiply(G, w[:, None], out=GW)
        np.add(P, GW.T.dot(G), out=M)
        try:
            L = np.linalg.cholesky(M + reg_eye)
        except np.linalg.LinAlgError:
            break
        # One inverse of the factor serves all four solves of this iteration:
        # a matrix-vector product is far cheaper than a LAPACK solve call at
        # this size. Li is applied twice rather than forming Li'Li, whose
        # rounding loses the small-eigenvalue directions of a near-singular M.
        Li = np.linalg.inv(L)
        LiT = Li.T
        np.negative(R, out=neg_R)
        np.multiply(w, r_p, out=w_r_p)
        np.multiply(s, z, out=sz)

        # One Newton step, run twice: the predictor's (affine scaling) for the
        # complementarity residual r_c = s z, then the corrector's for the
        # centred second-order residual r_c = s z + ds dz - sigma mu, with the
        # predictor's ds, dz. Each solve takes one refinement pass, which
        # recovers digits lost to ill-conditioning. The step lengths per row
        # are min(1, min of -V/D over D < 0), taken without boolean indexing:
        # negation is exact, so that minimum is minus the largest V/D.
        r_c = sz
        for corrector in (False, True):
            np.divide(r_c, s, out=r_c_s)
            rhs = neg_r_d - Gt.dot(w_r_p - r_c_s)
            dy = LiT.dot(Li.dot(rhs))
            dy += LiT.dot(Li.dot(rhs - M.dot(dy)))
            gdy = G.dot(dy)
            np.subtract(neg_r_p, gdy, out=ds)
            np.subtract(w * (r_p + gdy), r_c_s, out=dz)
            ratios.fill(-np.inf)
            np.divide(V, D, out=ratios, where=np.less(D, 0.0, out=descent))
            lengths = np.fmin(1.0, -np.maximum.reduce(ratios, axis=1, keepdims=True))
            if corrector:
                break
            np.add(V, np.multiply(lengths, D, out=after), out=after)
            mu_aff = float(after[0].dot(after[1])) / m
            sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0
            r_c = r_c_s
            np.multiply(ds, dz, out=r_c)
            np.add(sz, r_c, out=r_c)
            np.subtract(r_c, sigma * mu, out=r_c)
        alphas = 0.99 * lengths
        y = y + alphas[0] * dy
        V = V + alphas * D
    return best_y, best_z, iterations


def _violation(c: np.ndarray) -> float:
    """The largest violation of c >= 0, 0.0 for none; a NaN in c is an
    infinite violation, never a met constraint."""
    worst = float(-c.min(initial=0.0))
    return math.inf if math.isnan(worst) else max(0.0, worst)


def solve_sqp(
    evaluate: Callable[[np.ndarray], EvalResult],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    *,
    feas_tol: float = 1e-6,
) -> SqpResult:
    """Minimize evaluate(x).f subject to evaluate(x).c >= 0 and lb <= x <= ub.

    Each point is clipped to the box, evaluated and its violation computed,
    once. An iterate is feasible when its worst constraint violation is
    within feas_tol. The cheapest feasible iterate seen (including x0) is
    never discarded, so a feasible warm start is never degraded. A step
    without progress (a negligible model decrease, or the trust radius at its
    floor) meets one rule: stop once feasible or at the penalty cap, else
    raise the penalty tenfold. The status is decided once, at the returned
    point: optimal if it is feasible, infeasible otherwise.

    A rejected step quarters the trust radius, and keeps quartering it,
    with no QP, while the step fits in half of it: a QP in that smaller box
    returns about the same step. These shrinks are not iterations: they
    count neither toward _SQP_MAX_ITER nor in SqpResult.iterations, which
    counts the iterations that solved a QP.
    """
    def point(p):
        """(p clipped to the box, its evaluation, its violation)."""
        p = np.clip(p, lb, ub)
        ev_p = evaluate(p)
        return p, ev_p, _violation(ev_p.c)

    x, ev, viol = point(np.asarray(x0, dtype=float))
    # Constraint gradients are unit-scale here (distances), so a penalty on
    # the order of the objective gradient makes violations never profitable.
    mu = max(_PENALTY_INIT, float(np.abs(ev.grad).max(initial=0.0)))
    delta = _TRUST_RADIUS
    delta_min, delta_max = 1e-12, 16.0

    def merit_fall(trial):
        """How far the merit f + mu * violation falls from x to a point()."""
        return (ev.f + mu * viol) - (trial[1].f + mu * trial[2])

    counts = Counter(qp_iterations=0, qp_solves=0, penalty_rungs=0)

    def solve_elastic(qp: _ElasticQp):
        """(d, sigma) of qp at the current penalty, counted. A solve of a QP
        solved before is a penalty rung."""
        d, sigma, qp_iterations = qp.solve(mu)
        counts.update(qp_iterations=qp_iterations, qp_solves=1, penalty_rungs=int(qp.solves > 1))
        return d, sigma

    best = None  # the cheapest feasible point() an iteration started from
    qp = None  # elastic QP at the current x and delta; penalty rounds reuse it
    iterations = 0
    # A trial with an infinite violation is always rejected (rho -inf or
    # NaN), so only x0 can have one, and then no step could leave it.
    while iterations < _SQP_MAX_ITER and viol < math.inf:
        iterations += 1
        if viol <= feas_tol and (best is None or ev.f < best[1].f):
            best = x, ev, viol
        if qp is None:
            qp = _ElasticQp(ev, x, lb, ub, delta)
        d, sigma = solve_elastic(qp)

        # An active elastic slack means the linearized constraints were not
        # met within the current penalty budget: escalate until they are or
        # the budget is exhausted (which signals true infeasibility).
        rounds = 0
        while sigma > max(feas_tol, 1e-12) and mu < _PENALTY_MAX and rounds < 3:
            mu = min(10.0 * mu, _PENALTY_MAX)
            d, sigma = solve_elastic(qp)
            rounds += 1

        model_decrease = -(ev.grad.dot(d) + (0.5 * d).dot(ev.hess).dot(d)) + mu * (viol - sigma)

        if not (model_decrease <= _SQP_OPT_TOL * (1.0 + abs(ev.f) + mu * viol)):
            qp = None  # accepting the step moves x, rejecting it shrinks delta
            trial = point(x + d)
            rho = merit_fall(trial) / model_decrease
            step = np.max(np.abs(d))
            if rho >= 0.1:
                x, ev, viol = trial
                if rho >= 0.7 and step >= 0.9 * delta:
                    delta = min(2.0 * delta, delta_max)
                continue
            delta = max(0.25 * delta, delta_min)
            while step < 0.5 * delta and delta > delta_min:
                delta = max(0.25 * delta, delta_min)
            if delta > delta_min:
                continue
            delta = _TRUST_RADIUS * 0.01  # restarted, with a new QP

        # No progress at this penalty.
        if viol <= feas_tol or mu >= _PENALTY_MAX:
            break
        mu = min(10.0 * mu, _PENALTY_MAX)

    if best is not None and (viol > feas_tol or best[1].f < ev.f):
        # Prefer the incumbent when the final iterate is worse or infeasible;
        # its evaluation was kept, so it is not evaluated again.
        x, ev, viol = best
    status = STATUS_OPTIMAL if viol <= feas_tol else STATUS_INFEASIBLE

    logger.debug("sqp done status=%s iters=%d f=%.6g viol=%.3g", status, iterations, ev.f, viol)
    return SqpResult(
        status=status,
        x=x,
        objective=ev.f,
        iterations=iterations,
        max_violation=viol,
        **counts,
    )


class _ElasticQp:
    """Trust-region QP subproblem with one elastic slack.

    Variables y = [d, sigma]; minimize 0.5 d'Hd + g'd + mu*sigma subject to
    c + J d + sigma >= 0, sigma >= 0, and the trust/bound box on d. Only the
    penalty weight mu enters after assembly, so one linearization assembles
    P, G and h once and every penalty round reuses them.
    """

    def __init__(self, ev: EvalResult, x, lb, ub, delta):
        n = len(x)
        m = len(ev.c)
        eye = np.eye(n)
        self.P = np.zeros((n + 1, n + 1))
        self.P[:n, :n] = ev.hess + 1e-9 * eye
        self.P[n, n] = 1e-9
        self.grad = ev.grad
        self.up = np.minimum(ub - x, delta)
        self.lo = np.maximum(lb - x, -delta)
        # Rows: linearized constraints, sigma >= 0, then the upper and lower
        # box on d (the lower one is -eye, signed zeros included).
        G = np.zeros((m + 1 + 2 * n, n + 1))
        G[:m, :n] = -ev.jac
        G[:m, n] = -1.0
        G[m, n] = -1.0
        G[m + 1 : m + 1 + n, :n] = eye
        G[m + 1 + n :, :n] = -eye
        self.G = G
        self.h = np.concatenate([ev.c, np.zeros(1), self.up, -self.lo])
        self.solves = 0

    def q(self, mu: float) -> np.ndarray:
        """The QP's linear term at penalty weight mu."""
        return np.concatenate([self.grad, [mu]])

    def solve(self, mu: float):
        """Returns (d, sigma, interior-point iterations) at penalty weight mu."""
        self.solves += 1
        n = len(self.grad)
        y, _, iterations = solve_qp(self.P, self.q(mu), self.G, self.h)
        d = np.clip(y[:n], self.lo, self.up)
        sigma = max(0.0, float(y[n]))
        return d, sigma, iterations
