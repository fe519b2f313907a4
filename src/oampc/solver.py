"""Small dense constrained-NLP solver.

Sequential quadratic programming with a trust region and an exact penalty:
each iteration linearizes the constraints, adds a single elastic slack so the
subproblem is always feasible, and solves the resulting convex QP with a
primal-dual interior-point method. A linearization assembles its QP once:
raising the penalty weight only changes the QP's linear term. Deterministic
given identical inputs and reports feasibility residuals. The SQP starts from
the caller's point, so a previous plan warm-starts it; every QP cold-starts
its interior-point method.

Sized for problems with tens of variables and a few hundred inequality
constraints; everything is dense numpy. At that size an interior-point
iteration's time goes mostly to numpy's per-call overhead, so the loop is
written to make few calls.
"""

from __future__ import annotations

import logging
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


def solve_qp(P: np.ndarray, q: np.ndarray, G: np.ndarray, h: np.ndarray):
    """Minimize 0.5 y'Py + q'y subject to G y <= h (P PSD, dense).

    Mehrotra predictor-corrector on the slack form G y + s = h, s >= 0,
    cold-started from y = 0 on every call. Each iteration factors the normal
    matrix P + G'WG once by Cholesky and inverts the factor; both Newton
    solves are products with that inverse plus one refinement pass. Returns
    (y, z, iterations) with z the constraint multipliers and iterations the
    number of Newton steps taken. Accuracy targets what an SQP outer loop
    needs, with a stagnation exit for degenerate cases.

    At tens of variables every numpy call costs more than its arithmetic, so
    the loop computes each shared term once and updates the iterates out of
    place (the incumbent keeps references, not copies); every value still
    comes from the same floating-point operations in the same order.
    """
    n = len(q)
    m = len(h)
    eye = np.eye(n)
    if m == 0:
        return np.linalg.solve(P + 1e-12 * eye, -q), np.zeros(0), 0

    y = np.zeros(n)
    s = np.maximum(h - G @ y, 1.0)
    z = np.ones(m)
    Gt = G.T
    reg_eye = 1e-12 * eye
    ratios = np.empty(m)

    def max_step(v, dv):
        # min(1, min of -v/dv over dv < 0) without boolean indexing: negation
        # is exact, so that minimum is minus the largest v/dv.
        ratios.fill(-np.inf)
        np.divide(v, dv, out=ratios, where=dv < 0)
        return min(1.0, -np.maximum.reduce(ratios))

    scale = 1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0))
    tol_resid = 1e-9 * scale
    tol_mu = 1e-11 * scale
    best_resid, best_y, best_z = np.inf, y, z
    stalled = 0
    iterations = 0
    for _ in range(_QP_MAX_ITER):
        r_d = P @ y + q + Gt @ z
        r_p = G @ y + s - h
        mu = float(s @ z) / m

        resid = max(np.maximum.reduce(np.abs(r_d)), np.maximum.reduce(np.abs(r_p)), mu)
        if resid < best_resid:
            best_resid, best_y, best_z = resid, y, z
        if resid <= tol_resid and mu <= tol_mu:
            break
        if resid < 0.99 * best_resid or resid == best_resid:
            stalled = 0
        else:
            stalled += 1
            if stalled >= 8:
                break

        # Clipping the scaling keeps the normal matrix solvable when slacks
        # of active constraints collapse.
        w = np.minimum(z / np.maximum(s, 1e-14), 1e12)
        M = P + (Gt * w) @ G
        reg, shift = 1e-12, reg_eye
        L = None
        while L is None:
            try:
                L = np.linalg.cholesky(M + shift)
            except np.linalg.LinAlgError:
                reg = max(reg * 1e4, 1e-8)
                if reg > 1.0:
                    return best_y, best_z, iterations
                shift = reg * eye
        # One inverse of the factor serves all four solves of this iteration:
        # a matrix-vector product is far cheaper than a LAPACK solve call at
        # this size. Li is applied twice rather than forming Li'Li, whose
        # rounding loses the small-eigenvalue directions of a near-singular M.
        Li = np.linalg.inv(L)
        LiT = Li.T
        neg_r_d = -r_d
        neg_r_p = -r_p
        w_r_p = w * r_p
        sz = s * z

        def newton(r_c):
            r_c_s = r_c / s
            rhs = neg_r_d - Gt @ (w_r_p - r_c_s)
            dy = LiT @ (Li @ rhs)
            # One refinement pass recovers digits lost to ill-conditioning.
            dy += LiT @ (Li @ (rhs - M @ dy))
            gdy = G @ dy
            return dy, neg_r_p - gdy, w * (r_p + gdy) - r_c_s

        # Affine scaling step.
        dy_a, ds_a, dz_a = newton(sz)
        alpha_p = max_step(s, ds_a)
        alpha_d = max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector.
        dy, ds, dz = newton(sz + ds_a * dz_a - sigma * mu)
        alpha_p = 0.99 * max_step(s, ds)
        alpha_d = 0.99 * max_step(z, dz)
        y = y + alpha_p * dy
        s = s + alpha_p * ds
        z = z + alpha_d * dz
        iterations += 1

    r_d = P @ y + q + Gt @ z
    r_p = G @ y + s - h
    mu = float(s @ z) / m
    resid = max(np.maximum.reduce(np.abs(r_d)), np.maximum.reduce(np.abs(r_p)), mu)
    if resid > best_resid:
        return best_y, best_z, iterations
    return y, z, iterations


def _violation(c: np.ndarray) -> float:
    if len(c) == 0:
        return 0.0
    return max(0.0, float(-c.min()))


def solve_sqp(
    evaluate: Callable[[np.ndarray], EvalResult],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    *,
    feas_tol: float = 1e-6,
) -> SqpResult:
    """Minimize evaluate(x).f subject to evaluate(x).c >= 0 and lb <= x <= ub.

    An iterate is feasible when its worst constraint violation is within
    feas_tol. The best feasible iterate seen (including x0) is never
    discarded, so a feasible warm start is never degraded. The status is
    decided once, at the returned point: optimal if it is feasible,
    infeasible otherwise.
    """
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    ev = evaluate(x)
    # Constraint gradients are unit-scale here (distances), so a penalty on
    # the order of the objective gradient makes violations never profitable.
    mu = max(_PENALTY_INIT, float(np.abs(ev.grad).max(initial=0.0)))
    delta = _TRUST_RADIUS
    delta_min, delta_max = 1e-12, 16.0

    best, best_f = None, np.inf  # (x, evaluation) of the cheapest feasible iterate
    if _violation(ev.c) <= feas_tol:
        best, best_f = (x, ev), ev.f

    iterations = 0
    qp_iterations = 0
    qp_solves = 0
    qp = None  # elastic QP at the current x and delta; penalty rounds reuse it
    for iterations in range(1, _SQP_MAX_ITER + 1):
        viol = _violation(ev.c)
        if qp is None:
            qp = _ElasticQp(ev, x, lb, ub, delta)
        d, sigma, k = qp.solve(mu)
        qp_iterations += k
        qp_solves += 1

        # An active elastic slack means the linearized constraints were not
        # met within the current penalty budget: escalate until they are or
        # the budget is exhausted (which signals true infeasibility).
        rounds = 0
        while sigma > max(feas_tol, 1e-12) and mu < _PENALTY_MAX and rounds < 3:
            mu = min(10.0 * mu, _PENALTY_MAX)
            d, sigma, k = qp.solve(mu)
            qp_iterations += k
            qp_solves += 1
            rounds += 1

        model_decrease = -(ev.grad @ d + 0.5 * d @ ev.hess @ d) + mu * (viol - sigma)

        if model_decrease <= _SQP_OPT_TOL * (1.0 + abs(ev.f) + mu * viol):
            if viol <= feas_tol or mu >= _PENALTY_MAX:
                break
            mu = min(10.0 * mu, _PENALTY_MAX)
            continue

        qp = None  # accepting the step moves x, rejecting it shrinks delta
        trial = np.clip(x + d, lb, ub)
        ev_trial = evaluate(trial)
        viol_trial = _violation(ev_trial.c)
        actual = (ev.f + mu * viol) - (ev_trial.f + mu * viol_trial)
        rho = actual / model_decrease

        if rho < 0.1 and viol_trial > max(viol, feas_tol):
            # Second-order correction: the step was rejected by constraint
            # curvature; retry with constraints re-evaluated at the trial
            # point but the original Jacobian.
            ev_soc = EvalResult(
                f=ev_trial.f,
                grad=ev.grad + ev.hess @ (trial - x),
                hess=ev.hess,
                c=ev_trial.c,
                jac=ev.jac,
            )
            w, _, k = _ElasticQp(ev_soc, trial, lb, ub, delta).solve(mu)
            qp_iterations += k
            qp_solves += 1
            trial_soc = np.clip(trial + w, lb, ub)
            ev_soc_t = evaluate(trial_soc)
            viol_soc = _violation(ev_soc_t.c)
            actual_soc = (ev.f + mu * viol) - (ev_soc_t.f + mu * viol_soc)
            if actual_soc > actual:
                trial, ev_trial, viol_trial, actual = trial_soc, ev_soc_t, viol_soc, actual_soc
                rho = actual / model_decrease

        if rho >= 0.1:
            x = trial
            ev = ev_trial
            if viol_trial <= feas_tol and ev_trial.f < best_f:
                best, best_f = (x, ev), ev.f
            if rho >= 0.7 and np.max(np.abs(d)) >= 0.9 * delta:
                delta = min(2.0 * delta, delta_max)
        else:
            delta = max(0.25 * delta, delta_min)
            if delta <= delta_min:
                if viol <= feas_tol or mu >= _PENALTY_MAX:
                    break
                mu = min(10.0 * mu, _PENALTY_MAX)
                delta = _TRUST_RADIUS * 0.01

    final_viol = _violation(ev.c)
    if best is not None and (final_viol > feas_tol or best_f < ev.f):
        # Prefer the incumbent when the final iterate is worse or infeasible;
        # its evaluation was kept, so it is not evaluated again.
        x, ev = best
        final_viol = _violation(ev.c)
    status = STATUS_OPTIMAL if final_viol <= feas_tol else STATUS_INFEASIBLE

    logger.debug(
        "sqp done status=%s iters=%d f=%.6g viol=%.3g", status, iterations, ev.f, final_viol
    )
    return SqpResult(
        status=status,
        x=x,
        objective=ev.f,
        iterations=iterations,
        max_violation=final_viol,
        qp_iterations=qp_iterations,
        qp_solves=qp_solves,
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

    def solve(self, mu: float):
        """Returns (d, sigma, interior-point iterations) at penalty weight mu."""
        n = len(self.grad)
        y, _, iterations = solve_qp(self.P, np.concatenate([self.grad, [mu]]), self.G, self.h)
        d = np.clip(y[:n], self.lo, self.up)
        sigma = max(0.0, float(y[n]))
        return d, sigma, iterations
