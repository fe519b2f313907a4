"""Small dense constrained-NLP solver.

Sequential quadratic programming with a trust region and an exact penalty:
each iteration linearizes the constraints, adds a single elastic slack so the
subproblem is always feasible, and solves the resulting convex QP with a
primal-dual interior-point method. Deterministic given identical inputs and
reports feasibility residuals. The SQP starts from the caller's point, so a
previous plan warm-starts it; every QP cold-starts its interior-point method.

Sized for problems with tens of variables and a few hundred inequality
constraints; everything is dense numpy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

logger = logging.getLogger("oampc.solver")

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_MAX_ITER = "max_iter"

_TRUST_RADIUS = 1.0  # initial trust-region radius
_PENALTY_INIT = 10.0  # floor of the initial exact-penalty weight
_PENALTY_MAX = 1e7  # a violation surviving this weight means infeasible


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


def solve_qp(P: np.ndarray, q: np.ndarray, G: np.ndarray, h: np.ndarray, max_iter: int = 40):
    """Minimize 0.5 y'Py + q'y subject to G y <= h (P PSD, dense).

    Mehrotra predictor-corrector on the slack form G y + s = h, s >= 0,
    cold-started from y = 0 on every call. Each iteration factors the normal
    matrix P + G'WG once by Cholesky and inverts the factor; both Newton
    solves are products with that inverse plus one refinement pass. Returns
    (y, z, iterations) with z the constraint multipliers and iterations the
    number of Newton steps taken. Accuracy targets what an SQP outer loop
    needs, with a stagnation exit for degenerate cases.
    """
    n = len(q)
    m = len(h)
    if m == 0:
        return np.linalg.solve(P + 1e-12 * np.eye(n), -q), np.zeros(0), 0

    y = np.zeros(n)
    s = np.maximum(h - G @ y, 1.0)
    z = np.ones(m)
    Gt = G.T
    eye = np.eye(n)

    scale = 1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0))
    best = (np.inf, y.copy(), z.copy())
    stalled = 0
    iterations = 0
    for _ in range(max_iter):
        r_d = P @ y + q + Gt @ z
        r_p = G @ y + s - h
        mu = float(s @ z) / m

        resid = max(np.abs(r_d).max(), np.abs(r_p).max(), mu)
        if resid < best[0]:
            best = (resid, y.copy(), z.copy())
        if resid <= 1e-9 * scale and mu <= 1e-11 * scale:
            break
        if resid < 0.99 * best[0] or resid == best[0]:
            stalled = 0
        else:
            stalled += 1
            if stalled >= 8:
                break

        # Clipping the scaling keeps the normal matrix solvable when slacks
        # of active constraints collapse.
        w = np.minimum(z / np.maximum(s, 1e-14), 1e12)
        M = P + (Gt * w) @ G
        reg = 1e-12
        L = None
        while L is None:
            try:
                L = np.linalg.cholesky(M + reg * eye)
            except np.linalg.LinAlgError:
                reg = max(reg * 1e4, 1e-8)
                if reg > 1.0:
                    _, y, z = best
                    return y, z, iterations
        # One inverse of the factor serves all four solves of this iteration:
        # a matrix-vector product is far cheaper than a LAPACK solve call at
        # this size. Li is applied twice rather than forming Li'Li, whose
        # rounding loses the small-eigenvalue directions of a near-singular M.
        Li = np.linalg.inv(L)

        def newton(r_c):
            rhs = -r_d - Gt @ (w * r_p - r_c / s)
            dy = Li.T @ (Li @ rhs)
            # One refinement pass recovers digits lost to ill-conditioning.
            dy += Li.T @ (Li @ (rhs - M @ dy))
            gdy = G @ dy
            ds = -r_p - gdy
            dz = w * (r_p + gdy) - r_c / s
            return dy, ds, dz

        # Affine scaling step.
        dy_a, ds_a, dz_a = newton(s * z)
        alpha_p = _max_step(s, ds_a)
        alpha_d = _max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector.
        r_c = s * z + ds_a * dz_a - sigma * mu
        dy, ds, dz = newton(r_c)
        alpha_p = 0.99 * _max_step(s, ds)
        alpha_d = 0.99 * _max_step(z, dz)
        y += alpha_p * dy
        s += alpha_p * ds
        z += alpha_d * dz
        iterations += 1

    r_d = P @ y + q + Gt @ z
    r_p = G @ y + s - h
    mu = float(s @ z) / m
    resid = max(np.abs(r_d).max(), np.abs(r_p).max(), mu)
    if resid > best[0]:
        _, y, z = best
    return y, z, iterations


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


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
    opt_tol: float = 1e-8,
    max_iter: int = 60,
) -> SqpResult:
    """Minimize evaluate(x).f subject to evaluate(x).c >= 0 and lb <= x <= ub.

    An iterate is feasible when its worst constraint violation is within
    feas_tol. The best feasible iterate seen (including x0) is never
    discarded, so a feasible warm start is never degraded.
    """
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    ev = evaluate(x)
    # Constraint gradients are unit-scale here (distances), so a penalty on
    # the order of the objective gradient makes violations never profitable.
    mu = max(_PENALTY_INIT, float(np.abs(ev.grad).max(initial=0.0)))
    delta = _TRUST_RADIUS
    delta_min, delta_max = 1e-12, 16.0

    best_x, best_f = None, np.inf
    if _violation(ev.c) <= feas_tol:
        best_x, best_f = x.copy(), ev.f

    status = STATUS_MAX_ITER
    iterations = 0
    qp_iterations = 0
    for iterations in range(1, max_iter + 1):
        viol = _violation(ev.c)
        d, sigma, k = _elastic_qp_step(ev, x, lb, ub, delta, mu)
        qp_iterations += k

        # An active elastic slack means the linearized constraints were not
        # met within the current penalty budget: escalate until they are or
        # the budget is exhausted (which signals true infeasibility).
        rounds = 0
        while sigma > max(feas_tol, 1e-12) and mu < _PENALTY_MAX and rounds < 3:
            mu = min(10.0 * mu, _PENALTY_MAX)
            d, sigma, k = _elastic_qp_step(ev, x, lb, ub, delta, mu)
            qp_iterations += k
            rounds += 1

        model_decrease = -(ev.grad @ d + 0.5 * d @ ev.hess @ d) + mu * (viol - sigma)

        if model_decrease <= opt_tol * (1.0 + abs(ev.f) + mu * viol):
            if viol <= feas_tol:
                status = STATUS_OPTIMAL
                break
            if mu >= _PENALTY_MAX:
                status = STATUS_INFEASIBLE
                break
            mu = min(10.0 * mu, _PENALTY_MAX)
            continue

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
            w, _, k = _elastic_qp_step(ev_soc, trial, lb, ub, delta, mu)
            qp_iterations += k
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
                best_x, best_f = x.copy(), ev_trial.f
            if rho >= 0.7 and np.max(np.abs(d)) >= 0.9 * delta:
                delta = min(2.0 * delta, delta_max)
        else:
            delta = max(0.25 * delta, delta_min)
            if delta <= delta_min:
                if viol <= feas_tol:
                    status = STATUS_OPTIMAL
                else:
                    status = STATUS_INFEASIBLE if mu >= _PENALTY_MAX else STATUS_MAX_ITER
                    if mu < _PENALTY_MAX:
                        mu = min(10.0 * mu, _PENALTY_MAX)
                        delta = _TRUST_RADIUS * 0.01
                        continue
                break

    final_viol = _violation(ev.c)
    if status == STATUS_OPTIMAL or best_x is not None:
        # Prefer the incumbent when the final iterate is worse or infeasible.
        if best_x is not None and (final_viol > feas_tol or best_f < ev.f):
            x = best_x
            ev = evaluate(x)
            final_viol = _violation(ev.c)
        if final_viol <= feas_tol:
            status = STATUS_OPTIMAL
    if status == STATUS_MAX_ITER and final_viol <= feas_tol and iterations >= max_iter:
        # Ran out of iterations at a feasible point: usable plan.
        status = STATUS_OPTIMAL

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
    )


def _elastic_qp_step(ev: EvalResult, x, lb, ub, delta, mu):
    """Trust-region QP subproblem with one elastic slack.

    Variables y = [d, sigma]; minimize 0.5 d'Hd + g'd + mu*sigma subject to
    c + J d + sigma >= 0, sigma >= 0, and the trust/bound box on d.
    Returns (d, sigma, interior-point iterations).
    """
    n = len(x)
    m = len(ev.c)
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = ev.hess + 1e-9 * np.eye(n)
    P[n, n] = 1e-9
    q = np.concatenate([ev.grad, [mu]])

    up = np.minimum(ub - x, delta)
    lo = np.maximum(lb - x, -delta)

    rows = []
    rhs = []
    if m:
        rows.append(np.hstack([-ev.jac, -np.ones((m, 1))]))
        rhs.append(ev.c)
    e_sigma = np.zeros((1, n + 1))
    e_sigma[0, n] = -1.0
    rows.append(e_sigma)
    rhs.append(np.zeros(1))
    eye = np.eye(n)
    rows.append(np.hstack([eye, np.zeros((n, 1))]))
    rhs.append(up)
    rows.append(np.hstack([-eye, np.zeros((n, 1))]))
    rhs.append(-lo)

    G = np.vstack(rows)
    h = np.concatenate(rhs)
    y, _, iterations = solve_qp(P, q, G, h)
    d = np.clip(y[:n], lo, up)
    sigma = max(0.0, float(y[n]))
    return d, sigma, iterations
