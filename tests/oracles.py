"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch against the definitions,
not by calling the code under test: point-in-shape tests use inline cross
products, distances come from dense boundary sampling with local refinement.
The `*_parent` functions are earlier versions of library code, kept verbatim:
a rewrite that must keep its results bit for bit is checked against them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable

import numpy as np

from oampc import solver


def point_in_convex_polygon(p, verts) -> bool:
    """Inline CCW cross-product containment test."""
    verts = np.asarray(verts, dtype=float)
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if cross < -1e-12:
            return False
    return True


def point_in_polygon_loop(p, verts) -> bool:
    """Even-odd rule one edge at a time, as world.contains_free tested each
    polygon before its edges were tested as arrays."""
    x, y = p
    inside = False
    n = len(verts)
    j = n - 1
    for i in range(n):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def _capsule_boundary_at(a, b, r, ts) -> np.ndarray:
    """Boundary point at normalized parameter t in [0, 1).

    Parameterization: edge a->b on the left side, arc around b, edge b->a on
    the right side, arc around a, each allocated length-proportional spans.
    """
    ab = b - a
    length = float(np.hypot(*ab))
    if r <= 0.0:
        # Bare segment: go out and back.
        ts = np.asarray(ts)
        out = ts < 0.5
        pts = np.where(out[:, None], a + (2.0 * ts)[:, None] * ab, b - (2.0 * (ts - 0.5))[:, None] * ab)
        return pts
    if length <= 1e-12:
        ang = 2.0 * np.pi * np.asarray(ts)
        return a + r * np.stack([np.cos(ang), np.sin(ang)], axis=1)

    un = ab / length
    nl = np.array([-un[1], un[0]])
    perim_edge = length
    perim_arc = np.pi * r
    total = 2.0 * perim_edge + 2.0 * perim_arc
    s = np.asarray(ts) * total

    pts = np.empty((len(s), 2))
    theta0 = np.arctan2(nl[1], nl[0])
    for i, si in enumerate(s):
        if si < perim_edge:
            pts[i] = a + nl * r + un * si
        elif si < perim_edge + perim_arc:
            phi = (si - perim_edge) / r
            ang = theta0 - phi
            pts[i] = b + r * np.array([np.cos(ang), np.sin(ang)])
        elif si < 2.0 * perim_edge + perim_arc:
            si2 = si - perim_edge - perim_arc
            pts[i] = b - nl * r - un * si2
        else:
            phi = (si - 2.0 * perim_edge - perim_arc) / r
            ang = theta0 + np.pi - phi
            pts[i] = a + r * np.array([np.cos(ang), np.sin(ang)])
    return pts


def point_in_capsule(p, a, b, r) -> bool:
    """Containment via the two disks plus axis-frame rectangle coordinates."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.hypot(*(p - a)) <= r or np.hypot(*(p - b)) <= r:
        return True
    ab = b - a
    length = float(np.hypot(*ab))
    if length <= 1e-12 or r <= 0.0:
        return False
    un = ab / length
    nl = np.array([-un[1], un[0]])
    s = float((p - a) @ un)
    t = float((p - a) @ nl)
    return 0.0 <= s <= length and abs(t) <= r


def capsule_distance_sampled(p, a, b, r, coarse: int = 2048, refine_rounds: int = 3) -> float:
    """Distance to a capsule by boundary sampling with local refinement.

    A coarse sweep locates the nearest boundary sample; each refinement round
    re-samples densely inside the bracketing parameter interval. Interior
    points are detected by the independent containment test and return 0.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if point_in_capsule(p, a, b, r):
        return 0.0

    ts = np.linspace(0.0, 1.0, coarse, endpoint=False)
    pts = _capsule_boundary_at(a, b, r, ts)
    d = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1])
    i = int(np.argmin(d))
    lo = ts[i] - 1.5 / coarse
    hi = ts[i] + 1.5 / coarse
    for _ in range(refine_rounds):
        ts = np.mod(np.linspace(lo, hi, 512), 1.0)
        pts = _capsule_boundary_at(a, b, r, ts)
        d = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1])
        j = int(np.argmin(d))
        span = (hi - lo) / 512
        center = lo + j * (hi - lo) / 511 if j > 0 else lo
        lo, hi = center - 1.5 * span, center + 1.5 * span
    return float(d.min())


def segment_distance(pts, a, b) -> np.ndarray:
    """Distance from each row of pts to segment a-b: the perpendicular
    distance where the foot of the perpendicular lies on the segment, else
    the distance to the nearer endpoint."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d_end = np.minimum(np.hypot(*(pts - a).T), np.hypot(*(pts - b).T))
    ab = b - a
    length = float(np.hypot(*ab))
    if length <= 1e-12:
        return d_end
    rel = pts - a
    along = (rel[:, 0] * ab[0] + rel[:, 1] * ab[1]) / length
    perp = np.abs(ab[0] * rel[:, 1] - ab[1] * rel[:, 0]) / length
    return np.where((along >= 0.0) & (along <= length), perp, d_end)


def _orientation(o, p, q) -> float:
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def segments_cross(p1, p2, q1, q2) -> bool:
    """Proper crossing of segments p1-p2 and q1-q2 by inline cross products:
    each segment's endpoints lie strictly on opposite sides of the other's
    line. Touching and collinear overlaps do not count."""
    return (
        _orientation(p1, p2, q1) * _orientation(p1, p2, q2) < 0.0
        and _orientation(q1, q2, p1) * _orientation(q1, q2, p2) < 0.0
    )


def raycast_scalar(origin, direction, segments):
    """Nearest hit of one ray on a list of (a, b) segments, as (range, index),
    or (inf, -1) on a miss. Each hit solves origin + t d = a + s (b - a) as a
    2x2 linear system; a singular system (parallel ray) is a miss."""
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    best = (np.inf, -1)
    for i, (a, b) in enumerate(segments):
        a = np.asarray(a, dtype=float)
        m = np.column_stack([d, a - np.asarray(b, dtype=float)])
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        t, s = np.linalg.solve(m, a - o)
        if t >= 0.0 and -1e-12 <= s <= 1.0 + 1e-12 and t < best[0]:
            best = (float(t), i)
    return best


def cast_rays_parent(
    origin: np.ndarray,
    dirs: np.ndarray,
    seg_a: np.ndarray,
    seg_b: np.ndarray,
    max_range: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest hit of each ray origin + t dirs[..., i, :], t >= 0, on segments
    seg_a[..., j, :]-seg_b[..., j, :].

    dirs is (..., n, 2) unit directions; seg_a and seg_b are (..., m, 2). The
    leading axes broadcast, so a batch of ray runs can each be cast against
    its own segments. Returns (ranges, segment_index), each (..., n): a
    miss, including a hit beyond max_range, carries max_range and index -1,
    so segment_index >= 0 is the hit mask. Rays parallel to a segment miss
    it. Fully vectorized: O(rays x segments) memory.
    """
    # Rays run along the last axis, segments along the one before: the long
    # axis innermost keeps numpy's inner loops long.
    e = seg_b - seg_a
    ao = seg_a - origin
    dx, dy = dirs[..., None, :, 0], dirs[..., None, :, 1]
    ex, ey = e[..., :, None, 0], e[..., :, None, 1]
    ax, ay = ao[..., :, None, 0], ao[..., :, None, 1]
    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ax * ey - ay * ex) / denom
        s = (ax * dy - ay * dx) / denom
    valid = (np.abs(denom) >= 1e-14) & (t >= 0.0) & (s >= -1e-12) & (s <= 1.0 + 1e-12)
    t = np.where(valid, t, np.inf)
    ranges = t.min(axis=-2, initial=np.inf)
    hit = ranges <= max_range
    seg_idx = np.where(hit, t.argmin(axis=-2) if t.size else -1, -1)
    return np.where(hit, ranges, max_range), seg_idx


def avoidance_margins_loop(states, projections, static_circles, params) -> np.ndarray:
    """Worst avoidance margin of each plan step k = 1..N, one row at a time:
    the largest (required margin - distance) over the families' projections
    (margin d_safe + r_robot) and the static circles, rows of centre x,
    centre y and radius (margin d_safe_static + r_robot + radius), and 0 at a
    step with no rows."""
    n = len(states) - 1
    margins = np.zeros(n)
    d_dyn = params.d_safe + params.r_robot
    for k in range(1, n + 1):
        g = -np.inf
        pk = states[k, :2]
        for z_proj in projections.z_proj:
            dist = float(np.hypot(*(pk - z_proj[k - 1])))
            g = max(g, d_dyn - dist)
        for cx, cy, radius in static_circles:
            dmin = params.d_safe_static + params.r_robot + radius
            dist = float(np.hypot(pk[0] - cx, pk[1] - cy))
            g = max(g, dmin - dist)
        margins[k - 1] = 0.0 if g == -np.inf else g
    return margins


def planner_avoidance_rows(states, z0, projections, static_circles, params, stop_index) -> np.ndarray:
    """The planner's avoidance constraint values c at a rollout, one row at a
    time, ordered by step, then family, then circle.

    At moving steps k = 1..min(stop_index, N-1) a row is kept when its anchor
    lies within k * dt * max|v| + 1e-6 plus its margin of the start position;
    its value is the distance minus min(margin, start gap), so a row the robot
    starts inside asks for no more than the standoff it has."""
    p0 = np.asarray(z0, dtype=float)[:2]
    reach = params.dt * max(abs(params.v_min), abs(params.v_max))
    out = []
    for k in range(1, min(stop_index, params.N - 1) + 1):
        rows = [(z_proj[k - 1], params.d_safe + params.r_robot) for z_proj in projections.z_proj]
        rows += [(circ[:2], params.d_safe_static + params.r_robot + circ[2]) for circ in static_circles]
        for anchor, margin in rows:
            gap = float(np.hypot(*(anchor - p0)))
            if gap <= k * reach + 1e-6 + margin:
                out.append(float(np.hypot(*(states[k, :2] - anchor))) - min(margin, gap))
    return np.array(out)


def rollout_loop(z0, inputs, dt) -> np.ndarray:
    """Euler rollout of the unicycle, one dynamics step at a time."""
    n = inputs.shape[0]
    states = np.empty((n + 1, 3), dtype=float)
    states[0] = z0
    for k in range(n):
        x, y, psi = states[k]
        v, delta = inputs[k]
        states[k + 1, 0] = x + dt * v * math.cos(psi)
        states[k + 1, 1] = y + dt * v * math.sin(psi)
        states[k + 1, 2] = psi + dt * delta
    return states


def input_hessian_loop(params, stop_index) -> np.ndarray:
    """Hessian of the effort and rate costs in the free inputs u_0..u_{j-1},
    accumulated one cost term at a time; the inputs from j on are zero."""
    Qu, Qdu = np.diag(params.q_input), np.diag(params.q_input_rate)
    n, j = params.N, stop_index
    H = np.zeros((2 * j, 2 * j))
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
    return H


def nlp_evaluation_parent(problem, stop_index, x):
    """(f, grad, hess, c, jac) of the planner's NLP at the free inputs x, as
    the evaluator computed them before it fused the rollout with the
    sensitivities, kept verbatim in operations and order: the rollout, then
    the sensitivities from the rolled-out states (their own cosines and sines
    of the headings, their own dt-weighted step mask), the cost, and the
    rows. `oampc.nmpc._NlpEvaluator` must return these bit for bit.
    `problem` is an NlpProblem's probe record."""
    params, j = problem.params, stop_index
    n_free = 2 * j
    dt = params.dt
    u = np.zeros((params.N, 2))
    u[:j] = x.reshape(j, 2)

    inc = np.empty((params.N + 1, 3))
    inc[0] = problem.z0
    inc[1:, 2] = dt * u[:, 1]
    psi = np.cumsum(inc[:-1, 2])
    ds = dt * u[:, 0]
    inc[1:, 0] = ds * np.cos(psi)
    inc[1:, 1] = ds * np.sin(psi)
    states = np.cumsum(inc, axis=0)

    xs, ys, psis = states[:, 0], states[:, 1], states[:, 2]
    dt_after = dt * np.tri(len(states), j, -1)
    S = np.zeros((len(states), 3, j, 2))
    S[:, 0, :, 0] = dt_after * np.cos(psis[:j])
    S[:, 1, :, 0] = dt_after * np.sin(psis[:j])
    S[:, 0, :, 1] = dt_after * (ys[1 : j + 1] - ys[:, None])
    S[:, 1, :, 1] = dt_after * (xs[:, None] - xs[1 : j + 1])
    S[:, 2, :, 1] = dt_after
    S = S.reshape(len(states), 3, n_free)

    err = states - problem.goal
    du = u.copy()
    du[0] -= problem.u_prev
    du[1:] -= u[:-1]
    Qe, Qu_u, Qdu_du = err * params.q_state, u * params.q_input, du * params.q_input_rate
    f = float(np.einsum("ki,ki->", Qe, err))
    f += float(np.einsum("ki,ki->", Qu_u, u))
    f += float(np.einsum("ki,ki->", Qdu_du, du))
    grad_u = 2.0 * (Qu_u + Qdu_du)
    grad_u[:-1] -= 2.0 * Qdu_du[1:]
    grad = np.einsum("kiv,ki->v", S, 2.0 * Qe) + grad_u[:j].ravel()
    QS = S * np.asarray(params.q_state)[:, None]
    hess = 2.0 * np.einsum("kiv,kiw->vw", S, QS) + input_hessian_loop(params, j)

    rows = np.searchsorted(problem.row_step, j, side="right")
    k = problem.row_step[:rows]
    diff = states[k, :2] - problem.row_anchor[:rows]
    dist = np.hypot(diff[:, 0], diff[:, 1])
    dirs = diff / np.maximum(dist, 1e-9)[:, None]
    P = S[: j + 1, :2, :]
    if params.state_bounds is None:
        gaps, gap_grad = np.zeros((0, j)), np.zeros((0, 2))
    else:
        xmin, xmax, ymin, ymax = params.state_bounds
        px, py = states[1 : j + 1, 0], states[1 : j + 1, 1]
        gaps = np.stack([px - xmin, xmax - px, py - ymin, ymax - py])
        gap_grad = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    c = np.concatenate([dist - problem.row_margin[:rows], gaps.ravel()])
    jac = np.vstack(
        [
            np.einsum("ri,riv->rv", dirs, P[k]),
            np.einsum("gi,kiv->gkv", gap_grad, P[1:]).reshape(-1, n_free),
        ]
    )
    return f, grad, hess, c, jac


def sensitivities_recursion(states, inputs, stop_index, dt) -> np.ndarray:
    """dz_k/dx (N+1, 3, 2j) for the free inputs x = u_0..u_{j-1}, propagated
    as S_{k+1} = A_k S_k + B_k with the Euler step's Jacobians; the states
    after step j do not move, so S_k = S_j there."""
    j = stop_index
    sens = np.zeros((j + 1, 3, 2 * j))
    for k in range(j):
        psi = states[k, 2]
        v = inputs[k, 0]
        A = np.array(
            [[1.0, 0.0, -dt * v * math.sin(psi)], [0.0, 1.0, dt * v * math.cos(psi)], [0.0, 0.0, 1.0]]
        )
        sens[k + 1] = A @ sens[k]
        sens[k + 1][0, 2 * k] = dt * math.cos(psi)
        sens[k + 1][1, 2 * k] = dt * math.sin(psi)
        sens[k + 1][2, 2 * k + 1] = dt
    return sens[np.minimum(np.arange(len(states)), j)]


def occlusion_pairs_loop(ranges, jump_threshold) -> list[tuple[int, int, int]]:
    """(ray index, nearer ray, farther ray) for every cyclic consecutive ray
    pair whose ranges differ by more than jump_threshold, in ray order."""
    n = len(ranges)
    out = []
    for i in range(n):
        j = (i + 1) % n
        if abs(ranges[j] - ranges[i]) > jump_threshold:
            out.append((i, i, j) if ranges[i] < ranges[j] else (i, j, i))
    return out


def greedy_walk_scalar(hits, spacing) -> list[int]:
    """Indexes a greedy walk over hits (n, 2) keeps, one hit at a time on
    Python floats: the first hit, then each one at least spacing from the
    last kept one. np.hypot, not math.hypot: the two differ in the last bit
    on some inputs."""
    pts = np.asarray(hits, dtype=float).tolist()
    kept = [0]
    kx, ky = pts[0]
    for i, (x, y) in enumerate(pts[1:], start=1):
        if np.hypot(x - kx, y - ky) >= spacing:
            kept.append(i)
            kx, ky = x, y
    return kept


def coverage_centers_loop(hits, spacing, radius) -> np.ndarray:
    """Coverage circle centres, one hit at a time: keep a hit in order once it
    is at least spacing from the last kept one, then add, in order, every hit
    farther than radius from all centres so far."""
    if len(hits) == 0:
        return np.zeros((0, 2))
    centers = [hits[0]]
    for p in hits[1:]:
        if np.hypot(*(p - centers[-1])) >= spacing:
            centers.append(p)
    for p in hits:
        if min(np.hypot(*(p - c)) for c in centers) > radius:
            centers.append(p)
    return np.array(centers)


def solve_qp_reference(P, q, G, h, max_iter: int = 40):
    """The interior-point QP with a fresh LAPACK solve on the Cholesky factor
    and its transpose for every Newton solve and refinement pass.

    Same iterates, tolerances and exits as `oampc.solver.solve_qp`, written
    without the inverse of the factor. Returns (y, z, iterations).
    """
    n = len(q)
    m = len(h)
    if m == 0:
        return np.linalg.solve(P + 1e-12 * np.eye(n), -q), np.zeros(0), 0

    def max_step(v, dv):
        neg = dv < 0
        if not neg.any():
            return 1.0
        return min(1.0, float(np.min(-v[neg] / dv[neg])))

    y = np.zeros(n)
    s = np.maximum(h - G @ y, 1.0)
    z = np.ones(m)
    scale = 1.0 + max(np.abs(q).max(initial=0.0), np.abs(h).max(initial=0.0))
    best = (np.inf, y.copy(), z.copy())
    stalled = 0
    iterations = 0
    for _ in range(max_iter):
        r_d = P @ y + q + G.T @ z
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

        w = np.minimum(z / np.maximum(s, 1e-14), 1e12)
        M = P + (G.T * w) @ G
        try:
            L = np.linalg.cholesky(M + 1e-12 * np.eye(n))
        except np.linalg.LinAlgError:
            _, y, z = best
            return y, z, iterations

        def newton(r_c):
            rhs = -r_d - G.T @ (w * r_p - r_c / s)
            dy = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
            corr = rhs - M @ dy
            dy += np.linalg.solve(L.T, np.linalg.solve(L, corr))
            gdy = G @ dy
            return dy, -r_p - gdy, w * (r_p + gdy) - r_c / s

        dy_a, ds_a, dz_a = newton(s * z)
        alpha_p = max_step(s, ds_a)
        alpha_d = max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        r_c = s * z + ds_a * dz_a - sigma * mu
        dy, ds, dz = newton(r_c)
        alpha_p = 0.99 * max_step(s, ds)
        alpha_d = 0.99 * max_step(z, dz)
        y += alpha_p * dy
        s += alpha_p * ds
        z += alpha_d * dz
        iterations += 1

    r_d = P @ y + q + G.T @ z
    r_p = G @ y + s - h
    mu = float(s @ z) / m
    resid = max(np.abs(r_d).max(), np.abs(r_p).max(), mu)
    if resid > best[0]:
        _, y, z = best
    return y, z, iterations


def solve_qp_parent(P: np.ndarray, q: np.ndarray, G: np.ndarray, h: np.ndarray, max_iter: int = 40):
    """The interior-point QP as it was before its loop was rewritten for fewer
    numpy calls, kept verbatim: `oampc.solver.solve_qp` must return the same
    (y, z, iterations) bit for bit. Like the library it looks up
    `np.linalg.cholesky` at call time, so a patched factorisation reaches both.
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
        alpha_p = _max_step_parent(s, ds_a)
        alpha_d = _max_step_parent(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0

        # Corrector.
        r_c = s * z + ds_a * dz_a - sigma * mu
        dy, ds, dz = newton(r_c)
        alpha_p = 0.99 * _max_step_parent(s, ds)
        alpha_d = 0.99 * _max_step_parent(z, dz)
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


def _max_step_parent(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return min(1.0, float(np.min(-v[neg] / dv[neg])))


def elastic_qp_parent(ev, x, lb, ub, delta):
    """P, G and h of the elastic trust-region QP as the SQP assembled them,
    one block at a time, before the assembly moved into one preallocated G."""
    n = len(x)
    m = len(ev.c)
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = ev.hess + 1e-9 * np.eye(n)
    P[n, n] = 1e-9
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
    return P, np.vstack(rows), np.concatenate(rhs)


def solve_sqp_parent(
    evaluate: Callable[[np.ndarray], solver.EvalResult],
    x0: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    *,
    feas_tol: float = 1e-6,
) -> solver.SqpResult:
    """`oampc.solver.solve_sqp` as it was before the repeat rule, kept
    verbatim but for its logging, and without the second-order correction
    that solve_sqp has since dropped: every iteration solves its QP, and a rejected
    step quarters the trust radius once. Where the shrinks that solve_sqp
    takes without a QP would have returned the same rejected step, it
    returns the same x, objective, status and max_violation bit for bit,
    with fewer QP solves. It builds its QPs with the library's
    `_ElasticQp`, looked up at call time like the constants, so a patched
    class reaches both; `_ElasticQp` and `solve_qp` are checked against
    their own oracles.

    Minimize evaluate(x).f subject to evaluate(x).c >= 0 and lb <= x <= ub.
    """
    def point(p):
        """(p clipped to the box, its evaluation, its violation)."""
        p = np.clip(p, lb, ub)
        ev_p = evaluate(p)
        return p, ev_p, _violation_parent(ev_p.c)

    x, ev, viol = point(np.asarray(x0, dtype=float))
    # Constraint gradients are unit-scale here (distances), so a penalty on
    # the order of the objective gradient makes violations never profitable.
    mu = max(solver._PENALTY_INIT, float(np.abs(ev.grad).max(initial=0.0)))
    delta = solver._TRUST_RADIUS
    delta_min, delta_max = 1e-12, 16.0

    def merit_fall(trial):
        """How far the merit f + mu * violation falls from x to a point()."""
        return (ev.f + mu * viol) - (trial[1].f + mu * trial[2])

    counts = Counter(qp_iterations=0, qp_solves=0, penalty_rungs=0)

    def solve_elastic(qp: solver._ElasticQp):
        """(d, sigma) of qp at the current penalty, counted. A solve of a QP
        solved before is a penalty rung."""
        d, sigma, qp_iterations = qp.solve(mu)
        counts.update(qp_iterations=qp_iterations, qp_solves=1, penalty_rungs=int(qp.solves > 1))
        return d, sigma

    best = None  # the cheapest feasible point() an iteration started from
    qp = None  # elastic QP at the current x and delta; penalty rounds reuse it
    for iterations in range(1, solver._SQP_MAX_ITER + 1):
        if viol <= feas_tol and (best is None or ev.f < best[1].f):
            best = x, ev, viol
        if qp is None:
            qp = solver._ElasticQp(ev, x, lb, ub, delta)
        d, sigma = solve_elastic(qp)

        # An active elastic slack means the linearized constraints were not
        # met within the current penalty budget: escalate until they are or
        # the budget is exhausted (which signals true infeasibility).
        rounds = 0
        while sigma > max(feas_tol, 1e-12) and mu < solver._PENALTY_MAX and rounds < 3:
            mu = min(10.0 * mu, solver._PENALTY_MAX)
            d, sigma = solve_elastic(qp)
            rounds += 1

        model_decrease = -(ev.grad.dot(d) + (0.5 * d).dot(ev.hess).dot(d)) + mu * (viol - sigma)

        if not (model_decrease <= solver._SQP_OPT_TOL * (1.0 + abs(ev.f) + mu * viol)):
            qp = None  # accepting the step moves x, rejecting it shrinks delta
            trial = point(x + d)
            rho = merit_fall(trial) / model_decrease

            if rho >= 0.1:
                x, ev, viol = trial
                if rho >= 0.7 and np.max(np.abs(d)) >= 0.9 * delta:
                    delta = min(2.0 * delta, delta_max)
                continue
            delta = max(0.25 * delta, delta_min)
            if delta > delta_min:
                continue
            delta = solver._TRUST_RADIUS * 0.01  # restarted, with a new QP

        # No progress at this penalty.
        if viol <= feas_tol or mu >= solver._PENALTY_MAX:
            break
        mu = min(10.0 * mu, solver._PENALTY_MAX)

    if best is not None and (viol > feas_tol or best[1].f < ev.f):
        # Prefer the incumbent when the final iterate is worse or infeasible;
        # its evaluation was kept, so it is not evaluated again.
        x, ev, viol = best
    status = solver.STATUS_OPTIMAL if viol <= feas_tol else solver.STATUS_INFEASIBLE

    return solver.SqpResult(
        status=status,
        x=x,
        objective=ev.f,
        iterations=iterations,
        max_violation=viol,
        **counts,
    )


def _violation_parent(c: np.ndarray) -> float:
    """solve_sqp_parent's violation, which reads a NaN in c as 0.0."""
    return max(0.0, float(-c.min(initial=0.0)))
