"""Independent reference implementations used to check the library.

Everything here is deliberately written from scratch against the definitions,
not by calling the code under test: point-in-shape tests use inline cross
products, distances come from dense boundary sampling with local refinement.
"""

from __future__ import annotations

import math

import numpy as np


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


def point_in_polygon_raycast(p, verts) -> bool:
    """Even-odd ray casting test; works for non-convex polygons too."""
    x, y = float(p[0]), float(p[1])
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


def capsule_boundary_points(a, b, r, num: int) -> np.ndarray:
    """Sample `num` points along a capsule boundary parameterized by arc/edge.

    Works for degenerate cases: a zero-length axis gives a circle, zero radius
    gives the bare segment.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ts = np.linspace(0.0, 1.0, num, endpoint=False)
    return _capsule_boundary_at(a, b, r, ts)


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


def polygon_distance_sampled(p, verts, samples_per_edge: int = 4000) -> float:
    """Distance to a convex polygon by dense edge sampling (0 if inside)."""
    p = np.asarray(p, dtype=float)
    verts = np.asarray(verts, dtype=float)
    if point_in_convex_polygon(p, verts):
        return 0.0
    best = np.inf
    n = len(verts)
    for i in range(n):
        a = verts[i]
        b = verts[(i + 1) % n]
        ts = np.linspace(0.0, 1.0, samples_per_edge)
        pts = a + ts[:, None] * (b - a)
        d = np.hypot(pts[:, 0] - p[0], pts[:, 1] - p[1]).min()
        best = min(best, float(d))
    return best


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


def avoidance_margins_loop(states, projections, static_circles, params) -> np.ndarray:
    """Worst avoidance margin of each plan step k = 1..N, one row at a time:
    the largest (required margin - distance) over the families' projections
    (margin d_safe + r_robot) and the static circles (margin d_safe_static +
    r_robot + radius), and 0 at a step with no rows."""
    n = len(states) - 1
    margins = np.zeros(n)
    d_dyn = params.d_safe + params.r_robot
    for k in range(1, n + 1):
        g = -np.inf
        pk = states[k, :2]
        for proj in projections.families:
            dist = float(np.hypot(*(pk - proj.z_proj[k - 1])))
            g = max(g, d_dyn - dist)
        for circ in static_circles:
            dmin = params.d_safe_static + params.r_robot + circ.radius
            dist = float(np.hypot(*(pk - circ.center.as_array())))
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
        rows = [(proj.z_proj[k - 1], params.d_safe + params.r_robot) for proj in projections.families]
        rows += [
            (circ.center.as_array(), params.d_safe_static + params.r_robot + circ.radius) for circ in static_circles
        ]
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
    Qu, Qdu = params.Qu, params.Qdu
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
        reg = 1e-12
        L = None
        while L is None:
            try:
                L = np.linalg.cholesky(M + reg * np.eye(n))
            except np.linalg.LinAlgError:
                reg = max(reg * 1e4, 1e-8)
                if reg > 1.0:
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
