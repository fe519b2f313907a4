import numpy as np
import pytest

from oampc.solver import EvalResult, _ElasticQp, solve_qp, solve_sqp

from oracles import elastic_qp_parent, solve_qp_parent, solve_qp_reference


class TestQp:
    def test_unconstrained_minimum_inside_box(self):
        # min (y0-1)^2 + (y1+2)^2 inside a generous box.
        P = 2 * np.eye(2)
        q = np.array([-2.0, 4.0])
        G = np.vstack([np.eye(2), -np.eye(2)])
        h = np.array([10.0, 10.0, 10.0, 10.0])
        y, _, _ = solve_qp(P, q, G, h)
        assert y == pytest.approx([1.0, -2.0], abs=1e-7)

    def test_active_bound(self):
        P = 2 * np.eye(2)
        q = np.array([-2.0, 4.0])
        G = np.vstack([np.eye(2), -np.eye(2)])
        h = np.array([0.5, 10.0, 10.0, 10.0])  # y0 <= 0.5 active
        y, z, _ = solve_qp(P, q, G, h)
        assert y == pytest.approx([0.5, -2.0], abs=1e-7)
        assert z[0] > 1e-8  # active multiplier

    def test_kkt_on_random_qps(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n, m = 6, 10
            A = rng.normal(size=(n, n))
            P = A @ A.T + 0.5 * np.eye(n)
            q = rng.normal(size=n)
            G = rng.normal(size=(m, n))
            h = rng.uniform(0.5, 2.0, size=m)
            y, z, _ = solve_qp(P, q, G, h)
            slack = h - G @ y
            assert slack.min() >= -1e-7  # primal feasible
            assert z.min() >= -1e-9  # dual feasible
            grad = P @ y + q + G.T @ z
            assert np.abs(grad).max() <= 1e-6 * (1 + np.abs(q).max())
            assert np.abs(slack * z).max() <= 1e-6

    def test_no_constraints(self):
        P = np.array([[4.0]])
        q = np.array([-8.0])
        y, z, _ = solve_qp(P, q, np.zeros((0, 1)), np.zeros(0))
        assert y == pytest.approx([2.0])
        assert len(z) == 0


def planner_shaped_qp(rng, n=8, m=30, delta=0.5, mu=100.0):
    """The elastic trust-region QP the SQP builds: variables [d, sigma], rows
    c + J d + sigma >= 0 (a third active at d = 0 and duplicated, so their
    slacks collapse), sigma >= 0 and the box |d| <= delta."""
    A = 0.3 * rng.normal(size=(n, n))
    P = np.zeros((n + 1, n + 1))
    P[:n, :n] = A @ A.T + 1e-9 * np.eye(n)
    P[n, n] = 1e-9
    q = np.concatenate([rng.normal(size=n), [mu]])
    J = rng.normal(size=(m, n))
    c = rng.uniform(-0.3, 0.5, size=m)
    k = m // 3
    J[k : 2 * k] = J[:k]
    c[: 2 * k] = 0.0
    e_sigma = np.zeros((1, n + 1))
    e_sigma[0, n] = -1.0
    box = np.hstack([np.eye(n), np.zeros((n, 1))])
    G = np.vstack([np.hstack([-J, -np.ones((m, 1))]), e_sigma, box, -box])
    h = np.concatenate([c, [0.0], np.full(2 * n, delta)])
    return P, q, G, h


class TestQpMatchesReference:
    """solve_qp against the same method with LAPACK solves on the factor."""

    def test_planner_shaped_qps(self):
        rng = np.random.default_rng(5)
        clipped = 0
        for _ in range(20):
            P, q, G, h = planner_shaped_qp(rng)
            y, z, iterations = solve_qp(P, q, G, h)
            y_ref, _, iterations_ref = solve_qp_reference(P, q, G, h)
            assert iterations == iterations_ref > 0
            assert np.abs(y - y_ref).max() <= 1e-6
            clipped += (z / np.maximum(h - G @ y, 1e-14)).max() > 1e12
        # Scalings past the 1e12 clip are part of what is compared.
        assert clipped >= 5

    @pytest.mark.parametrize("a", [1 / 3, 0.7, np.sqrt(2), 3.7])
    def test_singular_normal_matrix(self, a, monkeypatch):
        # P = 0 and G of rank one: P + G'WG is singular, so the Cholesky
        # fails at the smallest regularisation and the ladder raises it.
        failures = []
        cholesky = np.linalg.cholesky

        def counting_cholesky(M):
            try:
                return cholesky(M)
            except np.linalg.LinAlgError:
                failures.append(M)
                raise

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        v = np.array([1.0, a, 1.0 / a])
        P = np.zeros((3, 3))
        G = np.vstack([v, 2 * v, -v])
        h = np.array([1.0, 2.0, 1.0])
        y, z, iterations = solve_qp(P, -v, G, h)
        assert failures
        y_ref, _, iterations_ref = solve_qp_reference(P, -v, G, h)
        assert iterations == iterations_ref
        # Every y with v'y = 1 is optimal: only that component is determined,
        # and both reach it with a consistent multiplier.
        assert v @ y == pytest.approx(v @ y_ref, abs=1e-9)
        assert v @ y == pytest.approx(1.0, abs=1e-9)
        assert np.abs(G.T @ z - v).max() <= 1e-9


def assert_same_bits(P, q, G, h):
    y, z, iterations = solve_qp(P, q, G, h)
    y_ref, z_ref, iterations_ref = solve_qp_parent(P, q, G, h)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(z, z_ref)
    assert iterations == iterations_ref
    return iterations


class TestQpMatchesParent:
    """solve_qp returns the pre-rewrite loop's (y, z, iterations) bit for bit."""

    def test_planner_shaped_qps(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert assert_same_bits(*planner_shaped_qp(rng)) > 0

    @pytest.mark.parametrize("a", [1 / 3, 0.7, np.sqrt(2), 3.7])
    def test_singular_normal_matrix(self, a, monkeypatch):
        failures = []
        cholesky = np.linalg.cholesky

        def counting_cholesky(M):
            try:
                return cholesky(M)
            except np.linalg.LinAlgError:
                failures.append(M)
                raise

        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        v = np.array([1.0, a, 1.0 / a])
        G = np.vstack([v, 2 * v, -v])
        assert_same_bits(np.zeros((3, 3)), -v, G, np.array([1.0, 2.0, 1.0]))
        # The regularisation ladder ran in both.
        assert failures

    def test_random_kkt_qps(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n, m = 6, 10
            A = rng.normal(size=(n, n))
            P = A @ A.T + 0.5 * np.eye(n)
            G = rng.normal(size=(m, n))
            assert_same_bits(P, rng.normal(size=n), G, rng.uniform(0.5, 2.0, size=m))

    def test_no_constraints(self):
        assert assert_same_bits(np.array([[4.0]]), np.array([-8.0]), np.zeros((0, 1)), np.zeros(0)) == 0

    def test_exhausted_regularisation_returns_incumbent(self):
        # P outside the PSD contract fails every Cholesky of the ladder: both
        # return the start point after zero iterations.
        G = np.vstack([np.eye(2), -np.eye(2)])
        assert assert_same_bits(-10.0 * np.eye(2), np.ones(2), G, np.ones(4)) == 0


class TestElasticQp:
    def test_assembly_matches_parent(self):
        rng = np.random.default_rng(3)
        for m in (0, 7):
            n = 5
            A = rng.normal(size=(n, n))
            jac = rng.normal(size=(m, n))
            jac[:, 0] = 0.0  # signed zeros must survive the negation too
            ev = EvalResult(f=1.0, grad=rng.normal(size=n), hess=A @ A.T, c=rng.normal(size=m), jac=jac)
            x = rng.uniform(-1, 1, size=n)
            args = (ev, x, np.full(n, -1.5), np.full(n, 1.5), 0.4)
            qp = _ElasticQp(*args)
            P, G, h = elastic_qp_parent(*args)
            for got, want in ((qp.P, P), (qp.G, G), (qp.h, h)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
                assert got.flags.c_contiguous == want.flags.c_contiguous


def quadratic_problem(center, H=None):
    H = np.eye(len(center)) if H is None else H

    def evaluate(x):
        e = x - center
        return EvalResult(
            f=float(e @ H @ e),
            grad=2 * H @ e,
            hess=2 * H,
            c=np.zeros(0),
            jac=np.zeros((0, len(x))),
        )

    return evaluate


class TestSqp:
    def test_bound_constrained_quadratic(self):
        ev = quadratic_problem(np.array([2.0, -3.0]))
        res = solve_sqp(ev, np.zeros(2), lb=np.array([-1.0, -1.0]), ub=np.array([1.0, 1.0]))
        assert res.status == "optimal"
        assert res.x == pytest.approx([1.0, -1.0], abs=1e-6)

    def test_circle_keepout(self):
        # min ||x - (2,0)||^2 with a keep-out disk of radius 1 at the origin.
        target = np.array([2.0, 0.0])

        def evaluate(x):
            e = x - target
            d = np.hypot(*x)
            grad_c = x / d if d > 1e-12 else np.array([1.0, 0.0])
            return EvalResult(
                f=float(e @ e),
                grad=2 * e,
                hess=2 * np.eye(2),
                c=np.array([d - 1.0]),
                jac=grad_c[None, :],
            )

        res = solve_sqp(evaluate, np.array([1.5, 0.5]), lb=np.full(2, -10.0), ub=np.full(2, 10.0))
        assert res.status == "optimal"
        # Unconstrained optimum (2, 0) is outside the disk, so it is optimal.
        assert res.x == pytest.approx([2.0, 0.0], abs=1e-5)

    def test_active_circle_constraint(self):
        # Target inside the keep-out: solution lands on the circle.
        target = np.array([0.3, 0.0])

        def evaluate(x):
            e = x - target
            d = np.hypot(*x)
            grad_c = x / d if d > 1e-12 else np.array([1.0, 0.0])
            return EvalResult(
                f=float(e @ e),
                grad=2 * e,
                hess=2 * np.eye(2),
                c=np.array([d - 1.0]),
                jac=grad_c[None, :],
            )

        res = solve_sqp(evaluate, np.array([1.5, 0.8]), lb=np.full(2, -10.0), ub=np.full(2, 10.0))
        assert res.status == "optimal"
        assert np.hypot(*res.x) == pytest.approx(1.0, abs=1e-6)
        # Tangential accuracy is linear-rate with a Gauss-Newton model; a
        # sub-millimeter landing spot is the expected precision here.
        assert res.x == pytest.approx([1.0, 0.0], abs=1e-3)

    def test_infeasible_detected(self):
        # c1: x0 >= 1, c2: -x0 >= 1 cannot both hold.
        def evaluate(x):
            return EvalResult(
                f=float(x @ x),
                grad=2 * x,
                hess=2 * np.eye(1),
                c=np.array([x[0] - 1.0, -x[0] - 1.0]),
                jac=np.array([[1.0], [-1.0]]),
            )

        res = solve_sqp(evaluate, np.zeros(1), lb=np.array([-5.0]), ub=np.array([5.0]))
        assert res.status == "infeasible"
        assert res.max_violation > 1e-3

    def test_status_is_feasibility_of_returned_point(self):
        # Random keep-out disks plus one keep-in disk, some of them
        # unsatisfiable together: every solve ends optimal exactly when the
        # point it returns is feasible.
        rng = np.random.default_rng(6)
        statuses = set()
        for _ in range(40):
            target = rng.uniform(-2, 2, 2)
            outside = rng.uniform(-2, 2, (3, 2))
            r_out = rng.uniform(0.2, 1.5, 3)
            inside, r_in = rng.uniform(-2, 2, 2), rng.uniform(0.2, 1.0)

            def evaluate(x, target=target, outside=outside, r_out=r_out, inside=inside, r_in=r_in):
                e = x - target
                d_out = np.hypot(*(x - outside).T)
                d_in = np.hypot(*(x - inside))
                dirs_out = (x - outside) / np.maximum(d_out, 1e-12)[:, None]
                dir_in = (x - inside) / max(d_in, 1e-12)
                return EvalResult(
                    f=float(e @ e),
                    grad=2 * e,
                    hess=2 * np.eye(2),
                    c=np.concatenate([d_out - r_out, [r_in - d_in]]),
                    jac=np.vstack([dirs_out, -dir_in]),
                )

            res = solve_sqp(evaluate, rng.uniform(-2, 2, 2), lb=np.full(2, -3.0), ub=np.full(2, 3.0))
            assert res.status == ("optimal" if res.max_violation <= 1e-6 else "infeasible")
            statuses.add(res.status)
        assert statuses == {"optimal", "infeasible"}

    def test_feasible_warm_start_never_degraded(self):
        # Start at a feasible point; the returned objective must not be worse.
        target = np.array([0.0, 0.0])

        def evaluate(x):
            e = x - target
            d = np.hypot(*x)
            grad_c = x / d if d > 1e-12 else np.array([1.0, 0.0])
            return EvalResult(
                f=float(e @ e),
                grad=2 * e,
                hess=2 * np.eye(2),
                c=np.array([d - 1.0]),  # stay outside unit disk
                jac=grad_c[None, :],
            )

        x0 = np.array([1.2, 0.0])
        f0 = float(x0 @ x0)
        res = solve_sqp(evaluate, x0, lb=np.full(2, -10.0), ub=np.full(2, 10.0))
        assert res.status == "optimal"
        assert res.objective <= f0 + 1e-9
        assert np.hypot(*res.x) >= 1.0 - 1e-6

    def test_deterministic(self):
        ev = quadratic_problem(np.array([0.7, -0.2, 1.4]), H=np.diag([1.0, 3.0, 0.5]))
        r1 = solve_sqp(ev, np.array([5.0, 5.0, 5.0]), lb=np.full(3, -8.0), ub=np.full(3, 8.0))
        r2 = solve_sqp(ev, np.array([5.0, 5.0, 5.0]), lb=np.full(3, -8.0), ub=np.full(3, 8.0))
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations

    def test_rosenbrock_valley_with_bounds(self):
        # Nonquadratic objective with a Gauss-Newton model Hessian.
        def evaluate(x):
            a, b = 1.0, 10.0
            r = np.array([a - x[0], np.sqrt(b) * (x[1] - x[0] ** 2)])
            Jr = np.array([[-1.0, 0.0], [-2 * np.sqrt(b) * x[0], np.sqrt(b)]])
            return EvalResult(
                f=float(r @ r),
                grad=2 * Jr.T @ r,
                hess=2 * Jr.T @ Jr,
                c=np.zeros(0),
                jac=np.zeros((0, 2)),
            )

        res = solve_sqp(
            evaluate,
            np.array([-1.2, 1.0]),
            lb=np.full(2, -5.0),
            ub=np.full(2, 5.0),
        )
        assert res.status == "optimal"
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-4)
