import math

import numpy as np
import pytest

import oampc.solver
from oampc.sim_engine import MODE_BASELINE, run
from oampc.solver import (
    _PENALTY_MAX,
    _QP_MAX_ITER,
    _SQP_MAX_ITER,
    EvalResult,
    _ElasticQp,
    _violation,
    solve_qp,
    solve_sqp,
)

from conftest import corner_scenario, recorded_run, recording
from oracles import elastic_qp_parent, solve_qp_parent, solve_qp_reference, solve_sqp_parent


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
    """solve_qp against the same method with LAPACK solves on the factor.

    The reference's exit also waits for mu <= 1e-11*scale, so it is compared
    truncated at the iteration where solve_qp stopped."""

    def test_planner_shaped_qps(self):
        rng = np.random.default_rng(5)
        clipped = 0
        for _ in range(20):
            P, q, G, h = planner_shaped_qp(rng)
            y, z, iterations = solve_qp(P, q, G, h)
            y_ref, _, iterations_ref = solve_qp_reference(P, q, G, h, max_iter=iterations)
            assert iterations == iterations_ref > 0
            assert iterations <= solve_qp_reference(P, q, G, h)[2]
            assert np.abs(y - y_ref).max() <= 1e-6
            clipped += (z / np.maximum(h - G @ y, 1e-14)).max() > 1e12
        # Scalings past the 1e12 clip are part of what is compared.
        assert clipped >= 5


def planner_qps(run, steps=None):
    """The planner's QPs of a recorded run's first steps, or of all."""
    return [call.args for call in run.calls("oampc.solver.solve_qp", steps)]


@pytest.fixture(scope="module")
def corner_fast_qps(corner_fast_run):
    """The planner's QPs of the first 17 steps of a corner-fast episode.
    They climb the penalty ladder to its top and include stall exits."""
    return planner_qps(corner_fast_run, 17)


@pytest.fixture(scope="module")
def corner_occluded_qps(corner_occluded_run):
    """The planner's QPs of a whole corner-occluded episode: sixteen
    full-freedom steps, its hint run, probing stop indexes 8 down to 1
    against capsule rows, and the full-freedom steps after it to the goal."""
    log = corner_occluded_run.log
    assert [rec.search for rec in log] == [*["full"] * 16, *["hint"] * 9, *["full"] * 22]
    assert all(rec.n_boundaries > 0 for rec in log.records)
    qps = planner_qps(corner_occluded_run)
    # Every QP the episode solved, the sum of its logged qp_solves.
    assert len(qps) == sum(rec.qp_solves for rec in log.records)
    return qps


@pytest.fixture
def cholesky_calls():
    """The Cholesky factorizations of the test. solve_qp and solve_qp_parent
    look np.linalg.cholesky up at call time, so both are recorded."""
    with recording("numpy.linalg.cholesky") as (calls,):
        yield calls


def failed(calls):
    """The recorded calls that raised."""
    return [call for call in calls if isinstance(call.result, Exception)]


def singular_qp(a):
    """P = 0 and G of rank one: P + G'WG is singular, and its Cholesky fails
    after a few interior-point iterations. Every y with v'y = 1 is optimal."""
    v = np.array([1.0, a, 1.0 / a])
    return np.zeros((3, 3)), -v, np.vstack([v, 2 * v, -v]), np.array([1.0, 2.0, 1.0])


def kkt_residual(P, q, G, h, y, z):
    """max(|r_d|, |r_p|, mu) at (y, z), the slack taken as h - Gy."""
    slack = h - G @ y
    r_d = np.abs(P @ y + q + G.T @ z).max()
    r_p = max(0.0, -slack.min())
    return max(r_d, r_p, float(np.maximum(slack, 0.0) @ z) / len(h))


def assert_same_bits(P, q, G, h):
    y, z, iterations = solve_qp(P, q, G, h)
    y_ref, z_ref, iterations_ref = solve_qp_parent(P, q, G, h, max_iter=iterations)
    # Sign bits too: the step log writes -0.0, so a flipped zero in a plan
    # is a difference there.
    for u, v in ((y, y_ref), (z, z_ref)):
        assert np.array_equal(u, v)
        assert np.array_equal(np.signbit(u), np.signbit(v))
    assert iterations == iterations_ref
    assert iterations <= solve_qp_parent(P, q, G, h)[2]
    return iterations


class TestQpMatchesParent:
    """solve_qp takes the pre-rewrite loop's iterates and stops no later: its
    (y, z, iterations) equal that loop's, truncated at the same iteration
    count, bit for bit."""

    def test_planner_shaped_qps(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert assert_same_bits(*planner_shaped_qp(rng)) > 0

    @pytest.mark.parametrize("a", [1 / 3, 0.7, np.sqrt(2), 3.7])
    def test_singular_normal_matrix(self, a, cholesky_calls):
        # solve_qp stops at the first factorization that fails and returns
        # its incumbent. The parent raised its regularisation there and went
        # on, but truncated at that iteration it returns the same incumbent.
        iterations = assert_same_bits(*singular_qp(a))
        assert failed(cholesky_calls)
        assert 0 < iterations < solve_qp_parent(*singular_qp(a))[2]

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
        # The interior-point iterates start at +0.0 and are only added to, so
        # none is ever -0.0; this path returns one (from -q), for the sign check.
        qp = (np.diag([4.0, 2.0]), np.array([-8.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
        assert assert_same_bits(*qp) == 0
        assert np.signbit(solve_qp(*qp)[0]).tolist() == [False, True]

    def test_pillars_crowd_qps(self, pillars_crowd_run, cholesky_calls):
        # The planner's own QPs from the first steps of a pillars-crowd
        # episode: baseline mode, so disk rows, and static circles thinned
        # from 1440-ray scans.
        scn = pillars_crowd_run.scenario
        assert scn.mode == MODE_BASELINE and scn.lidar.num_rays == 1440
        qps = planner_qps(pillars_crowd_run, 6)
        assert len(qps) >= 30 and max(len(h) for _, _, _, h in qps) >= 100
        for qp in qps:
            assert_same_bits(*qp)
        # No planner QP reaches solve_qp's exit on a failed factorization.
        assert not failed(cholesky_calls)

    def test_corner_fast_qps(self, corner_fast_qps, cholesky_calls):
        # Penalty rungs up to the largest weight, and QPs the cold start does
        # not solve, which leave through the stall exit with their incumbent.
        stalls = 0
        for P, q, G, h in corner_fast_qps:
            iterations = assert_same_bits(P, q, G, h)
            y, z, _ = solve_qp(P, q, G, h)
            scale = 1.0 + max(np.abs(q).max(), np.abs(h).max())
            stalls += iterations < _QP_MAX_ITER and kkt_residual(P, q, G, h, y, z) > 1e-9 * scale
        assert len(corner_fast_qps) >= 150
        assert sum(q[-1] == _PENALTY_MAX for _, q, _, _ in corner_fast_qps) >= 5
        assert stalls >= 10
        assert not failed(cholesky_calls)

    def test_corner_occluded_qps(self, corner_occluded_qps, cholesky_calls):
        # Capsule rows of hidden agents, in the stop-index probes of a hint
        # run and the full-freedom solves around it.
        for qp in corner_occluded_qps:
            assert_same_bits(*qp)
        assert max(len(h) for _, _, _, h in corner_occluded_qps) >= 150
        assert not failed(cholesky_calls)

    def test_exhausted_regularisation_returns_incumbent(self, cholesky_calls):
        # A normal matrix that does not factor ends solve_qp with its
        # incumbent, which the parent returned once its regularisation ladder
        # was exhausted. The singular QP fails once, after a few iterations;
        # the parent's ladder went on from there. P outside the PSD contract
        # fails every Cholesky: both return the start point after zero
        # iterations.
        qp = singular_qp(0.7)
        solve_qp(*qp)
        assert len(failed(cholesky_calls)) == 1
        assert assert_same_bits(*qp) == 3
        qp = (-10.0 * np.eye(2), np.ones(2), np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        y, z, _ = solve_qp(*qp)
        assert np.array_equal(y, np.zeros(2)) and np.array_equal(z, np.ones(4))
        assert assert_same_bits(*qp) == 0


class TestWorkspace:
    def test_results_survive_later_solves(self, corner_fast_qps):
        # Whatever a call returns belongs to the caller: later calls, of
        # every exit kind, leave it unchanged and share no memory with it.
        rng = np.random.default_rng(17)
        qps = [
            *corner_fast_qps[:40],
            *(planner_shaped_qp(rng) for _ in range(5)),
            singular_qp(0.7),  # a failed factorization after 3 iterations
            (-10.0 * np.eye(2), np.ones(2), np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)),  # and at the start
        ]
        results = [solve_qp(*qp) for qp in qps]
        kept = [(y.copy(), z.copy()) for y, z, _ in results]
        for qp in reversed(qps):
            solve_qp(*qp)
        arrays = [a for y, z, _ in results for a in (y, z)]
        for (y, z, _), (y_kept, z_kept) in zip(results, kept):
            assert np.array_equal(y, y_kept) and np.array_equal(z, z_kept)
            assert sum(np.shares_memory(y, a) for a in arrays) == 1
            assert sum(np.shares_memory(z, a) for a in arrays) == 1


class TestFloorExit:
    def test_planner_qps_stop_where_the_parent_stalls(self):
        # The planner's own QPs, from the first steps of the corner run. Where
        # the pre-rewrite loop idles at the floating-point floor until its
        # 8-iteration stall exit, solve_qp stops at the first iterate within
        # the tolerance.
        with recording("oampc.solver.solve_qp") as (calls,):
            run(corner_scenario().with_overrides(max_steps=5))
        stalls = 0
        for P, q, G, h in (call.args for call in calls):
            y, z, iterations = solve_qp(P, q, G, h)
            y_par, z_par, iterations_par = solve_qp_parent(P, q, G, h)
            # A stall exit returns an incumbent 8 or more iterations older
            # than the last iterate.
            stalled = iterations_par < _QP_MAX_ITER and any(
                np.array_equal(y_j, y_par) and np.array_equal(z_j, z_par)
                for y_j, z_j, _ in (solve_qp_parent(P, q, G, h, max_iter=j) for j in range(iterations_par - 7))
            )
            if not stalled:
                continue
            stalls += 1
            assert iterations < iterations_par
            scale = 1.0 + max(np.abs(q).max(), np.abs(h).max())
            assert kkt_residual(P, q, G, h, y, z) <= 1e-9 * scale
        assert stalls >= 1


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


# The elastic QP's assembly and solve, whose calls radius_and_penalty reads.
ELASTIC_QP = ("oampc.solver._ElasticQp.__init__", "oampc.solver._ElasticQp.solve")


def radius_and_penalty(built, solved):
    """(trust radius, penalty) of each recorded elastic QP solve, in order."""
    radius = {call.args[0]: call.args[5] for call in built}
    return [(radius[call.args[0]], call.args[1]) for call in solved]


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

    def test_rejected_tangent_step_still_reaches_the_disk(self):
        # Stay inside the unit disk and get close to (0.5, 1), starting from
        # (0, 1) on the circle. The constraint's linearization there is the
        # tangent y <= 1, so the full step runs along it to about (0.5, 1)
        # and leaves the disk by 0.12, which the penalty rejects: the next QP
        # is solved in a box a quarter the size, and the SQP goes on along
        # the circle to the nearest point to the target.
        target = np.array([0.5, 1.0])
        evals = []  # evaluation of each evaluate call

        def evaluate(x):
            e, d = x - target, np.hypot(*x)
            evals.append(EvalResult(float(e @ e), 2 * e, 2 * np.eye(2), c=np.array([1.0 - d]), jac=-(x / d)[None, :]))
            return evals[-1]

        with recording(*ELASTIC_QP) as calls:
            res = solve_sqp(evaluate, np.array([0.0, 1.0]), lb=np.full(2, -3.0), ub=np.full(2, 3.0))
        assert -evals[1].c[0] > 0.1
        assert radius_and_penalty(*calls)[:2] == [(1.0, 10.0), (0.25, 10.0)]
        assert res.status == "optimal"
        assert res.x == pytest.approx(target / np.hypot(*target), abs=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="large-penalty elastic QPs read as an active slack stop the SQP at its start (ROADMAP item 6)",
    )
    def test_keep_in_disk_reaches_the_optimum(self):
        # Stay inside the unit disk and get close to (3, 2), from (0.6, -0.8)
        # on the circle. The optimum is (3, 2) / sqrt(13) with f =
        # (sqrt(13) - 1)^2 = 6.789. The iterates slide along the circle but
        # stay outside it by more than feas_tol, the penalty reaches its cap,
        # and the SQP returns its start, f = 13.6, as optimal.
        target = np.array([3.0, 2.0])

        def evaluate(x):
            e, d = x - target, np.hypot(*x)
            return EvalResult(float(e @ e), 2 * e, 2 * np.eye(2), c=np.array([1.0 - d]), jac=-(x / d)[None, :])

        res = solve_sqp(evaluate, np.array([0.6, -0.8]), lb=np.full(2, -3.0), ub=np.full(2, 3.0))
        assert res.status == "optimal"
        assert res.objective == pytest.approx((np.sqrt(13.0) - 1.0) ** 2, abs=1e-3)

    @staticmethod
    def _collapsing_radius(violation):
        """solve_sqp on one constraint whose linear model promises to remove
        its violation with a step of about 1e-13 but whose value never moves,
        so every step is rejected. Each rejection quarters the trust radius
        and keeps quartering it, with no QP, while the step fits in half of
        it, so the radius reaches its floor of 1e-12 in far fewer QPs than
        the 20 quarterings from 1. Returns the result and the (trust radius,
        penalty) of every QP solve, checking the solves at the first penalty:
        each at a smaller radius, a power of 1/4, the first at 1."""

        def evaluate(x):
            return EvalResult(0.0, np.zeros(1), np.eye(1), c=np.array([-violation]), jac=np.array([[1e7]]))

        with recording(*ELASTIC_QP) as calls:
            res = solve_sqp(evaluate, np.zeros(1), lb=np.array([-1.0]), ub=np.array([1.0]))
        solves = radius_and_penalty(*calls)
        radii = [radius for radius, penalty in solves if penalty == 10.0]
        assert radii[0] == 1.0 and 1 < len(radii) < 20 and radii == sorted(set(radii), reverse=True)
        assert all(radius == 0.25 ** round(math.log(radius, 0.25)) for radius in radii)
        assert solves[: len(radii)] == [(radius, 10.0) for radius in radii]
        assert np.array_equal(res.x, np.zeros(1))
        return res, solves[len(radii) :]

    def test_collapsed_trust_region_stops_when_feasible(self):
        # The violation is within feas_tol: at the floor the SQP stops, with
        # one iteration per QP.
        res, after = self._collapsing_radius(5e-7)
        assert res.status == "optimal" and after == [] and res.iterations == res.qp_solves

    def test_collapsed_trust_region_raises_the_penalty(self):
        # The violation exceeds feas_tol: at the floor the penalty rises
        # tenfold and the radius restarts at 0.01, and so on up to the
        # penalty cap, well within the SQP's iteration cap.
        res, after = self._collapsing_radius(2e-6)
        assert after[0] == (0.01, 100.0) and after[-1] == (0.01, _PENALTY_MAX)
        assert res.status == "infeasible" and res.iterations < _SQP_MAX_ITER

    @staticmethod
    def _jump(x):
        """One constraint c = 1e7 x - 2e-6, exactly linear, and an objective
        that jumps from 0 to 1e-4 off the start x = 0, which its model
        (gradient 0, Hessian 1e9) does not see."""
        f = 0.0 if x[0] == 0.0 else 1e-4
        return EvalResult(f, np.zeros(1), 1e9 * np.eye(1), c=np.array([1e7 * x[0] - 2e-6]), jac=np.array([[1e7]]))

    def test_rejected_step_shrinks_to_the_box_it_fits(self):
        # The constraint is violated by 2e-6 at the start. At penalty 10 every step is rejected (rho = -4); at penalty 100,
        # rho = 0.5 and the step is taken. The first QP returns 7.2e-10, far
        # above the exact step of 2e-13 (its tolerance is 1.1e-8), and the
        # radius shrinks with no QP to 0.25^15 = 9.3e-10, the first whose
        # half the step exceeds. That QP returns 2e-13, rejected too, and the
        # radius goes to its floor with no QP, which raises the penalty and
        # restarts the radius at 0.01: the step is taken there and the SQP
        # ends feasible. The parent, which solves each radius, gets the box's
        # edge with an active slack from the QP at 0.25^16 (CHANGES.md
        # FOUND), climbs the penalty ladder there and ends infeasible.
        lb, ub = np.array([-1.0]), np.array([1.0])
        with recording(*ELASTIC_QP) as calls:
            res = solve_sqp(self._jump, np.zeros(1), lb, ub)
        assert radius_and_penalty(*calls) == [(1.0, 10.0), (0.25**15, 10.0), (0.01, 100.0), (0.01, 100.0)]
        assert res.status == "optimal" and 1e7 * res.x[0] - 2e-6 >= 0.0 and res.iterations == 4
        ref = solve_sqp_parent(self._jump, np.zeros(1), lb, ub)
        assert (ref.status, ref.x[0]) == ("infeasible", 0.0)

    def test_shrinks_do_not_count_toward_the_cap(self, monkeypatch):
        # On the problem above, with a cap of 4 iterations: the SQP's four
        # QPs fit under it, although its radius shrank through more than 20
        # quarterings, and it ends as it does under the full cap. An SQP
        # that counts each quartering as an iteration (the parent, which
        # solves a QP at each) stops at its start, still infeasible.
        monkeypatch.setattr(oampc.solver, "_SQP_MAX_ITER", 4)
        lb, ub = np.array([-1.0]), np.array([1.0])
        res = solve_sqp(self._jump, np.zeros(1), lb, ub)
        assert (res.status, res.iterations, res.qp_solves) == ("optimal", 4, 4)
        assert 1e7 * res.x[0] - 2e-6 >= 0.0
        ref = solve_sqp_parent(self._jump, np.zeros(1), lb, ub)
        assert (ref.status, ref.x[0], ref.iterations) == ("infeasible", 0.0, 4)

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

    def test_nan_constraint_is_infeasible(self):
        # A NaN constraint value is an infinite violation. It once read as
        # none (max(0.0, nan) is 0.0), hid the -2.0 beside it, and a lone NaN
        # constraint was certified feasible at the start.
        assert _violation(np.array([np.nan, -2.0])) == np.inf
        assert _violation(np.array([-2.0, np.nan])) == np.inf

        def evaluate(x):
            return EvalResult(float(x @ x), 2 * x, 2 * np.eye(1), c=np.array([np.nan]), jac=np.array([[1.0]]))

        res = solve_sqp(evaluate, np.zeros(1), lb=np.array([-1.0]), ub=np.array([1.0]))
        assert res.status == "infeasible" and res.max_violation == np.inf
        # No step can leave a start with an infinite violation: no QP is solved.
        assert res.qp_solves == 0 and res.iterations == 0

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


def assert_same_as_parent(evaluate, x0, lb, ub, feas_tol=1e-6, res=None):
    """solve_sqp's result on these inputs, or res if it was recorded for
    them, against solve_sqp_parent's: the same x, objective, status and
    max_violation to the bit, and each QP that solve_sqp's shrinks skipped
    an iteration of the parent's, with one QP and no penalty rung.
    Returns (result, parent's result)."""
    if res is None:
        res = solve_sqp(evaluate, x0, lb, ub, feas_tol=feas_tol)
    ref = solve_sqp_parent(evaluate, x0, lb, ub, feas_tol=feas_tol)
    # Sign bits too: a flipped zero in a plan is a difference in the step log.
    assert np.array_equal(res.x, ref.x) and np.array_equal(np.signbit(res.x), np.signbit(ref.x))
    assert (res.objective, res.status, res.max_violation) == (ref.objective, ref.status, ref.max_violation)
    skipped = ref.qp_solves - res.qp_solves
    assert skipped >= 0 and res.iterations + skipped == ref.iterations
    assert res.penalty_rungs == ref.penalty_rungs and res.qp_iterations <= ref.qp_iterations
    return res, ref


class TestSqpMatchesParent:
    """On the planner's calls, solve_sqp returns what an SQP that solves
    every iteration's QP returns (oracles.solve_sqp_parent), bit for bit,
    with fewer QP solves: there the QPs its shrinks skip would return the
    same rejected step again."""

    @pytest.mark.parametrize(
        "workload, episodes, steps", [("pillars-crowd", 1, 30), ("corner-fast", 2, 24), ("corner-occluded", 1, 47)]
    )
    def test_planner_calls(self, workload, episodes, steps):
        calls = recorded_run(workload, episodes, steps).calls("oampc.nmpc.solve_sqp")
        skipped = 0
        for _, (evaluate, x0, lb, ub), kwargs, res in calls:
            res, ref = assert_same_as_parent(evaluate, x0, lb, ub, kwargs["feas_tol"], res)
            skipped += res.qp_solves < ref.qp_solves
        # Each run skips QPs; corner-occluded's calls hold capsule rows.
        assert skipped > 0

    def test_curved_constraint_skips_a_qp(self):
        # Keep c = 0.1 - x - 100 x^2 >= 0 and get close to x = 3, from x = 0.
        # The linearized constraint ends the step at d = 0.1, but the
        # constraint's curvature puts the trial point 1 outside, and the step
        # is rejected. It fits in half of the quartered radius, 0.25, so the
        # radius is quartered again, to 0.0625, with no QP at 0.25, where the
        # parent's QP returns the same step and is rejected again.
        def evaluate(x):
            return EvalResult(
                0.5 * float((x[0] - 3.0) ** 2),
                x - 3.0,
                np.eye(1),
                c=np.array([0.1 - x[0] - 100.0 * x[0] ** 2]),
                jac=np.array([[-1.0 - 200.0 * x[0]]]),
            )

        lb, ub = np.array([-5.0]), np.array([5.0])
        with recording(*ELASTIC_QP) as calls:
            res = solve_sqp(evaluate, np.zeros(1), lb, ub)
        assert radius_and_penalty(*calls)[:2] == [(1.0, 10.0), (0.0625, 10.0)]
        res, ref = assert_same_as_parent(evaluate, np.zeros(1), lb, ub, res=res)
        assert res.status == "optimal" and 0.1 - res.x[0] - 100.0 * res.x[0] ** 2 >= -1e-6
        assert res.qp_solves < ref.qp_solves and ref.penalty_rungs == 0
