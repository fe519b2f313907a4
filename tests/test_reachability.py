import math

import numpy as np
import pytest

from oampc.geometry import capsule_projection
from oampc.reachability import (
    AgentModel,
    ModelViolationError,
    build_capsules,
    build_disks,
    fuse_measurement,
    step_distance,
)

from oracles import capsule_distance_sampled, point_in_capsule, segment_distance


def disk(x, y, r):
    """A disk as one [x, y, r] row."""
    return np.array([x, y, r], dtype=float)


def boundary(ax, ay, bx, by):
    """One [near, far] row of detect_occlusions."""
    return np.array([[ax, ay], [bx, by]], dtype=float)


class TestStepDistance:
    def test_product_form(self):
        # Travel bound over one step is speed times step length.
        assert step_distance(AgentModel(0.5), 0.1) == pytest.approx(0.05)

    def test_static_agent(self):
        assert step_distance(AgentModel(0.0), 0.1) == 0.0

    def test_other_speed(self):
        assert step_distance(AgentModel(0.6), 0.1) == pytest.approx(0.06)

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            step_distance(AgentModel(0.5), 0.0)


class TestAgentModel:
    def test_rejects_non_finite(self):
        # A NaN speed bound would reach fuse_measurement as a NaN radius.
        for v_target, radius in ((math.nan, 0.1), (math.inf, 0.1), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(ValueError):
                AgentModel(v_target, radius)

    def test_rejects_negative(self):
        for v_target, radius in ((-0.5, 0.1), (0.5, -0.1)):
            with pytest.raises(ValueError):
                AgentModel(v_target, radius)


class TestBuildCapsules:
    def test_final_radius_minkowski_oracle(self):
        fam = build_capsules(boundary(1, 0, 3, 0), AgentModel(0.5), 0.1, 10)
        a, b, r = fam.a, fam.b, fam.radii[9]
        assert r == pytest.approx(0.5)
        # Minkowski-sum check: points within 0.5 of the segment are inside,
        # farther points are outside, by the projection and by the oracle.
        rng = np.random.default_rng(0)
        pts = rng.uniform([-1, -2], [5, 2], size=(500, 2))
        d, _ = capsule_projection(pts, a, b, r)
        seg_d = segment_distance(pts, [1.0, 0.0], [3.0, 0.0])
        for p, di, si in zip(pts, d, seg_d):
            if si <= 0.5 - 1e-9:
                assert di == 0.0 and point_in_capsule(p, a, b, r)
            elif si >= 0.5 + 1e-9:
                assert di > 0.0 and not point_in_capsule(p, a, b, r)

    def test_zero_speed_single_step_is_bare_segment(self):
        fam = build_capsules(boundary(0, 0, 1, 0), AgentModel(0.0), 0.1, 1)
        assert fam.radii.tolist() == [0.0]
        pts = np.random.default_rng(2).uniform(-1, 2, size=(100, 2))
        d, _ = capsule_projection(pts, fam.a, fam.b, fam.radii[0])
        assert d == pytest.approx(segment_distance(pts, [0, 0], [1, 0]), abs=1e-12)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            build_capsules(boundary(0, 0, 1, 0), AgentModel(0.0), 0.1, 0)

    def test_nesting_by_sampling(self):
        fam = build_capsules(boundary(-1, 0.5, 2, 1.5), AgentModel(0.5), 0.1, 5)
        rng = np.random.default_rng(1)
        a = np.array([-1, 0.5])
        b = np.array([2, 1.5])
        for k in range(1, 5):
            inner, outer = fam.radii[k - 1], fam.radii[k]
            # Build points of the inner capsule directly: segment point plus
            # an offset of at most the inner radius.
            t = rng.uniform(0, 1, 1000)
            ang = rng.uniform(0, 2 * np.pi, 1000)
            rad = inner * np.sqrt(rng.uniform(0, 1, 1000))
            pts = a + t[:, None] * (b - a) + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
            assert all(point_in_capsule(p, a, b, inner + 1e-12) for p in pts[:50])
            assert np.all(segment_distance(pts, a, b) <= outer + 1e-9)
            d, _ = capsule_projection(pts, fam.a, fam.b, outer)
            assert np.all(d == 0.0)

    def test_agent_radius_offsets_all_steps(self):
        fam = build_capsules(boundary(0, 0, 1, 0), AgentModel(0.5, radius=0.3), 0.1, 3)
        assert fam.radii == pytest.approx([0.35, 0.40, 0.45])

    def test_degenerate_boundary_is_disk_family(self):
        fam = build_capsules(boundary(1, 1, 1, 1), AgentModel(0.5), 0.1, 3)
        assert np.array_equal(fam.a, fam.b)
        p = np.array([2.0, 1.5])
        for k in range(1, 4):
            r = fam.radii[k - 1]
            d, _ = capsule_projection(p, fam.a, fam.b, r)
            assert d == pytest.approx(capsule_distance_sampled(p, [1, 1], [1, 1], r), abs=1e-9)
            assert d == pytest.approx(np.hypot(1.0, 0.5) - 0.05 * k)


class TestBuildDisks:
    def test_radii(self):
        fam = build_disks(disk(0, 0, 0.1), AgentModel(0.5), 0.1, 3)
        assert fam.radii == pytest.approx([0.15, 0.20, 0.25])
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            build_disks(disk(0, 0, 0.1), AgentModel(0.5), 0.1, 0)

    def test_zero_speed_constant(self):
        fam = build_disks(disk(1, 2, 0.2), AgentModel(0.0), 0.1, 4)
        assert np.all(fam.radii == 0.2)
        assert fam.a.tolist() == [1, 2] and fam.b.tolist() == [1, 2]

    def test_concentric_nesting(self):
        fam = build_disks(disk(0, 0, 0.05), AgentModel(0.7), 0.1, 6)
        assert np.all(np.diff(fam.radii) > 0)


class TestFuseMeasurement:
    def test_subset_returns_sensed(self):
        prev = disk(0, 0, 1.0)
        sensed = disk(0.5, 0, 0.3)
        assert fuse_measurement(prev, sensed) is sensed

    def test_identity(self):
        d = disk(0.3, -0.2, 0.7)
        assert fuse_measurement(d, d) is d

    def test_lens_covered_and_contained(self):
        prev = disk(0, 0, 1.0)
        sensed = disk(1.5, 0, 1.0)
        fused = fuse_measurement(prev, sensed)
        cf = fused[:2]
        cp, cs = np.zeros(2), np.array([1.5, 0.0])
        # Contained in prev.
        assert np.hypot(*cf) + fused[2] <= prev[2] + 1e-9
        # Covers the intersection: sample both containment directions.
        rng = np.random.default_rng(8)
        hits = 0
        while hits < 10_000:
            p = rng.uniform([-1.2, -1.2], [2.7, 1.2], size=2)
            in_lens = np.hypot(*(p - cp)) <= 1.0 and np.hypot(*(p - cs)) <= 1.0
            if in_lens:
                hits += 1
                assert np.hypot(*(p - cf)) <= fused[2] + 1e-9

    def test_detection_within_the_move_slack_returns_sensed(self):
        # 5e-10 m out of the propagated disk is rounding, as in the step
        # check: the detection comes back as itself.
        prev = disk(0, 0, 0.5)
        sensed = disk(0.3 + 5e-10, 0, 0.2)
        assert fuse_measurement(prev, sensed) is sensed

    def test_prev_inside_sensed_returns_prev(self):
        prev = disk(0, 0, 0.3)
        sensed = disk(0.1, 0, 1.0)
        assert fuse_measurement(prev, sensed) is prev

    def test_disjoint_raises(self):
        with pytest.raises(ModelViolationError):
            fuse_measurement(disk(0, 0, 0.5), disk(2, 0, 0.5))

    def test_point_measurement_inside(self):
        prev = disk(0, 0, 0.5)
        sensed = disk(0.2, 0.1, 0.0)
        assert fuse_measurement(prev, sensed) is sensed


class TestSafetyContainment:
    def test_agents_stay_inside_capsules(self):
        # Agents starting on the boundary segment and moving at most v_target
        # per step stay inside the step-k capsule.
        model = AgentModel(0.5)
        dt = 0.1
        horizon = 8
        a = np.array([0.0, 0.0])
        b = np.array([2.0, 1.0])
        fam = build_capsules(boundary(*a, *b), model, dt, horizon)
        rng = np.random.default_rng(42)
        trials = 2000
        t0 = rng.uniform(0, 1, trials)
        pos = a + t0[:, None] * (b - a)
        for k in range(1, horizon + 1):
            ang = rng.uniform(0, 2 * np.pi, trials)
            speed = rng.uniform(0, model.v_target, trials)
            pos = pos + (speed * dt)[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
            assert np.all(segment_distance(pos, a, b) <= fam.radii[k - 1] + 1e-9), f"step {k}"

    def test_lemma1_point_measurement_monotonicity(self):
        # With exact point detections, the fused set at t+1 stays inside the
        # one-step propagated set from t, for any compliant agent motion.
        model = AgentModel(0.5)
        dt = 0.1
        rng = np.random.default_rng(3)
        for run in range(5):
            pos = rng.uniform(-1, 1, 2)
            current = disk(*pos, 0.0)
            for step in range(100):
                fam = build_disks(current, model, dt, 1)
                one_step = disk(*current[:2], fam.radii[0])
                ang = rng.uniform(0, 2 * np.pi)
                speed = rng.uniform(0, model.v_target)
                pos = pos + speed * dt * np.array([math.cos(ang), math.sin(ang)])
                sensed = disk(*pos, 0.0)
                fused = fuse_measurement(one_step, sensed)
                # Fused set contained in the propagated set.
                d = np.hypot(*(fused[:2] - one_step[:2]))
                assert d + fused[2] <= one_step[2] + 1e-9
                current = fused

