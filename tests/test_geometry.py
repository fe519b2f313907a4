import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oampc.geometry import capsule_projection, ray_hits

from oracles import capsule_distance_sampled, cast_rays_parent, point_in_capsule, raycast_scalar, segment_distance

# Families stacked next to every single-capsule case below, so each case also
# runs as one row of a broadcast call that mixes zero-length and non-zero
# axes, with and without radius.
MIX_A = np.array([[5.0, 5.0], [-3.0, 1.0], [0.5, -2.0], [1.0, 1.0]])
MIX_B = np.array([[5.0, 5.0], [-1.0, 2.0], [0.5, -2.0], [2.0, -1.0]])
MIX_R = np.array([0.3, 0.7, 0.0, 0.0])


def project(p, a, b, r):
    """Projection of p onto capsule (a, b, r), taken as the last row of a
    stacked call over the mixed families; the other rows must equal their
    single-family calls."""
    p = np.asarray(p, dtype=float)
    d, z = capsule_projection(
        p[None, :], np.vstack([MIX_A, a]), np.vstack([MIX_B, b]), np.append(MIX_R, r)
    )
    for i in range(len(MIX_R)):
        di, zi = capsule_projection(p, MIX_A[i], MIX_B[i], MIX_R[i])
        assert d[i] == di and np.array_equal(z[i], zi)
    return float(d[-1]), z[-1]


class TestDistPointCapsule:
    A, B, R = [0.0, 0.0], [2.0, 0.0], 0.5

    def test_collinear_past_cap(self):
        d, z = project([3, 0], self.A, self.B, self.R)
        assert d == pytest.approx(0.5)
        assert z == pytest.approx([2.5, 0.0])

    def test_perpendicular_to_face(self):
        d, z = project([1, 2], self.A, self.B, self.R)
        assert d == pytest.approx(1.5)
        assert z == pytest.approx([1.0, 0.5])

    def test_interior_point(self):
        d, z = project([1, 0.2], self.A, self.B, self.R)
        assert d == 0.0
        assert capsule_distance_sampled(z, self.A, self.B, self.R) == pytest.approx(0.0, abs=1e-9)
        assert z == pytest.approx([1.0, 0.5])

    def test_on_axis_point_takes_left_normal(self):
        d, z = project([1.5, 0.0], self.A, self.B, self.R)
        assert d == 0.0
        assert z == pytest.approx([1.5, 0.5])
        d, z = project([1.0, 1.0], [0, 0], [2, 2], 1.0)
        assert d == 0.0
        assert z == pytest.approx([1.0 - math.sqrt(0.5), 1.0 + math.sqrt(0.5)])

    def test_subnormal_offset_is_quiet(self):
        # |p - q| is subnormal: the masked off-axis ratio overflows, and the
        # point is treated as on the axis without a floating-point warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d, z = capsule_projection([0.0, 5e-324], [-1.0, 0.0], [1.0, 0.0], 0.5)
        assert d == 0.0
        assert z == pytest.approx([0.0, 0.5])

    def test_degenerate_axis_is_disk(self):
        d, z = project([2, 1], [1, 1], [1, 1], 0.3)
        assert d == pytest.approx(0.7)
        assert z == pytest.approx([1.3, 1.0])

    def test_zero_radius_is_segment(self):
        d, z = project([1, 1], self.A, self.B, 0.0)
        assert d == pytest.approx(1.0)
        assert z == pytest.approx([1.0, 0.0])

    def test_tie_break_order_body_first(self):
        # Equidistant from the straight side and the cap circle at a: both
        # give the same boundary point.
        d, z = project([0.0, 1.0], self.A, self.B, self.R)
        assert d == pytest.approx(0.5)
        assert z == pytest.approx([0.0, 0.5])

    def test_matches_sampling_oracle(self):
        rng = np.random.default_rng(23)
        n = 300
        a = rng.uniform(-3, 3, (n, 2))
        b = rng.uniform(-3, 3, (n, 2))
        b[::3] = a[::3]  # every third capsule is a disk
        r = rng.uniform(0.05, 1.5, n)
        p = rng.uniform(-6, 6, (n, 2))
        d, z = capsule_projection(p, a, b, r)
        for i in range(n):
            assert d[i] == pytest.approx(capsule_distance_sampled(p[i], a[i], b[i], r[i]), abs=2e-6)
            assert capsule_distance_sampled(z[i], a[i], b[i], r[i]) == pytest.approx(0.0, abs=1e-6)
            if d[i] > 0:
                assert np.hypot(*(z[i] - p[i])) == pytest.approx(d[i], abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        st.booleans(),
        st.floats(0.01, 2.0),
        st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
    )
    def test_distance_nonnegative_and_consistent(self, a, b, disk, r, p):
        a, p = np.array(a), np.array(p)
        b = a if disk else np.array(b)
        d, z = project(p, a, b, r)
        assert d >= 0.0
        # The projection always sits on the boundary; outside points are
        # outside by the independent containment test.
        assert abs(capsule_distance_sampled(z, a, b, r)) <= 1e-6
        if d > 1e-9:
            assert not point_in_capsule(p, a, b, r)


class TestDistPointDisk:
    def test_outside(self):
        d, z = project([3, 0], [0, 0], [0, 0], 1.0)
        assert d == pytest.approx(2.0)
        assert z == pytest.approx([1.0, 0.0])

    def test_inside_projects_to_circle(self):
        d, z = project([0.2, 0], [0, 0], [0, 0], 1.0)
        assert d == 0.0
        assert z == pytest.approx([1.0, 0.0])

    def test_center_deterministic(self):
        d, z = project([0, 0], [0, 0], [0, 0], 0.5)
        assert d == 0.0
        assert z == pytest.approx([0.5, 0.0])


def cast(origin, dirs, seg_a, seg_b, max_range):
    """Each ray's nearest hit among the segments, reduced from one ray_hits
    call over every (ray, segment) pair as lidar_sim.scan reduces it: the
    range clamped at max_range, and the lowest segment index among the hits
    at that range, -1 when none is."""
    origin, dirs, seg_a, seg_b = (np.asarray(x, dtype=float) for x in (origin, dirs, seg_a, seg_b))
    n, m = len(dirs), len(seg_a)
    rays, segs = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
    t = ray_hits(origin, dirs[rays], seg_a[segs], seg_b[segs])
    ranges = np.full(n, float(max_range))
    np.minimum.at(ranges, rays, t)
    nearest = t == ranges[rays]
    index = np.full(n, m)
    np.minimum.at(index, rays[nearest], segs[nearest])
    index[index == m] = -1
    return ranges, index


def _cast_one(origin, direction, segments, max_range):
    seg_a = np.array([s[0] for s in segments], dtype=float)
    seg_b = np.array([s[1] for s in segments], dtype=float)
    ranges, idx = cast(origin, [direction], seg_a, seg_b, max_range)
    return float(ranges[0]), int(idx[0])


def _random_segments(rng, m):
    return [(rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2)) for _ in range(m)]


class TestRaycast:
    def test_wall_hit(self):
        rng_, idx = _cast_one([0, 0], [1.0, 0.0], [([2, -1], [2, 1])], max_range=10)
        assert idx == 0
        assert rng_ == pytest.approx(2.0)
        # A hit at exactly max_range is a hit.
        assert _cast_one([0, 0], [1.0, 0.0], [([2, -1], [2, 1])], max_range=2.0) == (2.0, 0)

    def test_miss(self):
        rng_, idx = _cast_one([0, 0], [0.0, 1.0], [([2, -1], [2, 1])], max_range=10)
        assert idx == -1
        assert rng_ == 10

    def test_no_segments(self):
        ranges, idx = cast(np.zeros(2), np.eye(2), np.zeros((0, 2)), np.zeros((0, 2)), 3.0)
        assert np.all(ranges == 3.0) and np.all(idx == -1)

    def test_square_room_analytic(self):
        half = 2.0
        corners = [(-half, -half), (half, -half), (half, half), (-half, half)]
        room = np.array(corners)
        angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ranges, idx = cast(np.zeros(2), dirs, room, np.roll(room, -1, axis=0), max_range=10)
        expected = half / np.maximum(np.abs(dirs[:, 0]), np.abs(dirs[:, 1]))
        assert np.all(idx >= 0)
        assert ranges == pytest.approx(expected, abs=1e-9)

    def test_monotone_under_segment_removal(self):
        rng = np.random.default_rng(5)
        segs = _random_segments(rng, 12)
        for trial in range(50):
            th = rng.uniform(0, 2 * np.pi)
            d = [math.cos(th), math.sin(th)]
            full, _ = _cast_one([0, 0], d, segs, max_range=20)
            drop = rng.integers(0, len(segs))
            red, _ = _cast_one([0, 0], d, [s for i, s in enumerate(segs) if i != drop], max_range=20)
            assert red >= full - 1e-12

    def test_fan_matches_scalar(self):
        rng = np.random.default_rng(9)
        segs = _random_segments(rng, 8)
        seg_a = np.array([s[0] for s in segs])
        seg_b = np.array([s[1] for s in segs])
        angles = np.linspace(0, 2 * np.pi, 90, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ranges, idx = cast(np.zeros(2), dirs, seg_a, seg_b, max_range=6.0)
        for i in range(len(angles)):
            t, j = raycast_scalar(np.zeros(2), dirs[i], segs)
            if t > 6.0:
                assert idx[i] == -1
                assert ranges[i] == 6.0
            else:
                assert idx[i] == j
                assert ranges[i] == pytest.approx(t, abs=1e-9)

    def test_lowest_index_among_equal_hits(self):
        wall = ([3.0, -1.0], [3.0, 1.0])
        assert _cast_one([0, 0], [1.0, 0.0], [([5, -1], [5, 1]), wall, wall], max_range=10) == (3.0, 1)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        pairs=st.lists(
            st.tuples(
                st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=6, max_size=6),
                st.floats(0.0, 2.0 * math.pi),
                st.sampled_from(["free", "from an end", "at an end", "along"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_hits_equal_the_parent_cast_per_pair(self, pairs):
        # Rays from anywhere, from a segment's end, at its end (where the
        # kernel's end tolerance decides) and along its line.
        origins, dirs, seg_a, seg_b = [], [], [], []
        for (ox, oy, ax, ay, bx, by), angle, kind in pairs:
            a, b = np.array([ax, ay]), np.array([bx, by])
            origin = {"from an end": a, "along": a - 0.5 * (b - a)}.get(kind, np.array([ox, oy]))
            aim = {"at an end": a - origin, "along": b - a}.get(kind, np.zeros(2))
            d = aim if np.hypot(*aim) > 0 else np.array([math.cos(angle), math.sin(angle)])
            origins.append(origin)
            dirs.append(d / np.hypot(*d))
            seg_a.append(a)
            seg_b.append(b)
        t = ray_hits(*(np.array(x) for x in (origins, dirs, seg_a, seg_b)))
        for k in range(len(pairs)):
            ranges, idx = cast_rays_parent(origins[k], dirs[k][None], seg_a[k][None], seg_b[k][None], np.inf)
            assert t[k] == ranges[0] and idx[0] == 0


class TestTypes:
    def test_capsule_body_is_tangent_rectangle(self):
        # The straight sides of the capsule on (0,0)-(2,0) with radius 0.5
        # are the lines y = +-0.5 over 0 <= x <= 2: points on them are on the
        # boundary, points just off them are inside or outside by the offset.
        a, b, r = [0.0, 0.0], [2.0, 0.0], 0.5
        xs = np.linspace(0.0, 2.0, 9)
        for side in (0.5, -0.5):
            on = np.column_stack([xs, np.full_like(xs, side)])
            d, z = capsule_projection(on, a, b, r)
            assert np.all(d == 0.0)
            assert z == pytest.approx(on)
            off = on + [0.0, 0.1 * np.sign(side)]
            d, _ = capsule_projection(off, a, b, r)
            assert d == pytest.approx([capsule_distance_sampled(p, a, b, r) for p in off], abs=1e-6)
            assert d == pytest.approx(0.1)

    def test_point_segment_distance_degenerate(self):
        d, q = capsule_projection(np.array([1.0, 1.0]), np.zeros(2), np.zeros(2))
        assert d == pytest.approx(math.sqrt(2))
        assert np.allclose(q, 0)
        pts = np.random.default_rng(4).uniform(-3, 3, (50, 2))
        d, _ = capsule_projection(pts, [-1.0, 0.5], [2.0, -0.5])
        assert d == pytest.approx(segment_distance(pts, [-1.0, 0.5], [2.0, -0.5]), abs=1e-12)
