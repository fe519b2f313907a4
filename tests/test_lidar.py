import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oampc.lidar_sim import (
    LidarParams,
    PoseInObstacleError,
    Scan,
    detect_occlusions,
    _greedy_walk,
    _ray_segment_pairs,
    _sweep,
    downsample,
    scan,
)
from oampc.unicycle import RobotState
from oampc.world import WorldMap, rectangle

from conftest import recording
from oracles import cast_rays_parent, coverage_centers_loop, greedy_walk_scalar, occlusion_pairs_loop
from workloads import generate


def square_room(half=2.0):
    return WorldMap(boundary=rectangle(-half, -half, half, half))


def as_walls(verts):
    """A polygon's edges as a (W, 2, 2) walls array."""
    return np.array([[verts[i], verts[(i + 1) % len(verts)]] for i in range(len(verts))])


class TestScan:
    def test_square_room_all_hit(self):
        params = LidarParams(num_rays=360, max_range=10.0)
        s = scan(square_room(), RobotState(0, 0, 0), params)
        assert np.all(s.segment_index >= 0)
        assert s.ranges.min() == pytest.approx(2.0)
        for th, r in zip(2.0 * np.pi * np.arange(360) / 360, s.ranges):
            assert r == pytest.approx(2.0 / max(abs(math.cos(th)), abs(math.sin(th))), abs=1e-9)

    def test_empty_world_all_miss(self):
        params = LidarParams(num_rays=64, max_range=5.0)
        s = scan(WorldMap(), RobotState(0, 0, 0), params)
        assert np.all(s.segment_index == -1)
        assert np.all(s.ranges == 5.0)
        # Miss points sit at max range along each ray.
        assert np.allclose(np.hypot(s.points[:, 0], s.points[:, 1]), 5.0)

    def test_interior_obstacle_shortens_rays(self):
        world = WorldMap(
            boundary=rectangle(-4, -4, 4, 4),
            obstacles=[rectangle(1.0, -0.5, 2.0, 0.5)],
        )
        params = LidarParams(num_rays=360, max_range=20.0)
        s = scan(world, RobotState(0, 0, 0), params)
        # Ray straight along +x must hit the obstacle face at x=1.
        i = 0
        assert s.ranges[i] == pytest.approx(1.0)
        # Ray straight along -x sees the room wall at 4.
        j = 180
        assert s.ranges[j] == pytest.approx(4.0)
        # Analytic expected range per ray: min over walls and obstacle faces.
        for i, th in enumerate(2.0 * np.pi * np.arange(360) / 360):
            d = np.array([math.cos(th), math.sin(th)])
            expect = _analytic_range(d)
            assert s.ranges[i] == pytest.approx(expect, abs=1e-9), f"ray {i}"

    def test_pose_inside_obstacle_raises(self):
        world = WorldMap(boundary=rectangle(-4, -4, 4, 4), obstacles=[rectangle(1, -1, 2, 1)])
        with pytest.raises(PoseInObstacleError):
            scan(world, RobotState(1.5, 0, 0), LidarParams())

    def test_deterministic(self):
        world = WorldMap(boundary=rectangle(-3, -3, 3, 3), obstacles=[rectangle(0.5, 0.5, 1.5, 1.5)])
        params = LidarParams()
        s1 = scan(world, RobotState(-1, -1, 0.3), params)
        s2 = scan(world, RobotState(-1, -1, 0.3), params)
        assert np.array_equal(s1.ranges, s2.ranges)
        assert np.array_equal(s1.points, s2.points)

    def test_angles_strictly_increasing(self):
        # Ray i points at angle 2 pi i / n; the directions are read-only.
        n = 90
        dirs = _sweep(n)
        angles = 2.0 * np.pi * np.arange(n) / n
        assert np.array_equal(dirs, np.stack([np.cos(angles), np.sin(angles)], axis=1))
        assert not dirs.flags.writeable
        angles = np.remainder(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * np.pi)
        assert np.all(np.diff(angles) > 0)
        assert angles[0] == 0.0
        assert angles[-1] < 2 * np.pi


def dense_cast(world, pose, params):
    """A dense cast by cast_rays_parent, the earlier ray kernel: every ray
    against every map segment, the sweep unsplit."""
    return cast_rays_parent(pose.position(), _sweep(params.num_rays), *world.segment_arrays(), params.max_range)


def workload_poses(world, seed, count):
    """Free poses in a workload's world: count at random, count within 1e-3 m
    of a segment's interior or of one of its ends (a vertex), and count on a
    segment's line just past one of its ends, where rays run along it."""
    rng = np.random.default_rng(seed)
    seg_a, seg_b = world.segment_arrays()
    lo, hi = world.boundary.min(axis=0), world.boundary.max(axis=0)
    poses = {"random": [], "near": [], "in line": []}
    while min(map(len, poses.values())) < count:
        k = rng.integers(len(seg_a))
        a, b = seg_a[k], seg_b[k]
        unit = (b - a) / np.hypot(*(b - a))
        normal = np.array([-unit[1], unit[0]])
        off, angle = rng.uniform(1e-6, 1e-3), rng.uniform(0.0, 2.0 * np.pi)
        for kind, p in (
            ("random", rng.uniform(lo, hi)),
            ("near", a + rng.uniform() * (b - a) + rng.choice([-1.0, 1.0]) * off * normal),
            ("near", a + off * np.array([math.cos(angle), math.sin(angle)])),
            ("in line", a - rng.uniform(1e-3, 1.0) * unit),
        ):
            if len(poses[kind]) < count and world.contains_free(p):
                poses[kind].append(RobotState(p[0], p[1], 0.0))
    return [pose for kind in poses.values() for pose in kind]


class TestSectorScan:
    """scan casts each segment at only the rays in its bearing sector, the
    pairs _ray_segment_pairs lists, in one ray_hits call; ranges and
    segment indexes are those of dense_cast."""

    @pytest.fixture
    def calls(self):
        """The ray_hits calls of scan."""
        with recording("oampc.lidar_sim.ray_hits") as (made,):
            yield made

    @staticmethod
    def assert_dense(world, pose, params, calls):
        calls.clear()
        s = scan(world, pose, params)
        assert len(calls) == 1
        ranges, index = dense_cast(world, pose, params)
        assert np.array_equal(s.ranges, ranges)
        assert np.array_equal(s.segment_index, index)

    @pytest.mark.parametrize("workload", ["pillars-crowd", "corner-occluded"])
    @pytest.mark.parametrize("num_rays", [1440, 1001, 360, 99, 13, 8])
    def test_matches_dense_cast(self, workload, num_rays, calls):
        scn = generate(workload, 1, 1)[0]
        world = scn.world
        params = LidarParams(num_rays=num_rays, max_range=scn.lidar.max_range)
        for pose in workload_poses(world, num_rays, 10):
            self.assert_dense(world, pose, params, calls)

    def test_crowded_polygon_matches_dense_cast(self, calls):
        # A 40-gon 3 m out puts 40 short edges in a narrow bearing range.
        ring = 2.0 * np.pi * np.arange(40) / 40
        gon = np.array([3.0, 0.5]) + 0.3 * np.stack([np.cos(ring), np.sin(ring)], axis=1)
        world = WorldMap(boundary=rectangle(-4, -4, 4, 4), obstacles=[gon])
        rng = np.random.default_rng(3)
        poses = [RobotState(*rng.uniform(-1.0, 1.0, 2), 0.0) for _ in range(5)]
        for n in (1440, 360):
            for pose in poses:
                self.assert_dense(world, pose, LidarParams(num_rays=n, max_range=10.0), calls)

    @pytest.mark.parametrize("workload", ["pillars-crowd", "corner-occluded"])
    def test_pairs_leave_segments_out(self, workload):
        scn = generate(workload, 1, 1)[0]
        seg_a, seg_b = scn.world.segment_arrays()
        n = scn.lidar.num_rays
        counts = [
            len(_ray_segment_pairs(pose.position(), seg_a, seg_b, n)[0]) for pose in workload_poses(scn.world, 1, 10)
        ]
        assert min(counts) < n * len(seg_a)

    def test_a_vertex_at_the_origin_pairs_its_segments_with_every_ray(self):
        world = WorldMap(boundary=rectangle(-4, -4, 4, 4), obstacles=[rectangle(1.0, -0.5, 2.0, 0.5)])
        seg_a, seg_b = world.segment_arrays()
        vertex = np.array([1.0, -0.5])
        origin = vertex + np.array([-0.5e-9, -0.5e-9])
        rays, segs = _ray_segment_pairs(origin, seg_a, seg_b, 360)
        touching = np.flatnonzero(np.all(seg_a == vertex, axis=1) | np.all(seg_b == vertex, axis=1))
        assert len(touching) == 2
        for k in touching:
            assert np.array_equal(np.sort(rays[segs == k]), np.arange(360))

    def test_coincident_walls_report_the_lower_index(self, calls):
        # Two copies of one wall: every ray that hits it hits both at the same
        # range, and the dense cast's argmin names the first.
        wall = [[3.0, -1.0], [3.0, 1.0]]
        world = WorldMap(boundary=rectangle(-4, -4, 4, 4), walls=np.array([wall, wall]))
        first = int(np.flatnonzero(np.all(world.segment_arrays()[0] == wall[0], axis=1))[0])
        params = LidarParams(num_rays=360, max_range=10.0)
        s = scan(world, RobotState(0.0, 0.0, 0.0), params)
        on_wall = np.abs(s.points[:, 0] - 3.0) < 1e-9
        assert on_wall.sum() > 10
        assert np.all(s.segment_index[on_wall] == first)
        self.assert_dense(world, RobotState(0.0, 0.0, 0.0), params, calls)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        walls=st.lists(
            st.lists(st.floats(-3.5, 3.5, allow_subnormal=False), min_size=4, max_size=4), min_size=1, max_size=12
        ),
        pose=st.tuples(st.floats(-3.9, 3.9), st.floats(-3.9, 3.9)),
        num_rays=st.integers(8, 1500),
    )
    def test_matches_dense_cast_on_random_walls(self, walls, pose, num_rays):
        walls = np.array(walls).reshape(-1, 2, 2)
        walls = walls[np.hypot(*(walls[:, 1] - walls[:, 0]).T) > 1e-6]
        world = WorldMap(boundary=rectangle(-4, -4, 4, 4), walls=walls)
        state = RobotState(pose[0], pose[1], 0.0)
        assume(world.contains_free(state.position()))
        s = scan(world, state, LidarParams(num_rays=num_rays, max_range=10.0))
        ranges, index = dense_cast(world, state, LidarParams(num_rays=num_rays, max_range=10.0))
        assert np.array_equal(s.ranges, ranges)
        assert np.array_equal(s.segment_index, index)


def _analytic_range(d, half=4.0, box=(1.0, -0.5, 2.0, 0.5)):
    best = np.inf
    # Outer walls.
    for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
        if d[axis] * sign > 1e-12:
            t = half / (d[axis] * sign)
            other = d[1 - axis] * t
            if abs(other) <= half + 1e-12:
                best = min(best, t)
    x0, y0, x1, y1 = box
    # Obstacle faces.
    for x in (x0, x1):
        if abs(d[0]) > 1e-12:
            t = x / d[0]
            if t > 0 and y0 - 1e-12 <= d[1] * t <= y1 + 1e-12:
                best = min(best, t)
    for y in (y0, y1):
        if abs(d[1]) > 1e-12:
            t = y / d[1]
            if t > 0 and x0 - 1e-12 <= d[0] * t <= x1 + 1e-12:
                best = min(best, t)
    return best


class TestDetectOcclusions:
    def _scan_from_ranges(self, ranges, max_range=10.0):
        ranges = np.asarray(ranges, dtype=float)
        points = ranges[:, None] * _sweep(len(ranges))
        return Scan(ranges, points, np.where(ranges < max_range, 0, -1))

    def test_single_jump(self):
        s = self._scan_from_ranges([2.0, 2.05, 2.1, 4.8, 4.85, 2.2, 2.1, 2.05])
        # Jumps at (2,3) and (4,5); with threshold 0.5 both register.
        bounds = detect_occlusions(s, LidarParams(jump_threshold=0.5))
        # In ray order, each row [near, far].
        assert np.array_equal(bounds, s.points[[[2, 3], [5, 4]]])
        near, far = bounds[0]
        # Near endpoint is the shorter-range hit.
        assert np.hypot(*near) == pytest.approx(2.1)
        assert np.hypot(*far) == pytest.approx(4.8)

    def test_constant_ranges_none(self):
        s = self._scan_from_ranges([3.0] * 12)
        assert detect_occlusions(s, LidarParams(jump_threshold=0.5)).shape == (0, 2, 2)

    def test_near_to_strictly_farther(self):
        rng = np.random.default_rng(2)
        s = self._scan_from_ranges(rng.uniform(1.0, 6.0, 36))
        for near, far in detect_occlusions(s, LidarParams(jump_threshold=0.5)):
            assert math.hypot(*far) > math.hypot(*near)

    def test_boundary_length_at_least_threshold(self):
        rng = np.random.default_rng(4)
        s = self._scan_from_ranges(rng.uniform(0.5, 8.0, 60))
        params = LidarParams(jump_threshold=0.7)
        for near, far in detect_occlusions(s, params):
            assert math.hypot(*(far - near)) >= params.jump_threshold - 1e-12

    def test_miss_contributes_virtual_far_point(self):
        ranges = [2.0, 2.0, 10.0, 10.0, 2.0, 2.0]  # 10.0 == max_range: misses
        s = self._scan_from_ranges(ranges, max_range=10.0)
        bounds = detect_occlusions(s, LidarParams(jump_threshold=1.0))
        assert len(bounds) == 2
        assert math.hypot(*bounds[0, 1]) == pytest.approx(10.0)

    def test_matches_loop_oracle(self):
        params = LidarParams(num_rays=240, max_range=6.0, jump_threshold=0.3)
        world, poses = pillar_poses()
        for pose in poses:
            s = scan(world, pose, params)
            got = detect_occlusions(s, params)
            want = [[s.points[near], s.points[far]] for _, near, far in occlusion_pairs_loop(s.ranges, 0.3)]
            assert got.shape == (len(want), 2, 2)
            assert np.array_equal(got, np.reshape(want, (-1, 2, 2)))

    def test_corner_map_boundary_location(self):
        # L-shaped track: the only large jump from the start pose is across
        # the corner opening at (1.5, 2).
        boundary = np.array([[0.5, 0], [1.5, 0], [1.5, 2], [3, 2], [3, 3], [0.5, 3]])
        world = WorldMap(boundary=boundary)
        params = LidarParams(num_rays=360, max_range=6.0, jump_threshold=0.4)
        s = scan(world, RobotState(0.8, 0.3, math.pi / 2), params)
        bounds = detect_occlusions(s, params)
        assert len(bounds) >= 1
        # Each boundary must brush the corner region: the near point sits on
        # the inner wall x=1.5 close to y=2.
        for (x, y), _ in bounds:
            assert x == pytest.approx(1.5, abs=0.05)
            assert 1.2 < y <= 2.0 + 1e-9


def pillar_world():
    pillars = [rectangle(x, y, x + 0.3, y + 0.3) for x in (-2.5, -0.5, 1.5) for y in (-2.5, 0.8)]
    return WorldMap(boundary=rectangle(-4, -4, 4, 4), obstacles=pillars)


def pillar_poses(count=30, seed=0):
    """The pillar world and random free poses in it, whose scans have many
    range jumps and grazing hits that the thinned centres leave uncovered."""
    world = pillar_world()
    rng = np.random.default_rng(seed)
    poses = []
    while len(poses) < count:
        p = rng.uniform(-3.8, 3.8, 2)
        if world.contains_free(p, clearance=0.05):
            poses.append(RobotState(p[0], p[1], 0.0))
    return world, poses


class TestDownsample:
    # Synthetic scans are thinned against an open world: it has no boundary
    # track, so every hit is kept.
    OPEN = WorldMap()

    def _wall_scan(self, num_hits, spacing):
        # Hits along a straight wall at y=2, x = 0, spacing, 2*spacing, ...
        n = num_hits
        points = np.stack([np.arange(n) * spacing, np.full(n, 2.0)], axis=1)
        ranges = np.hypot(points[:, 0], points[:, 1])
        order = np.argsort(np.arctan2(points[:, 1], points[:, 0]))
        return Scan(ranges[order], points[order], np.zeros(n, int))

    def test_wall_count_oracle(self):
        # 100 hits spaced 0.2 m apart: wall length 19.8 m. Greedy thinning at
        # >= 0.5 m keeps one point every 0.6 m of wall.
        s = self._wall_scan(100, 0.2)
        params = LidarParams(downsample_spacing=0.5, coverage_radius=0.35)
        circles = downsample(s, params, self.OPEN)
        wall_len = 99 * 0.2
        assert wall_len / 0.6 <= len(circles) <= math.ceil(wall_len / 0.5) + 1

    def test_single_hit(self):
        s = self._wall_scan(1, 0.2)
        circles = downsample(s, LidarParams(), self.OPEN)
        assert np.array_equal(circles, [[0.0, 2.0, LidarParams().coverage_radius]])

    def test_no_hits(self):
        n = 16
        s = Scan(np.full(n, 5.0), np.zeros((n, 2)), np.full(n, -1))
        assert downsample(s, LidarParams(), self.OPEN).shape == (0, 3)

    def test_coverage_invariant(self):
        world = WorldMap(
            boundary=rectangle(-4, -4, 4, 4),
            obstacles=[rectangle(0.5, 0.5, 2.5, 1.5), rectangle(-3, -2, -1, -1)],
        )
        params = LidarParams(num_rays=360, max_range=12.0, downsample_spacing=0.3, coverage_radius=0.2)
        s = scan(world, RobotState(-0.5, -0.2, 0.1), params)
        circles = downsample(s, params, world)
        assert np.all(circles[:, 2] == params.coverage_radius)
        centers = circles[:, :2]
        # Every obstacle hit lies within coverage_radius of some center.
        for i in range(len(s.ranges)):
            if s.segment_index[i] < 0 or world.is_boundary_segment(int(s.segment_index[i])):
                continue
            p = s.points[i]
            d = np.hypot(centers[:, 0] - p[0], centers[:, 1] - p[1]).min()
            assert d <= params.coverage_radius + 1e-9

    def test_consecutive_spacing(self):
        s = self._wall_scan(200, 0.05)
        params = LidarParams(downsample_spacing=0.4, coverage_radius=0.25)
        centers = downsample(s, params, self.OPEN)[:, :2]
        gaps = np.hypot(*np.diff(centers, axis=0).T)
        assert np.all(gaps >= params.downsample_spacing - 1e-9)

    def test_boundary_hits_excluded_when_world_given(self):
        room = rectangle(-2, -2, 2, 2)
        world = WorldMap(boundary=room)
        params = LidarParams(num_rays=90, max_range=10.0)
        s = scan(world, RobotState(0, 0, 0), params)
        assert downsample(s, params, world).shape == (0, 3)
        # The same room as bare walls is no track limit: its hits yield circles.
        walled = WorldMap(walls=as_walls(room))
        s = scan(walled, RobotState(0, 0, 0), params)
        assert np.all(s.segment_index >= 0)
        assert len(downsample(s, params, walled)) > 0


    def test_matches_loop_oracle(self):
        params = LidarParams(num_rays=200, max_range=8.0, downsample_spacing=0.8, coverage_radius=0.4)
        world, poses = pillar_poses()
        # The same pillars in the same room, its edges walls: no hit is on a
        # track limit.
        walled = WorldMap(obstacles=world.obstacles, walls=as_walls(world.boundary))
        deduplicated = 0
        for pose in poses:
            for w in (world, walled):
                s = scan(w, pose, params)
                hits = s.points[[i >= 0 and not w.is_boundary_segment(int(i)) for i in s.segment_index]]
                if w is walled:
                    assert len(hits) == np.count_nonzero(s.segment_index >= 0)
                want = coverage_centers_loop(hits, params.downsample_spacing, params.coverage_radius)
                got = downsample(s, params, w)
                assert np.array_equal(got[:, :2], want)
                assert np.all(got[:, 2] == params.coverage_radius)
                thinned = coverage_centers_loop(hits, params.downsample_spacing, np.inf)
                uncovered = sum(min(np.hypot(*(p - c)) for c in thinned) > params.coverage_radius for p in hits)
                deduplicated += uncovered > len(want) - len(thinned)
        # Some scans leave uncovered hits that an earlier backstop centre covers.
        assert deduplicated


    def test_matches_loop_oracle_on_workload_scans(self):
        # 1440-ray scans among the pillars-crowd pillars, near walls and
        # vertices too: the backstop adds hits, and some of them cover others.
        scn = generate("pillars-crowd", 1, 1)[0]
        world, params = scn.world, scn.lidar
        added = deduplicated = 0
        for pose in workload_poses(world, 3, 4):
            s = scan(world, pose, params)
            hits = s.points[(s.segment_index >= 0) & ~world.is_boundary_segment(s.segment_index)]
            want = coverage_centers_loop(hits, params.downsample_spacing, params.coverage_radius)
            got = downsample(s, params, world)
            assert np.array_equal(got[:, :2], want)
            assert np.all(got[:, 2] == params.coverage_radius)
            thinned = coverage_centers_loop(hits, params.downsample_spacing, np.inf)
            uncovered = sum(min(np.hypot(*(p - c)) for c in thinned) > params.coverage_radius for p in hits)
            added += len(want) > len(thinned)
            deduplicated += uncovered > len(want) - len(thinned)
        assert added and deduplicated


    def test_matches_loop_oracle_on_recorded_scans(self, pillars_crowd_run):
        # The scans of the first 10 steps of a closed-loop pillars-crowd run;
        # on some of them the backstop adds centres.
        scans = pillars_crowd_run.calls("oampc.sim_engine.downsample", 10)
        world, params = pillars_crowd_run.scenario.world, pillars_crowd_run.scenario.lidar
        assert len(scans) == 10
        added = 0
        for _, args, kwargs, _ in scans:
            s = args[0]
            hits = s.points[(s.segment_index >= 0) & ~world.is_boundary_segment(s.segment_index)]
            want = coverage_centers_loop(hits, params.downsample_spacing, params.coverage_radius)
            got = downsample(*args, **kwargs)
            assert np.array_equal(got[:, :2], want)
            assert np.all(got[:, 2] == params.coverage_radius)
            added += len(want) > len(greedy_walk_scalar(hits, params.downsample_spacing))
        assert added

    def test_backstop_looks_past_the_neighbouring_centres(self):
        # Hits in ray order: K0 and K1 are kept, X is within spacing of K1 so
        # not kept, and K2 is kept. X is farther than coverage_radius from
        # K1 and K2, its neighbouring centres, but within it of K0, so it is
        # covered and adds no centre.
        points = np.array([[0.0, 0.0], [0.35, 0.0], [0.1, 0.1], [1.0, 0.5]])
        n = len(points)
        s = Scan(np.ones(n), points, np.zeros(n, int))
        params = LidarParams(downsample_spacing=0.3, coverage_radius=0.2)
        got = downsample(s, params, self.OPEN)
        assert np.array_equal(got[:, :2], points[[0, 1, 3]])
        assert np.array_equal(got[:, :2], coverage_centers_loop(points, 0.3, 0.2))


class TestGreedyWalk:
    """The windowed walk keeps exactly the hits the one-hit-at-a-time walk
    keeps."""

    @pytest.mark.parametrize("workload", ["pillars-crowd", "corner-occluded"])
    def test_matches_scalar_walk_on_workload_scans(self, workload):
        # Scans from random free poses in the workload's world, with and
        # without its boundary hits.
        scn = generate(workload, 1, 1)[0]
        world, params = scn.world, scn.lidar
        rng = np.random.default_rng(1)
        lo, hi = world.boundary.min(axis=0), world.boundary.max(axis=0)
        walks = 0
        while walks < 40:
            p = rng.uniform(lo, hi)
            if not world.contains_free(p, clearance=0.2):
                continue
            s = scan(world, RobotState(p[0], p[1], 0.0), params)
            hit = s.segment_index >= 0
            for mask in (hit, hit & ~world.is_boundary_segment(s.segment_index)):
                if mask.any():
                    hits = s.points[mask]
                    assert _greedy_walk(hits, params.downsample_spacing) == greedy_walk_scalar(
                        hits, params.downsample_spacing
                    )
                    walks += 1

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=300),
        unit=st.sampled_from([0.01, 0.1, 0.3, 1 / 3]),
        spacing=st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]),
    )
    def test_matches_scalar_walk_on_random_walks(self, steps, unit, spacing):
        # Lattice random walks: distances of exactly spacing, long runs
        # closer than spacing (beyond one window) and repeated points.
        hits = np.cumsum(np.array(steps, dtype=float) * unit, axis=0)
        assert _greedy_walk(hits, spacing) == greedy_walk_scalar(hits, spacing)

    @settings(max_examples=200, deadline=None)
    @given(
        hits=st.lists(st.tuples(st.floats(-10, 10), st.floats(-10, 10)), min_size=1, max_size=100),
        spacing=st.floats(1e-3, 5.0),
    )
    def test_matches_scalar_walk_on_arbitrary_hits(self, hits, spacing):
        hits = np.array(hits, dtype=float)
        assert _greedy_walk(hits, spacing) == greedy_walk_scalar(hits, spacing)


class TestLidarParams:
    def test_invariants(self):
        with pytest.raises(ValueError):
            LidarParams(num_rays=4)
        with pytest.raises(ValueError):
            LidarParams(max_range=0)
        with pytest.raises(ValueError, match="jump_threshold must be positive"):
            LidarParams(jump_threshold=0.0)
        with pytest.raises(ValueError):
            LidarParams(downsample_spacing=0.5, coverage_radius=0.2)

    def test_rejects_non_finite_values(self):
        # A NaN passes every comparison, so it once went through: a NaN
        # jump_threshold gave no occlusion boundary at any step, so the
        # occlusion-aware planner ran as the baseline, and a NaN
        # coverage_radius gave NaN circle radii and no avoidance row.
        for name in ("num_rays", "max_range", "jump_threshold", "downsample_spacing", "coverage_radius"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    LidarParams(**{name: value})

    def test_rejects_a_non_integer_ray_count(self):
        # num_rays = 360.5 once went through, and the sweep then died with an
        # IndexError at the first scan. Numpy integers are integers.
        for value in (360.0, np.float64(360.0), 360.5, True, np.bool_(True)):
            with pytest.raises(ValueError, match="num_rays must be an integer"):
                LidarParams(num_rays=value)
        assert LidarParams(num_rays=np.int32(90)).num_rays == 90

    @pytest.mark.parametrize("name, value", [("num_rays", "360"), ("max_range", None)])
    def test_rejects_a_value_that_is_not_a_number(self, name, value):
        # Such a value once went through np.isfinite, whose TypeError named
        # no field.
        with pytest.raises(ValueError, match=name):
            LidarParams(**{name: value})

    def test_rejects_nonpositive_downsample_spacing(self):
        for spacing in (0.0, -0.3):
            with pytest.raises(ValueError):
                LidarParams(downsample_spacing=spacing)
