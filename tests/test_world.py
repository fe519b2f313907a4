from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oampc.world import WorldMap, rectangle

from oracles import cast_rays_parent, point_in_convex_polygon, point_in_polygon_loop, segment_distance, segments_cross
from workloads import generate


def polygon_edges(verts):
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def random_walls(rng, m):
    return rng.uniform(-4, 4, size=(m, 2, 2))


class TestSegmentArrays:
    def test_match_per_edge_loop(self):
        # The boundary's edges, then each obstacle's, then the walls, each
        # edge from a vertex to the next one, cyclically.
        rng = np.random.default_rng(29)
        boundary = np.array([[-5.0, -5.0], [5.0, -5.0], [5.0, 5.0], [0.0, 6.0], [-5.0, 5.0]])
        obstacles = [rectangle(-1, -1, 1, 1), np.array([[2.0, 2.0], [3.0, 2.0], [2.5, 3.0]])]
        walls = random_walls(rng, 3)
        for b in (boundary, None):
            world = WorldMap(boundary=b, obstacles=obstacles, walls=walls)
            polygons = ([] if b is None else [b]) + obstacles
            edges = [edge for verts in polygons for edge in polygon_edges(verts)] + [tuple(w) for w in walls]
            seg_a, seg_b = world.segment_arrays()
            assert seg_a.shape == seg_b.shape == (len(edges), 2)
            assert np.array_equal(seg_a, [a for a, _ in edges])
            assert np.array_equal(seg_b, [b for _, b in edges])
            n_boundary = 0 if b is None else len(b)
            marked = world.is_boundary_segment(np.arange(len(edges)))
            assert marked.tolist() == [i < n_boundary for i in range(len(edges))]

    def test_empty_world(self):
        seg_a, seg_b = WorldMap().segment_arrays()
        assert seg_a.shape == seg_b.shape == (0, 2)

    @pytest.mark.parametrize("shape", [(0,), (2, 2), (3, 2), (1, 2, 3), (1, 3, 2), (1, 1, 2, 2)])
    def test_walls_must_be_w_2_2(self, shape):
        with pytest.raises(ValueError):
            WorldMap(walls=np.zeros(shape))

    @pytest.mark.parametrize(
        "fields, name",
        [
            ({"obstacles": [np.array([[0.0, 0.0], [1.0, np.nan], [1.0, 1.0]])]}, "obstacle 0"),
            ({"obstacles": [rectangle(2, 2, 3, 3), np.zeros(4)]}, "obstacle 1"),
            ({"obstacles": [np.zeros((0, 2))]}, "obstacle 0"),
            ({"obstacles": [np.array([[0.0, 0.0], [1.0, 1.0]])]}, "obstacle 0"),
            ({"obstacles": [np.zeros((4, 3))]}, "obstacle 0"),
            ({"boundary": np.zeros((0, 2))}, "boundary"),
            ({"boundary": rectangle(-5, -5, 5, np.inf)}, "boundary"),
            ({"walls": np.array([[[0.0, 0.0], [np.inf, 1.0]]])}, "walls"),
        ],
        ids=[
            "nan-vertex",
            "flat",
            "no-vertices",
            "two-vertices",
            "three-columns",
            "empty-boundary",
            "inf-boundary",
            "inf-wall",
        ],
    )
    def test_refuses_malformed_polygons_and_walls(self, fields, name):
        # Each is refused naming the polygon, not later, in a query or a scan.
        with pytest.raises(ValueError, match=name):
            WorldMap(**{"boundary": rectangle(-5, -5, 5, 5), **fields})

    def test_not_changed_after_it_is_built(self):
        # The segments every query reads are built once, with the checks
        # above, so the map's polygons and walls cannot change after that.
        boundary = rectangle(-5, -5, 5, 5)
        world = WorldMap(boundary=boundary, obstacles=[rectangle(2, 2, 3, 3)], walls=np.array([[[0, -4], [0, -3]]]))
        with pytest.raises(AttributeError):
            world.obstacles.append(rectangle(-1, -1, 1, 1))
        with pytest.raises(FrozenInstanceError):
            world.boundary = rectangle(-9, -9, 9, 9)
        for array in (world.boundary, world.obstacles[0], world.walls):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = -9.0
        boundary[0] = [-9, -9]  # the caller's array stays its own, and writable
        assert world.min_clearance([-4.9, -4.9]) == pytest.approx(0.1)


class TestSegmentVisible:
    def setup_method(self):
        self.world = WorldMap(boundary=rectangle(-5, -5, 5, 5), obstacles=[rectangle(-1, -1, 1, 1)])

    def test_blocked_through_obstacle(self):
        assert not self.world.segment_visible(np.array([-3.0, 0.0]), np.array([3.0, 0.0]))

    def test_clear_past_obstacle(self):
        assert self.world.segment_visible(np.array([-3.0, 2.0]), np.array([3.0, 2.0]))
        assert self.world.segment_visible(np.array([-3.0, 0.0]), np.array([-1.5, 0.0]))

    def test_segment_ending_on_an_edge_is_visible(self):
        # Touching a wall at the far end is not a crossing, whatever the
        # rounding of the hit range.
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(-4.5, -2, 2)
            b = np.array([-1.0, rng.uniform(-0.9, 0.9)])
            assert self.world.segment_visible(a, b)

    def test_degenerate_segment_visible(self):
        p = np.array([2.0, 2.0])
        assert self.world.segment_visible(p, p.copy())

    def test_matches_cross_product_oracle(self):
        rng = np.random.default_rng(17)
        ends = random_walls(rng, 10)
        world = WorldMap(walls=ends)
        for _ in range(400):
            a, b = rng.uniform(-5, 5, size=(2, 2))
            blocked = any(segments_cross(a, b, wa, wb) for wa, wb in ends)
            assert world.segment_visible(a, b) == (not blocked)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        walls=st.lists(
            st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=4, max_size=4), min_size=1, max_size=10
        ),
        k=st.integers(0, 9),
        ends=st.lists(
            st.tuples(
                st.sampled_from(["free", "on the wall", "on its line"]),
                st.floats(-1.0, 2.0),
                st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
            ),
            min_size=2,
            max_size=2,
        ),
    )
    def test_matches_the_parent_cast(self, walls, k, ends):
        # Each query end is anywhere, on wall k, or on its line past its
        # ends; with both ends on the line the query is collinear with it.
        walls = np.array(walls).reshape(-1, 2, 2)
        world = WorldMap(walls=walls)
        wa, wb = walls[k % len(walls)]

        def end(kind, s, point):
            if kind == "free":
                return np.array(point)
            return wa + (min(max(s, 0.0), 1.0) if kind == "on the wall" else s) * (wb - wa)

        a, b = (end(*e) for e in ends)
        d = b - a
        dist = float(np.hypot(*d))
        if dist <= 1e-12:
            parent = True
        else:
            ranges, _ = cast_rays_parent(a, (d / dist)[None, :], *world.segment_arrays(), dist)
            parent = bool(ranges[0] >= dist - 1e-9)
        assert world.segment_visible(a, b) == parent


class TestMinClearance:
    def test_empty_world_is_inf(self):
        assert WorldMap().min_clearance(np.zeros(2)) == float("inf")

    def test_analytic_room(self):
        world = WorldMap(boundary=rectangle(-5, -5, 5, 5), obstacles=[rectangle(-1, -1, 1, 1)])
        assert world.min_clearance(np.array([3.0, 0.0])) == pytest.approx(2.0)
        assert world.min_clearance((4.5, 4.0)) == pytest.approx(0.5)
        assert world.min_clearance(np.array([2.0, 2.0])) == pytest.approx(np.sqrt(2.0))

    def test_matches_segment_oracle(self):
        rng = np.random.default_rng(19)
        boundary, obstacle = rectangle(-5, -5, 5, 5), rectangle(-1, 0.5, 2, 1.5)
        ends = random_walls(rng, 4)
        world = WorldMap(boundary=boundary, obstacles=[obstacle], walls=ends)
        edges = polygon_edges(boundary) + polygon_edges(obstacle) + list(ends)
        pts = rng.uniform(-5, 5, size=(200, 2))
        expected = np.min([segment_distance(pts, a, b) for a, b in edges], axis=0)
        got = [world.min_clearance(p) for p in pts]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_contains_free_with_clearance(self):
        world = WorldMap(boundary=rectangle(-5, -5, 5, 5), obstacles=[rectangle(-1, -1, 1, 1)])
        assert world.contains_free(np.array([1.5, 0.0]), clearance=0.4)
        assert not world.contains_free(np.array([1.3, 0.0]), clearance=0.4)
        assert not world.contains_free(np.array([0.0, 0.0]))
        for p in np.random.default_rng(23).uniform(-6, 6, size=(300, 2)):
            free = point_in_convex_polygon(p, world.boundary) and not point_in_convex_polygon(p, world.obstacles[0])
            assert world.contains_free(p) == free


def free_by_loop(world, p):
    """contains_free with no clearance, one polygon and one edge at a time."""
    in_boundary = world.boundary is None or point_in_polygon_loop(p, world.boundary)
    return in_boundary and not any(point_in_polygon_loop(p, obs) for obs in world.obstacles)


def edge_and_vertex_points(rng, polygons, per_edge):
    """Every vertex, points on every edge (its midpoint and random ones), and
    points on each edge's line just past its ends."""
    points = []
    for verts in polygons:
        for a, b in zip(verts, np.roll(verts, -1, axis=0)):
            t = np.concatenate([[0.0, 0.5], rng.uniform(0.0, 1.0, per_edge), [-1e-9, 1.0 + 1e-9]])
            points.extend(a + t[:, None] * (b - a))
    return points


class TestContainsFree:
    """contains_free tests every polygon's edges as arrays; the booleans
    equal the even-odd loop it replaced (oracles.point_in_polygon_loop)."""

    L_SHAPE = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]])

    def _check(self, world, points):
        for p in points:
            assert world.contains_free(p) == free_by_loop(world, p), p

    def test_pillars_world(self):
        scn = generate("pillars-crowd", 1, 1)[0]
        world = scn.world
        assert len(world.obstacles) >= 12
        rng = np.random.default_rng(31)
        lo, hi = world.boundary.min(axis=0) - 0.5, world.boundary.max(axis=0) + 0.5
        random = rng.uniform(lo, hi, size=(3000, 2))
        on_edges = edge_and_vertex_points(rng, [world.boundary, *world.obstacles], 3)
        self._check(world, [*random, *on_edges])
        # Both outcomes occur, inside pillars too.
        free = [world.contains_free(p) for p in random]
        assert any(free) and not all(free)
        assert any(point_in_polygon_loop(p, obs) for p in random for obs in world.obstacles)

    def test_l_shaped_track(self):
        rng = np.random.default_rng(37)
        inner = rectangle(0.25, 2.0, 0.75, 2.5)
        for world in (
            WorldMap(boundary=self.L_SHAPE),
            WorldMap(boundary=self.L_SHAPE, obstacles=[inner]),
            WorldMap(obstacles=[self.L_SHAPE, inner]),
        ):
            random = rng.uniform(-0.5, 4.5, size=(2000, 2))
            polygons = [*([] if world.boundary is None else [world.boundary]), *world.obstacles]
            # Grid points hit vertex heights and edge abscissas exactly.
            grid = np.stack(np.meshgrid(np.arange(-1, 10) * 0.5, np.arange(-1, 8) * 0.5), axis=-1).reshape(-1, 2)
            self._check(world, [*random, *grid, *edge_and_vertex_points(rng, polygons, 5)])
        # The notch of the L is outside the track.
        assert not WorldMap(boundary=self.L_SHAPE).contains_free(np.array([2.5, 2.0]))
        assert WorldMap(boundary=self.L_SHAPE).contains_free(np.array([0.5, 2.0]))

    def test_open_world(self):
        world = WorldMap(walls=random_walls(np.random.default_rng(3), 2))
        assert world.contains_free(np.zeros(2))
