import numpy as np
import pytest

from oampc.geometry import Point2, Segment
from oampc.world import WorldMap, rectangle

from oracles import point_in_convex_polygon, segment_distance, segments_cross


def polygon_edges(verts):
    return [(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))]


def random_walls(rng, m):
    ends = rng.uniform(-4, 4, size=(m, 2, 2))
    return ends, [Segment(Point2(*a), Point2(*b)) for a, b in ends]


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
        ends, walls = random_walls(rng, 10)
        world = WorldMap(walls=walls)
        for _ in range(400):
            a, b = rng.uniform(-5, 5, size=(2, 2))
            blocked = any(segments_cross(a, b, wa, wb) for wa, wb in ends)
            assert world.segment_visible(a, b) == (not blocked)


class TestMinClearance:
    def test_empty_world_is_inf(self):
        assert WorldMap().min_clearance(np.zeros(2)) == float("inf")

    def test_analytic_room(self):
        world = WorldMap(boundary=rectangle(-5, -5, 5, 5), obstacles=[rectangle(-1, -1, 1, 1)])
        assert world.min_clearance(np.array([3.0, 0.0])) == pytest.approx(2.0)
        assert world.min_clearance(Point2(4.5, 4.0)) == pytest.approx(0.5)
        assert world.min_clearance(np.array([2.0, 2.0])) == pytest.approx(np.sqrt(2.0))

    def test_matches_segment_oracle(self):
        rng = np.random.default_rng(19)
        boundary, obstacle = rectangle(-5, -5, 5, 5), rectangle(-1, 0.5, 2, 1.5)
        ends, walls = random_walls(rng, 4)
        world = WorldMap(boundary=boundary, obstacles=[obstacle], walls=walls)
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
