import numpy as np
import pytest

from oampc.avoidance import OpenLoopPlan, project_plan
from oampc.geometry import Disk, Point2, Segment
from oampc.lidar_sim import OcclusionBoundary
from oampc.reachability import AgentModel, build_capsules, build_disks

from oracles import capsule_distance_sampled


class TestProjectPlan:
    def make_capsule_family(self, n=5):
        seg = OcclusionBoundary(Segment(Point2(0, 0), Point2(2, 0)), ray_index=0)
        return build_capsules(seg, AgentModel(0.5), 0.1, n)

    def test_far_points_analytic_distance(self):
        n = 5
        fam = self.make_capsule_family(n)
        shifted = np.tile([1.0, 2.0], (n, 1))  # 2 m above the axis midpoint
        ps = project_plan(shifted, [fam])
        proj = ps.families[0]
        for k in range(1, n + 1):
            assert proj.d_proj[k - 1] == pytest.approx(2.0 - 0.05 * k)

    def test_interior_point_zero(self):
        fam = self.make_capsule_family(3)
        shifted = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        ps = project_plan(shifted, [fam])
        assert np.all(ps.families[0].d_proj == 0.0)

    def test_zero_families(self):
        ps = project_plan(np.zeros((4, 2)), [])
        assert len(ps) == 0
        assert ps.horizon == 4

    def test_disk_family_entries(self):
        fam = build_disks(Disk(Point2(0, 0), 0.1), AgentModel(0.5), 0.1, 3)
        shifted = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        ps = project_plan(shifted, [fam])
        proj = ps.families[0]
        for k in range(1, 4):
            assert proj.d_proj[k - 1] == pytest.approx(1.0 - 0.1 - 0.05 * k)

    def test_projection_consistency(self):
        # For every entry the projected point realizes the reported distance.
        rng = np.random.default_rng(5)
        n = 6
        fams = [self.make_capsule_family(n), build_disks(Disk(Point2(1, 1), 0.2), AgentModel(0.4), 0.1, n)]
        shifted = rng.uniform(-3, 3, size=(n, 2))
        ps = project_plan(shifted, fams)
        for proj in ps.families:
            for k in range(n):
                if proj.d_proj[k] > 0:
                    gap = np.hypot(*(shifted[k] - proj.z_proj[k]))
                    assert gap == pytest.approx(proj.d_proj[k], abs=1e-9)

    def test_stacked_families_match_sampling_oracle(self):
        # Capsules, a zero-length boundary and disks, projected in one call:
        # every entry matches the sampling oracle for its own step-k set.
        rng = np.random.default_rng(13)
        n = 5
        model = AgentModel(0.5, radius=0.1)
        fams = [
            self.make_capsule_family(n),
            build_capsules(OcclusionBoundary(Segment(Point2(1, 1), Point2(1, 1)), 0), model, 0.1, n + 2),
            build_disks(Disk(Point2(-1, 0.5), 0.2), model, 0.1, n),
            build_capsules(OcclusionBoundary(Segment(Point2(-2, -1), Point2(0, -2)), 0), model, 0.1, n),
        ]
        shifted = rng.uniform(-3, 3, size=(n, 2))
        ps = project_plan(shifted, fams)
        for fam, proj in zip(fams, ps.families):
            assert proj.family is fam
            for k in range(n):
                ref = capsule_distance_sampled(shifted[k], fam.a, fam.b, fam.radii[k])
                assert proj.d_proj[k] == pytest.approx(ref, abs=2e-6)
                on_boundary = capsule_distance_sampled(proj.z_proj[k], fam.a, fam.b, fam.radii[k])
                assert on_boundary == pytest.approx(0.0, abs=1e-6)

    def test_family_horizon_too_short(self):
        fam = self.make_capsule_family(3)
        with pytest.raises(ValueError):
            project_plan(np.zeros((5, 2)), [fam])

    def test_order_independence(self):
        # Serial evaluation in any family order yields identical entries.
        n = 4
        f1 = self.make_capsule_family(n)
        f2 = build_disks(Disk(Point2(-1, 0.5), 0.1), AgentModel(0.3), 0.1, n)
        shifted = np.array([[0.5, 1.0], [0.7, 1.1], [0.9, 1.3], [1.1, 1.6]])
        a = project_plan(shifted, [f1, f2])
        b = project_plan(shifted, [f2, f1])
        assert np.array_equal(a.families[0].z_proj, b.families[1].z_proj)
        assert np.array_equal(a.families[1].d_proj, b.families[0].d_proj)


class TestOpenLoopPlan:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OpenLoopPlan(np.zeros((3, 3)), np.zeros((3, 2)), 0)
        with pytest.raises(ValueError):
            OpenLoopPlan(np.zeros((3, 2)), np.zeros((2, 2)), 0)

    def test_accessors(self):
        plan = OpenLoopPlan.stationary(np.array([1.0, 2.0, 0.3]), horizon=4, stamp=7)
        assert plan.horizon == 4
        assert plan.stamp == 7
        assert plan.state(0).x == 1.0
        assert plan.control(2).v == 0.0
        assert plan.positions().shape == (5, 2)
