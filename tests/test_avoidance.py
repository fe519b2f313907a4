import numpy as np
import pytest

from oampc.avoidance import OpenLoopPlan, project_plan
from oampc.geometry import capsule_projection
from oampc.reachability import AgentModel, build_capsules, build_disks

from oracles import capsule_distance_sampled


class TestProjectPlan:
    def make_capsule_family(self, n=5):
        return build_capsules(np.array([[0.0, 0.0], [2.0, 0.0]]), AgentModel(0.5), 0.1, n)

    def test_far_points_analytic_distance(self):
        n = 5
        fam = self.make_capsule_family(n)
        shifted = np.tile([1.0, 2.0], (n, 1))  # 2 m above the axis midpoint
        ps = project_plan(shifted, [fam])
        assert ps.families == (fam,)
        assert ps.z_proj.shape == (1, n, 2)
        for k in range(1, n + 1):
            assert ps.z_proj[0, k - 1] == pytest.approx([1.0, 0.05 * k])

    def test_interior_point_zero(self):
        # A point on the axis projects along the axis's left normal.
        fam = self.make_capsule_family(3)
        shifted = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        ps = project_plan(shifted, [fam])
        assert np.array_equal(ps.z_proj[0, :, 0], np.ones(3))
        assert ps.z_proj[0, :, 1] == pytest.approx(fam.radii[:3])

    def test_zero_families(self):
        ps = project_plan(np.zeros((4, 2)), [])
        assert ps.families == ()
        assert ps.horizon == 4
        assert ps.z_proj.shape == (0, 4, 2)

    def test_disk_family_entries(self):
        fam = build_disks(np.array([0, 0, 0.1]), AgentModel(0.5), 0.1, 3)
        shifted = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        ps = project_plan(shifted, [fam])
        for k in range(1, 4):
            assert ps.z_proj[0, k - 1] == pytest.approx([0.1 + 0.05 * k, 0.0])

    def test_projection_consistency(self):
        # For every entry outside its set the projected point realizes the
        # set distance of one unbatched projection.
        rng = np.random.default_rng(5)
        n = 6
        fams = [self.make_capsule_family(n), build_disks(np.array([1, 1, 0.2]), AgentModel(0.4), 0.1, n)]
        shifted = rng.uniform(-3, 3, size=(n, 2))
        ps = project_plan(shifted, fams)
        outside = 0
        for fam, z_proj in zip(fams, ps.z_proj):
            for k in range(n):
                d = capsule_projection(shifted[k], fam.a, fam.b, fam.radii[k])[0]
                if d > 0:
                    outside += 1
                    assert np.hypot(*(shifted[k] - z_proj[k])) == pytest.approx(d, abs=1e-9)
        assert outside

    def test_stacked_families_match_sampling_oracle(self):
        # Capsules, a zero-length boundary and disks, projected in one call:
        # every entry matches the sampling oracle for its own step-k set.
        rng = np.random.default_rng(13)
        n = 5
        model = AgentModel(0.5, radius=0.1)
        fams = [
            self.make_capsule_family(n),
            build_capsules(np.array([[1.0, 1.0], [1.0, 1.0]]), model, 0.1, n + 2),
            build_disks(np.array([-1, 0.5, 0.2]), model, 0.1, n),
            build_capsules(np.array([[-2.0, -1.0], [0.0, -2.0]]), model, 0.1, n),
        ]
        shifted = rng.uniform(-3, 3, size=(n, 2))
        ps = project_plan(shifted, fams)
        assert ps.families == tuple(fams)
        for fam, z_proj in zip(fams, ps.z_proj):
            for k in range(n):
                ref = capsule_distance_sampled(shifted[k], fam.a, fam.b, fam.radii[k])
                if ref > 0:
                    assert np.hypot(*(shifted[k] - z_proj[k])) == pytest.approx(ref, abs=2e-6)
                on_boundary = capsule_distance_sampled(z_proj[k], fam.a, fam.b, fam.radii[k])
                assert on_boundary == pytest.approx(0.0, abs=1e-6)

    def test_family_horizon_too_short(self):
        fam = self.make_capsule_family(3)
        with pytest.raises(ValueError):
            project_plan(np.zeros((5, 2)), [fam])

    def test_order_independence(self):
        # Serial evaluation in any family order yields identical entries.
        n = 4
        f1 = self.make_capsule_family(n)
        f2 = build_disks(np.array([-1, 0.5, 0.1]), AgentModel(0.3), 0.1, n)
        shifted = np.array([[0.5, 1.0], [0.7, 1.1], [0.9, 1.3], [1.1, 1.6]])
        a = project_plan(shifted, [f1, f2])
        b = project_plan(shifted, [f2, f1])
        assert np.array_equal(a.z_proj, b.z_proj[::-1])


class TestOpenLoopPlan:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OpenLoopPlan(np.zeros((3, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            OpenLoopPlan(np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="inputs must be"):
            OpenLoopPlan(np.zeros((3, 3)), np.zeros((2, 3)))

    def test_accessors(self):
        plan = OpenLoopPlan.stationary(np.array([1.0, 2.0, 0.3]), horizon=4)
        assert plan.horizon == 4
        assert np.array_equal(plan.states, np.tile([1.0, 2.0, 0.3], (5, 1)))
        assert plan.positions().shape == (5, 2)
