"""Region tension and cascade group mapping."""

import numpy as np
import pytest

from repro.arch import CascadeShape, RegionConstraint, ResourceType
from repro.netlist import Design, Instance, Net
from repro.placement import GroupMap, RegionTension

from ..conftest import numerical_gradient


def _design_with_region(tiny_device):
    instances = [
        Instance("a", ResourceType.LUT),
        Instance("b", ResourceType.LUT),
        Instance("fixed", ResourceType.LUT, {ResourceType.LUT: 0.0}, movable=False),
    ]
    nets = [Net((0, 1))]
    regions = [RegionConstraint(2.0, 2.0, 8.0, 8.0, frozenset({0, 2}))]
    return Design("r", tiny_device, instances, nets, regions=regions)


class TestRegionTension:
    def test_fixed_instances_excluded(self, tiny_device):
        design = _design_with_region(tiny_device)
        tension = RegionTension(design)
        assert tension.num_constrained == 1

    def test_penalty_zero_inside(self, tiny_device):
        design = _design_with_region(tiny_device)
        tension = RegionTension(design)
        x = np.array([4.0, 0.0, 0.0])
        y = np.array([4.0, 0.0, 0.0])
        penalty, gx, gy = tension.penalty_and_grad(x, y)
        assert penalty == 0.0
        np.testing.assert_allclose(gx, 0.0)

    def test_penalty_quadratic_outside(self, tiny_device):
        design = _design_with_region(tiny_device)
        tension = RegionTension(design)
        x = np.array([10.0, 0.0, 0.0])  # 2 beyond xhi=8
        y = np.array([4.0, 0.0, 0.0])
        penalty, gx, gy = tension.penalty_and_grad(x, y)
        assert penalty == pytest.approx(4.0)
        assert gx[0] == pytest.approx(4.0)  # d/dx (x-8)^2 = 2*2

    def test_gradient_matches_numerical(self, tiny_device, rng):
        design = _design_with_region(tiny_device)
        tension = RegionTension(design)
        x = rng.uniform(0, 16, 3)
        y = rng.uniform(0, 16, 3)

        def f():
            return tension.penalty_and_grad(x, y)[0]

        _, gx, gy = tension.penalty_and_grad(x, y)
        np.testing.assert_allclose(numerical_gradient(f, x), gx, atol=1e-6)
        np.testing.assert_allclose(numerical_gradient(f, y), gy, atol=1e-6)

    def test_violation_count_and_clamp(self, tiny_device):
        design = _design_with_region(tiny_device)
        tension = RegionTension(design)
        x = np.array([10.0, 0.0, 0.0])
        y = np.array([4.0, 0.0, 0.0])
        assert tension.violation_count(x, y) == 1
        cx, cy = tension.clamp(x, y)
        assert tension.violation_count(cx, cy) == 0
        assert cx[1] == 0.0  # unconstrained untouched


def _design_with_cascade(tiny_device):
    instances = [
        Instance("d0", ResourceType.DSP),
        Instance("d1", ResourceType.DSP),
        Instance("d2", ResourceType.DSP),
        Instance("c", ResourceType.LUT),
        Instance("io", ResourceType.LUT, {ResourceType.LUT: 0.0}, movable=False),
    ]
    nets = [Net((0, 3)), Net((2, 3))]
    cascades = [CascadeShape((0, 1, 2))]
    design = Design("c", tiny_device, instances, nets, cascades=cascades)
    design.set_placement(
        np.array([4.0, 4.0, 4.0, 8.0, 0.0]), np.array([2.0, 3.0, 4.0, 8.0, 0.0])
    )
    return design


class TestGroupMap:
    def test_group_count(self, tiny_device):
        design = _design_with_cascade(tiny_device)
        groups = GroupMap(design)
        # 1 cascade group + 1 singleton (instance 3); IO fixed.
        assert groups.num_groups == 2

    def test_expand_applies_offsets(self, tiny_device):
        design = _design_with_cascade(tiny_device)
        groups = GroupMap(design)
        gx, gy = groups.initial_variables()
        x, y = groups.expand(gx, gy)
        # Cascade members share x and are exactly 1 site apart in y.
        assert x[0] == x[1] == x[2]
        assert y[1] - y[0] == pytest.approx(1.0)
        assert y[2] - y[1] == pytest.approx(1.0)
        # Fixed instance keeps its location.
        assert x[4] == 0.0 and y[4] == 0.0

    def test_reduce_grad_sums_members(self, tiny_device):
        design = _design_with_cascade(tiny_device)
        groups = GroupMap(design)
        grad_x = np.array([1.0, 2.0, 3.0, 10.0, 99.0])
        grad_y = np.zeros(5)
        ggx, _ = groups.reduce_grad(grad_x, grad_y)
        cascade_gid = groups.group_of[0]
        single_gid = groups.group_of[3]
        assert ggx[cascade_gid] == pytest.approx(6.0)
        assert ggx[single_gid] == pytest.approx(10.0)
        # Fixed instance gradient is dropped entirely.
        assert ggx.sum() == pytest.approx(16.0)

    def test_clamp_keeps_chain_on_device(self, tiny_device):
        design = _design_with_cascade(tiny_device)
        groups = GroupMap(design)
        gy = np.full(groups.num_groups, 100.0)
        gx = np.full(groups.num_groups, 100.0)
        gx, gy = groups.clamp_variables(gx, gy)
        x, y = groups.expand(gx, gy)
        assert y[2] <= tiny_device.height - 1.0  # top of chain inside

    def test_clamp_bounds_are_the_chain_heights(self, tiny_device, rng):
        """The bounds cached at construction equal the per-call formula."""
        design = _design_with_cascade(tiny_device)
        groups = GroupMap(design)
        max_off = np.zeros(groups.num_groups)
        movable = groups.group_of >= 0
        np.maximum.at(max_off, groups.group_of[movable], groups.offset_y[movable])
        gx = rng.uniform(-5.0, 25.0, groups.num_groups)
        gy = rng.uniform(-5.0, 25.0, groups.num_groups)
        cx, cy = groups.clamp_variables(gx, gy)
        assert np.array_equal(cx, np.clip(gx, 0.0, tiny_device.width - 1.0))
        assert np.array_equal(cy, np.clip(gy, 0.0, tiny_device.height - 1.0 - max_off))

    def test_duplicate_cascade_membership_rejected(self, tiny_device):
        instances = [
            Instance("d0", ResourceType.DSP),
            Instance("d1", ResourceType.DSP),
            Instance("c", ResourceType.LUT),
        ]
        design = Design(
            "bad", tiny_device, instances, [Net((0, 2))],
            cascades=[CascadeShape((0, 1))],
        )
        design.cascades.append(CascadeShape((1, 0)))
        with pytest.raises(ValueError, match="multiple"):
            GroupMap(design)

    def test_expand_reduce_adjoint_property(self, tiny_device, rng):
        """reduce_grad is the exact transpose of expand (linear maps)."""
        design = _design_with_cascade(tiny_device)
        groups = GroupMap(design)
        gx = rng.normal(size=groups.num_groups)
        gy = rng.normal(size=groups.num_groups)
        vx = rng.normal(size=design.num_instances)
        vy = rng.normal(size=design.num_instances)
        x, y = groups.expand(gx, gy)
        rx, ry = groups.reduce_grad(vx, vy)
        # <expand(g), v> == <g, reduce(v)> up to the fixed-instance and
        # offset constants, which cancel in the difference of two expands.
        gx2 = gx + 1e-3 * rng.normal(size=gx.shape)
        x2, _ = groups.expand(gx2, gy)
        lhs = float(((x2 - x) * vx).sum())
        rhs = float(((gx2 - gx) * rx).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9)
