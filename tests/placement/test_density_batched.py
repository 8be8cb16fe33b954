"""The batched electrostatic kernel is bitwise equal to the per-field reference.

``reference_density`` keeps the per-field loop the batched kernel
replaced.  Global placement amplifies last-bit differences, so every
comparison here is exact: ``np.array_equal`` on arrays and ``==`` on
energies, norms and overflows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ResourceType
from repro.netlist import Design, Instance, Net
from repro.placement import ElectrostaticSystem, GlobalPlacer, GPConfig
from repro.placement import nesterov
from repro.placement.density import FIELD_GROUPS
from repro.placement.inflation import inflate_all_fields

from .reference_density import ReferenceElectrostaticSystem

_WEIGHTS = st.none() | st.dictionaries(
    st.sampled_from(sorted(FIELD_GROUPS)),
    st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 50.0),
)


def _shared_member_design(device, seed: int) -> Design:
    """Random instances that each demand several resources, so fields share members."""
    rng = np.random.default_rng(seed)
    resources = list(ResourceType)
    instances = []
    for i in range(40):
        picked = rng.choice(len(resources), size=rng.integers(1, 4), replace=False)
        demand = {resources[k]: float(rng.integers(1, 9)) for k in picked}
        instances.append(Instance(f"i{i}", resources[picked[0]], demand))
    nets = [Net((i, i + 1)) for i in range(39)]
    return Design("shared", device, instances, nets)


def _random_placement(design: Design, rng: np.random.Generator, clustered: bool):
    n = design.num_instances
    if clustered:
        x = rng.normal(0.5 * design.device.width, 1.0, n)
        y = rng.normal(0.5 * design.device.height, 1.0, n)
    else:
        x = rng.uniform(-1.0, design.device.width + 1.0, n)
        y = rng.uniform(-1.0, design.device.height + 1.0, n)
    return x, y


def _mutate_areas(systems, how: str, rng: np.random.Generator) -> None:
    """Apply the same area change to every system."""
    name = rng.choice(sorted(systems[0].fields))
    size = systems[0].fields[name].areas.size
    values = rng.uniform(0.5, 4.0, size)
    for system in systems:
        if how == "inflate":
            system.inflate(name, values.copy())
        elif how == "set_areas":
            system.set_areas(name, values)


def _assert_same(new: ElectrostaticSystem, ref, x, y, weights) -> None:
    e_new, fx_new, fy_new = new.energy_and_forces(x, y, field_weights=weights)
    e_ref, fx_ref, fy_ref = ref.energy_and_forces(x, y, field_weights=weights)
    assert e_new == e_ref
    assert np.array_equal(fx_new, fx_ref)
    assert np.array_equal(fy_new, fy_ref)
    assert new.field_force_norms(x, y) == ref.field_force_norms(x, y)
    assert new.overflow(x, y) == ref.overflow(x, y)
    for field in new.fields.values():
        got = new._deposit(field, x, y)
        want = ref._deposit(ref.fields[field.name], x, y)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bins=st.sampled_from([16, 32]),
    weights=_WEIGHTS,
    mutation=st.sampled_from(["none", "inflate", "set_areas"]),
    clustered=st.booleans(),
)
def test_batched_kernel_matches_reference(tiny_design, seed, bins, weights, mutation, clustered):
    new = ElectrostaticSystem(tiny_design, bins=bins)
    ref = ReferenceElectrostaticSystem(tiny_design, bins=bins)
    rng = np.random.default_rng(seed)
    _mutate_areas((new, ref), mutation, rng)
    x, y = _random_placement(tiny_design, rng, clustered)
    _assert_same(new, ref, x, y, weights)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bins=st.sampled_from([16, 32]),
    weights=_WEIGHTS,
    mutation=st.sampled_from(["none", "inflate", "set_areas"]),
)
def test_shared_members_match_reference(tiny_device, seed, bins, weights, mutation):
    design = _shared_member_design(tiny_device, seed)
    new = ElectrostaticSystem(design, bins=bins)
    ref = ReferenceElectrostaticSystem(design, bins=bins)
    members = np.concatenate([f.members for f in new.fields.values()])
    assert np.unique(members).size < members.size  # fields do share members
    rng = np.random.default_rng(seed)
    _mutate_areas((new, ref), mutation, rng)
    x, y = _random_placement(design, rng, clustered=False)
    _assert_same(new, ref, x, y, weights)


def test_areas_are_read_fresh_after_inflation(tiny_design):
    """Area changes through every hook reach the kernel on the next call."""
    new = ElectrostaticSystem(tiny_design, bins=16)
    ref = ReferenceElectrostaticSystem(tiny_design, bins=16)
    rng = np.random.default_rng(7)
    x, y = _random_placement(tiny_design, rng, clustered=True)
    level_map = rng.integers(0, 8, (16, 16)).astype(float)
    for system in (new, ref):
        system.energy_and_forces(x, y)
        inflate_all_fields(system, level_map, x, y)
    _assert_same(new, ref, x, y, None)
    for system in (new, ref):
        system.fields["CLB"].areas *= 1.5
    _assert_same(new, ref, x, y, {"CLB": 2.0})


@pytest.mark.parametrize("bins", [16, 32])
def test_stacked_poisson_matches_per_grid_solve(tiny_design, bins):
    new = ElectrostaticSystem(tiny_design, bins=bins)
    ref = ReferenceElectrostaticSystem(tiny_design, bins=bins)
    rho = np.random.default_rng(bins).normal(size=(4, bins, bins))
    stacked = new._solve_poisson(rho)
    for k in range(len(rho)):
        single = new._solve_poisson(rho[k])
        want = ref._solve_poisson(rho[k])
        for got_single, got_stacked, expected in zip(single, stacked, want, strict=True):
            assert np.array_equal(got_single, expected)
            assert np.array_equal(got_stacked[k], expected)


def test_global_placement_is_bitwise_identical(tiny_design, monkeypatch):
    """50 Nesterov steps, with inflation halfway, give the same iterates."""
    def run() -> GlobalPlacer:
        gp = GlobalPlacer(tiny_design, GPConfig(bins=16, seed=3))
        for i in range(50):
            if i == 25:
                x, y = gp.positions()
                levels = np.random.default_rng(0).integers(0, 8, (16, 16)).astype(float)
                inflate_all_fields(gp.system, levels, x, y)
            gp.step()
        return gp

    batched = run()
    monkeypatch.setattr(nesterov, "ElectrostaticSystem", ReferenceElectrostaticSystem)
    reference = run()
    assert isinstance(reference.system, ReferenceElectrostaticSystem)
    assert np.array_equal(batched.state.gx, reference.state.gx)
    assert np.array_equal(batched.state.gy, reference.state.gy)
    assert batched.overflow() == reference.overflow()
