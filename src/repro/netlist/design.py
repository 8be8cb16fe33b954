"""Netlist containers used across placement, routing and feature extraction.

A :class:`Design` is a flat netlist over a :class:`~repro.arch.FPGADevice`:
instances (CLB-level cells and DSP/BRAM/URAM macros), multi-pin nets,
cascade-shape and region constraints, and the placement state (one
``(x, y)`` per instance, in site units).

For vectorized math the design exposes *pin arrays*: ``pin_inst[k]`` and
``pin_net[k]`` give the instance/net of the k-th pin, so wirelength,
RUDY and net-density evaluations are single ``np.add.at`` passes instead
of Python loops over nets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..arch import (
    CascadeShape,
    FPGADevice,
    RegionConstraint,
    ResourceType,
)

__all__ = ["Instance", "Net", "Design"]


@dataclass
class Instance:
    """A placeable netlist object.

    ``demand`` maps each resource the instance consumes to its amount —
    a CLB-level cell is typically ``{LUT: 8, FF: 16}`` while a macro is
    ``{DSP: 1}`` etc.  ``movable`` is false for IO pads and other
    pre-placed objects.
    """

    name: str
    resource: ResourceType
    demand: dict[ResourceType, float] = field(default_factory=dict)
    movable: bool = True

    def __post_init__(self) -> None:
        if not self.demand:
            self.demand = {self.resource: 1.0}

    @property
    def is_macro(self) -> bool:
        return self.resource.is_macro


@dataclass
class Net:
    """A multi-pin net; ``pins`` are instance indices."""

    pins: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if len(self.pins) < 2:
            raise ValueError("a net needs at least two pins")

    def __len__(self) -> int:
        return len(self.pins)


class Design:
    """A netlist plus its placement state on a device.

    Parameters
    ----------
    name:
        Benchmark name (e.g. ``Design_116``).
    device:
        Target fabric.
    instances, nets:
        The netlist proper.
    cascades, regions:
        Contest constraints (Section II-A).
    nominal_stats:
        The full-scale statistics this (possibly scaled-down) synthetic
        design emulates, as reported in Table I — used for reporting
        only.
    """

    def __init__(
        self,
        name: str,
        device: FPGADevice,
        instances: list[Instance],
        nets: list[Net],
        cascades: list[CascadeShape] | None = None,
        regions: list[RegionConstraint] | None = None,
        nominal_stats: dict[str, int] | None = None,
    ) -> None:
        self.name = name
        self.device = device
        self.instances = instances
        self.nets = nets
        self.cascades = cascades or []
        self.regions = regions or []
        self.nominal_stats = nominal_stats or {}

        n = len(instances)
        self.x = np.full(n, 0.5 * device.width)
        self.y = np.full(n, 0.5 * device.height)
        self._build_arrays()
        self._validate()

    # -- construction ------------------------------------------------------------

    def _build_arrays(self) -> None:
        pin_inst: list[int] = []
        pin_net: list[int] = []
        for net_idx, net in enumerate(self.nets):
            pin_inst.extend(net.pins)
            pin_net.extend([net_idx] * len(net.pins))
        self.pin_inst = np.asarray(pin_inst, dtype=np.int64)
        self.pin_net = np.asarray(pin_net, dtype=np.int64)
        self.net_weights = np.asarray([n.weight for n in self.nets])
        self.net_degrees = np.asarray([len(n) for n in self.nets], dtype=np.int64)
        self.movable_mask = np.asarray([i.movable for i in self.instances])
        self.macro_mask = np.asarray([i.is_macro for i in self.instances])
        # Pins per instance (for pin-density features).
        self.inst_num_pins = np.bincount(
            self.pin_inst, minlength=len(self.instances)
        ).astype(np.float64)

        self.resource_codes = np.asarray(
            [list(ResourceType).index(i.resource) for i in self.instances],
            dtype=np.int64,
        )
        self.demand_matrix = np.zeros((len(self.instances), len(ResourceType)))
        for idx, inst in enumerate(self.instances):
            for res, amount in inst.demand.items():
                self.demand_matrix[idx, list(ResourceType).index(res)] = amount

    def _validate(self) -> None:
        n = len(self.instances)
        if self.pin_inst.size and self.pin_inst.max() >= n:
            raise ValueError("net pin references a nonexistent instance")
        for cascade in self.cascades:
            for idx in cascade.instances:
                if idx >= n:
                    raise ValueError("cascade references a nonexistent instance")
                if not self.instances[idx].is_macro:
                    raise ValueError(
                        "cascade shapes may only constrain macros, got "
                        f"{self.instances[idx].resource}"
                    )
        for region in self.regions:
            for idx in region.instances:
                if idx >= n:
                    raise ValueError("region references a nonexistent instance")

    # -- convenience -----------------------------------------------------------------

    @property
    def num_instances(self) -> int:
        return len(self.instances)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    @property
    def num_pins(self) -> int:
        return int(self.pin_inst.size)

    def instances_of(self, resource: ResourceType) -> np.ndarray:
        """Indices of all instances whose primary resource matches."""
        code = list(ResourceType).index(resource)
        return np.flatnonzero(self.resource_codes == code)

    def macro_indices(self) -> np.ndarray:
        return np.flatnonzero(self.macro_mask)

    def total_demand(self, resource: ResourceType) -> float:
        """Total netlist demand for ``resource``."""
        col = list(ResourceType).index(resource)
        return float(self.demand_matrix[:, col].sum())

    def utilization(self, resource: ResourceType) -> float:
        """Demand / device capacity for a resource type."""
        cap = self.device.resource_capacity(resource)
        if cap == 0.0:
            return 0.0
        return self.total_demand(resource) / cap

    def set_placement(self, x: np.ndarray, y: np.ndarray) -> None:
        """Install a placement (copies, with bounds clipping).

        Non-finite coordinates are rejected: ``np.clip`` would pass NaN
        through, and routing would then score a placement with a NaN HPWL.
        """
        if x.shape != self.x.shape or y.shape != self.y.shape:
            raise ValueError("placement arrays have wrong shape")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("placement coordinates must be finite")
        self.x = np.clip(np.asarray(x, dtype=np.float64), 0, self.device.width - 1e-6)
        self.y = np.clip(np.asarray(y, dtype=np.float64), 0, self.device.height - 1e-6)

    def hpwl(self) -> float:
        """Half-perimeter wirelength of the current placement."""
        px = self.x[self.pin_inst]
        py = self.y[self.pin_inst]
        num = self.num_nets
        max_x = np.full(num, -np.inf)
        min_x = np.full(num, np.inf)
        max_y = np.full(num, -np.inf)
        min_y = np.full(num, np.inf)
        np.maximum.at(max_x, self.pin_net, px)
        np.minimum.at(min_x, self.pin_net, px)
        np.maximum.at(max_y, self.pin_net, py)
        np.minimum.at(min_y, self.pin_net, py)
        spans = (max_x - min_x) + (max_y - min_y)
        return float((spans * self.net_weights).sum())

    def stats(self) -> dict[str, int]:
        """Actual instantiated resource counts (may be scaled down)."""
        return {
            res.value: int(round(self.total_demand(res)))
            for res in ResourceType
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Design({self.name}: {self.num_instances} instances, "
            f"{self.num_nets} nets, {len(self.cascades)} cascades, "
            f"{len(self.regions)} regions)"
        )
