"""Electrostatic density model (ePlace/elfPlace style).

Each resource *field* (CLB, DSP, BRAM, URAM) is an independent
electrostatic system, as in elfPlace/DREAMPlaceFPGA: instances are
positive charges with charge = their site-unit area, the per-bin
capacity acts as the neutralizing background, and the density penalty is
the field energy.  The potential is obtained by solving Poisson's
equation with Neumann boundary conditions via a type-II DCT
(``scipy.fft``), and the force on every instance is the field at its
bin, times its charge.

Instances are deposited with bilinear weights over the four bins nearest
their center, scaled by their (possibly inflated) area, so the
congestion-driven inflation of Eqs. 11–13 directly raises local density
and pushes neighbours away.

One batched kernel solves all fields: members are concatenated in field
order and offset by ``field_id · bins²`` into a stacked ``(F, bins, bins)``
grid, deposited by one ``np.bincount``, solved by one ``dctn``/``idctn``
pair (spectral denominator cached at construction) and gathered back per
axis.  Areas are read afresh on every call, as inflation rewrites them.
Bins and instances accumulate in a per-field loop's order, so the kernel
is bitwise equal to the per-field reference in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from ..arch import FPGADevice, ResourceType, SiteType
from ..netlist import Design

__all__ = ["DensityField", "ElectrostaticSystem", "FIELD_GROUPS"]

# Which netlist resources share one electrostatic field.  LUT+FF share
# the CLB fabric, so (as in elfPlace) they form a single field whose
# site-unit area is max(LUT/8, FF/16).
FIELD_GROUPS: dict[str, tuple[ResourceType, ...]] = {
    "CLB": (ResourceType.LUT, ResourceType.FF),
    "DSP": (ResourceType.DSP,),
    "BRAM": (ResourceType.BRAM,),
    "URAM": (ResourceType.URAM,),
}

_SITE_UNITS = {
    ResourceType.LUT: 8.0,
    ResourceType.FF: 16.0,
    ResourceType.DSP: 1.0,
    ResourceType.BRAM: 1.0,
    ResourceType.URAM: 1.0,
}

_FIELD_SITE = {
    "CLB": SiteType.CLB,
    "DSP": SiteType.DSP,
    "BRAM": SiteType.BRAM,
    "URAM": SiteType.URAM,
}


def _site_area(design: Design, field: str) -> np.ndarray:
    """Per-instance area in site units for one field (0 when not in field)."""
    areas = np.zeros(design.num_instances)
    for res in FIELD_GROUPS[field]:
        col = list(ResourceType).index(res)
        areas = np.maximum(areas, design.demand_matrix[:, col] / _SITE_UNITS[res])
    return areas


@dataclass
class DensityField:
    """One resource field: member instances, areas and bin capacities."""

    name: str
    members: np.ndarray  # instance indices with area > 0
    areas: np.ndarray  # site-unit area per member (mutable: inflation)
    capacity: np.ndarray  # (bins, bins) available sites per bin
    bins: int

    @property
    def total_capacity(self) -> float:
        return float(self.capacity.sum())

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())


class ElectrostaticSystem:
    """Multi-field electrostatics over a ``bins × bins`` grid.

    Parameters
    ----------
    design:
        The netlist; field membership and initial areas derive from its
        demand matrix.
    bins:
        Density grid resolution.  The grid spans the whole device.
    """

    def __init__(self, design: Design, bins: int = 32) -> None:
        self.design = design
        self.device: FPGADevice = design.device
        self.bins = bins
        self.bin_w = self.device.width / bins
        self.bin_h = self.device.height / bins
        self.fields: dict[str, DensityField] = {}
        for name in FIELD_GROUPS:
            areas = _site_area(design, name)
            members = np.flatnonzero(areas > 0)
            if members.size == 0:
                continue
            self.fields[name] = DensityField(
                name=name,
                members=members,
                # Fancy indexing already yields a fresh private array;
                # inflation may later mutate it without aliasing `areas`.
                areas=areas[members],
                capacity=self._site_capacity_map(name),
                bins=bins,
            )

        # Batched layout: members concatenated in field order, each with
        # its field id and the flat offset of its field's slab.
        fields = self.fields.values()
        sizes = [field.members.size for field in fields]
        self._members = np.concatenate([field.members for field in fields])
        self._field_of = np.repeat(np.arange(len(sizes)), sizes)
        self._offsets = self._field_of * (bins * bins)
        self._bounds = np.cumsum([0, *sizes])
        self._capacity = np.stack([field.capacity for field in fields])
        self._total_capacity = np.array([field.total_capacity for field in fields])
        wave = 2.0 - 2.0 * np.cos(np.pi * np.arange(bins) / bins)
        self._denom = wave[:, None] / (self.bin_w**2) + wave[None, :] / (self.bin_h**2)
        self._denom[0, 0] = 1.0  # zero mode: potential defined up to a constant

    def _site_capacity_map(self, field: str) -> np.ndarray:
        """Sites of the field's type per bin (site units, not resources)."""
        site_type = _FIELD_SITE[field]
        cap = np.zeros((self.bins, self.bins))
        col_width = self.device.num_cols / self.bins
        rows_per_bin = self.device.num_rows / self.bins
        for x, col_type in enumerate(self.device.column_types):
            if col_type is not site_type:
                continue
            lo = int(x / col_width)
            hi = int((x + 1 - 1e-9) / col_width)
            for b in range(lo, hi + 1):
                left = max(x, b * col_width)
                right = min(x + 1, (b + 1) * col_width)
                cap[b, :] += max(0.0, right - left) * rows_per_bin
        return cap

    # -- the batched kernel -----------------------------------------------------------

    def _scatter(self, x, y, members, offsets, areas, num_fields):
        """Bilinear scatter into ``(num_fields, bins, bins)``: ``(density, corners, wx, wy)``.

        ``corners`` are each member's four flat bin indices, weighted ``wx * wy``.
        """
        n = self.bins
        mx = np.clip(x[members] / self.bin_w - 0.5, 0.0, n - 1.0 - 1e-9)
        my = np.clip(y[members] / self.bin_h - 0.5, 0.0, n - 1.0 - 1e-9)
        ix = mx.astype(np.int64)
        iy = my.astype(np.int64)
        fx = mx - ix
        fy = my - iy
        base = offsets + ix * n + iy
        corners = base + np.array([[0], [n], [1], [n + 1]])
        wx = np.array([1 - fx, fx, 1 - fx, fx])
        wy = np.array([1 - fy, 1 - fy, fy, fy])
        # Corner-major order sums each bin as four sequential per-corner
        # ``np.add.at`` calls would, and ``a * wx * wy`` keeps the rounding
        # of ``a * (1 - fx) * (1 - fy)``: GP amplifies last-bit changes.
        weights = (areas * wx * wy).ravel()
        density = np.bincount(corners.ravel(), weights, minlength=num_fields * n * n)
        return density.reshape(num_fields, n, n), corners, wx, wy

    def _deposit(
        self, field: DensityField, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Deposit one field: ``(density, ix, iy, fx, fy)``, ``ix/iy`` the lower bins."""
        density, corners, wx, wy = self._scatter(x, y, field.members, 0, field.areas, 1)
        ix, iy = np.divmod(corners[0], self.bins)
        return density[0], ix, iy, wx[1], wy[2]

    def _solve_poisson(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve ∇²φ = -ρ (Neumann) over the last two axes; return (φ, Ex, Ey)."""
        rho_hat = sp_fft.dctn(rho, type=2, norm="ortho", axes=(-2, -1))
        phi_hat = rho_hat / self._denom
        phi_hat[..., 0, 0] = 0.0
        phi = sp_fft.idctn(phi_hat, type=2, norm="ortho", axes=(-2, -1))
        # Electric field E = -∇φ via central differences.
        ex = np.empty_like(phi)
        ey = np.empty_like(phi)
        ex[..., 1:-1, :] = (phi[..., :-2, :] - phi[..., 2:, :]) / (2.0 * self.bin_w)
        ex[..., 0, :] = (phi[..., 0, :] - phi[..., 1, :]) / self.bin_w
        ex[..., -1, :] = (phi[..., -2, :] - phi[..., -1, :]) / self.bin_w
        ey[..., 1:-1] = (phi[..., :-2] - phi[..., 2:]) / (2.0 * self.bin_h)
        ey[..., 0] = (phi[..., 0] - phi[..., 1]) / self.bin_h
        ey[..., -1] = (phi[..., -2] - phi[..., -1]) / self.bin_h
        return phi, ex, ey

    def _solve_fields(self, x: np.ndarray, y: np.ndarray):
        """All fields at once: ``(areas, energies, ex_m, ey_m)``, member arrays concatenated."""
        areas = np.concatenate([field.areas for field in self.fields.values()])
        density, corners, wx, wy = self._scatter(
            x, y, self._members, self._offsets, areas, len(self.fields)
        )
        # Charge-neutral residual: subtract the scaled capacity so a
        # perfectly spread placement has zero field.
        total_area = np.array([field.total_area for field in self.fields.values()])
        scale = total_area / np.maximum(self._total_capacity, 1e-12)
        rho = density - self._capacity * scale[:, None, None]
        phi, ex, ey = self._solve_poisson(rho)
        energies = 0.5 * (rho * phi).reshape(len(rho), -1).sum(axis=1)
        em = []
        for e in (ex, ey):
            terms = e.reshape(-1)[corners] * wx * wy
            em.append(terms[0] + terms[1] + terms[2] + terms[3])
        return areas, energies, *em

    # -- public API ---------------------------------------------------------------------

    def overflow(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        """Per-field density overflow: Σ max(0, demand − cap) / Σ demand.

        This is the quantity the Fig. 6 flow gates on
        (``Overflow_t < 0.25`` for macros, ``< 0.15`` for LUT/FF).

        Macro fields are measured *after* snapping each member to its
        nearest legal column: legalization will do exactly that snap, so
        a macro hovering one bin away from a DSP column is not actually
        overflowing anything.
        """
        result: dict[str, float] = {}
        for name, field in self.fields.items():
            total = field.areas.sum()
            if total <= 0:
                result[name] = 0.0
                continue
            if name != "CLB":
                # Column-level feasibility: snap each macro to its nearest
                # legal column and measure per-column over-subscription
                # (legalization spreads freely in y within a column).
                cols = self.device.columns_of_type(_FIELD_SITE[name])
                if cols.size == 0:
                    result[name] = 1.0
                    continue
                member_x = x[field.members]
                nearest = np.argmin(
                    np.abs(member_x[:, None] - (cols[None, :] + 0.5)), axis=1
                )
                per_col = np.bincount(
                    nearest, weights=field.areas, minlength=cols.size
                )
                over = np.maximum(
                    0.0, per_col - float(self.device.num_rows)
                ).sum()
                result[name] = float(over / total)
                continue
            density, *_ = self._deposit(field, x, y)
            over = np.maximum(0.0, density - field.capacity).sum()
            result[name] = float(over / total)
        return result

    def energy_and_forces(
        self, x: np.ndarray, y: np.ndarray, field_weights: dict[str, float] | None = None
    ) -> tuple[dict[str, float], np.ndarray, np.ndarray]:
        """Field energies and per-instance forces (negative penalty gradient).

        Returns ``(energy_by_field, force_x, force_y)`` where forces are
        accumulated over all fields an instance belongs to.  The density
        *penalty gradient* used by the optimizer is ``-force``.
        ``field_weights`` rescales each field's force — elfPlace-style
        per-field multipliers, so sparse fields (URAM) still feel a pull
        comparable to the dense CLB field.
        """
        areas, energies, exm, eym = self._solve_fields(x, y)
        weights = field_weights or {}
        charge = np.array([weights.get(name, 1.0) for name in self.fields])[self._field_of] * areas
        # Each instance sums its forces in field order, like a per-field loop.
        n = self.design.num_instances
        force_x = np.bincount(self._members, charge * exm, minlength=n)
        force_y = np.bincount(self._members, charge * eym, minlength=n)
        return dict(zip(self.fields, energies.tolist())), force_x, force_y

    def field_force_norms(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        """RMS force per field at the current placement (for λ balancing)."""
        areas, _, exm, eym = self._solve_fields(x, y)
        square = (areas * exm) ** 2 + (areas * eym) ** 2
        return {
            name: float(np.sqrt(np.mean(square[lo:hi])) + 1e-12)
            for name, lo, hi in zip(self.fields, self._bounds[:-1], self._bounds[1:])
        }

    def inflate(self, field_name: str, member_scale: np.ndarray) -> None:
        """Multiply member areas of one field (instance-inflation hook)."""
        field = self.fields[field_name]
        if member_scale.shape != field.areas.shape:
            raise ValueError("member_scale must match field member count")
        field.areas *= member_scale

    def set_areas(self, field_name: str, areas: np.ndarray) -> None:
        """Replace member areas of one field."""
        field = self.fields[field_name]
        if areas.shape != field.areas.shape:
            raise ValueError("areas must match field member count")
        field.areas = areas.astype(np.float64).copy()
