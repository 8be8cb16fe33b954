"""Slow per-field reference for the batched electrostatic kernel.

This is the density model as it was written before the fields were
batched: one ``np.add.at`` deposit, one DCT Poisson solve (with the
spectral denominator rebuilt on every call) and one bilinear gather per
field, in a Python loop.  It is a test-only oracle: the batched kernel in
:mod:`repro.placement.density` must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft

from repro.placement.density import _FIELD_SITE, DensityField, ElectrostaticSystem


class ReferenceElectrostaticSystem(ElectrostaticSystem):
    """:class:`ElectrostaticSystem` with the per-field loop kernels."""

    def _deposit(
        self, field: DensityField, x: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        mx = x[field.members] / self.bin_w - 0.5
        my = y[field.members] / self.bin_h - 0.5
        mx = np.clip(mx, 0.0, self.bins - 1.0 - 1e-9)
        my = np.clip(my, 0.0, self.bins - 1.0 - 1e-9)
        ix = mx.astype(np.int64)
        iy = my.astype(np.int64)
        fx = mx - ix
        fy = my - iy

        density = np.zeros((self.bins, self.bins))
        a = field.areas
        np.add.at(density, (ix, iy), a * (1 - fx) * (1 - fy))
        np.add.at(density, (ix + 1, iy), a * fx * (1 - fy))
        np.add.at(density, (ix, iy + 1), a * (1 - fx) * fy)
        np.add.at(density, (ix + 1, iy + 1), a * fx * fy)
        return density, ix, iy, fx, fy

    def _solve_poisson(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.bins
        rho_hat = sp_fft.dctn(rho, type=2, norm="ortho")
        kx = np.pi * np.arange(n) / n
        ky = np.pi * np.arange(n) / n
        denom = (
            (2.0 - 2.0 * np.cos(kx))[:, None] / (self.bin_w**2)
            + (2.0 - 2.0 * np.cos(ky))[None, :] / (self.bin_h**2)
        )
        denom[0, 0] = 1.0
        phi_hat = rho_hat / denom
        phi_hat[0, 0] = 0.0
        phi = sp_fft.idctn(phi_hat, type=2, norm="ortho")
        ex = np.zeros_like(phi)
        ey = np.zeros_like(phi)
        ex[1:-1, :] = (phi[:-2, :] - phi[2:, :]) / (2.0 * self.bin_w)
        ex[0, :] = (phi[0, :] - phi[1, :]) / self.bin_w
        ex[-1, :] = (phi[-2, :] - phi[-1, :]) / self.bin_w
        ey[:, 1:-1] = (phi[:, :-2] - phi[:, 2:]) / (2.0 * self.bin_h)
        ey[:, 0] = (phi[:, 0] - phi[:, 1]) / self.bin_h
        ey[:, -1] = (phi[:, -2] - phi[:, -1]) / self.bin_h
        return phi, ex, ey

    def _gather(self, field, x, y):
        density, ix, iy, fx, fy = self._deposit(field, x, y)
        scale = field.total_area / max(field.total_capacity, 1e-12)
        rho = density - field.capacity * scale
        phi, ex, ey = self._solve_poisson(rho)
        exm = (
            ex[ix, iy] * (1 - fx) * (1 - fy)
            + ex[ix + 1, iy] * fx * (1 - fy)
            + ex[ix, iy + 1] * (1 - fx) * fy
            + ex[ix + 1, iy + 1] * fx * fy
        )
        eym = (
            ey[ix, iy] * (1 - fx) * (1 - fy)
            + ey[ix + 1, iy] * fx * (1 - fy)
            + ey[ix, iy + 1] * (1 - fx) * fy
            + ey[ix + 1, iy + 1] * fx * fy
        )
        return rho, phi, exm, eym

    def overflow(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        result: dict[str, float] = {}
        for name, field in self.fields.items():
            total = field.areas.sum()
            if total <= 0:
                result[name] = 0.0
                continue
            if name != "CLB":
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
        energies: dict[str, float] = {}
        force_x = np.zeros(self.design.num_instances)
        force_y = np.zeros(self.design.num_instances)
        for name, field in self.fields.items():
            weight = 1.0 if field_weights is None else field_weights.get(name, 1.0)
            rho, phi, exm, eym = self._gather(field, x, y)
            energies[name] = float(0.5 * (rho * phi).sum())
            np.add.at(force_x, field.members, weight * field.areas * exm)
            np.add.at(force_y, field.members, weight * field.areas * eym)
        return energies, force_x, force_y

    def field_force_norms(self, x: np.ndarray, y: np.ndarray) -> dict[str, float]:
        norms: dict[str, float] = {}
        for name, field in self.fields.items():
            _, _, exm, eym = self._gather(field, x, y)
            fx_m = field.areas * exm
            fy_m = field.areas * eym
            norms[name] = float(np.sqrt(np.mean(fx_m**2 + fy_m**2)) + 1e-12)
        return norms
