"""Spectral velocity recovery from scalar vorticity and its consequences.

The velocity multiplier is i (xi_2, -xi_1) |xi|^(beta-2) acting on the
vorticity transform, with the perpendicular orientation fixed so that the
scalar curl of the recovered velocity reproduces the vorticity exactly at
beta = 0.  xi = 2 pi k / side are the domain's derivative wavenumbers, so
cos(xi x_1) maps to (0, xi^(beta-1) sin(xi x_1)) on either domain.  beta = 1
gives the surface quasi-geostrophic velocity; beta > 2 amplifies high
frequencies and is flagged rather than forbidden.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bands import besov_norm, decompose, spectral_gradient, vishik_norm
from .errors import NonPositiveArgument, NonZeroMean
from .field import GridField, _fourier_grid
from .growth import GrowthFunction, theta1, yudovich
from .kfunc import modulus_of_continuity


def biot_savart(omega: GridField, beta: float = 0.0) -> tuple[GridField, GridField]:
    """Velocity (v1, v2) with v_hat = i (xi_2, -xi_1) |xi|^(beta-2) w_hat.

    beta = 0 is the classical vorticity inversion (curl v = omega); the
    output is real and divergence-free by construction of the symbol.
    """
    if abs(float(omega.data.mean())) > 1e-10 * max(float(np.abs(omega.data).max()), 1e-300):
        raise NonZeroMean("vorticity must be mean-free (the zero mode has no velocity)")
    if beta > 2.0:
        # |xi|^(beta-1) at the Nyquist ring |xi| = pi / spacing: the gain of v over w there
        gain = (np.pi / omega.spacing) ** (beta - 1.0)
        warnings.warn(f"beta={beta:g} amplifies the top band by {gain:.3g}", UserWarning)
    _, _, xi1, xi2 = _fourier_grid(omega.n, omega.domain.side)
    rho = np.hypot(xi1, xi2)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = rho ** (beta - 2.0)
    # xi = 0 at the zero mode and at (n/2, 0), (0, n/2), (n/2, n/2)
    amp[rho == 0] = 0.0
    spec = np.fft.rfft2(omega.data)
    v1, v2 = (np.fft.irfft2(s * spec, s=omega.data.shape) for s in (1j * xi2 * amp, -1j * xi1 * amp))
    return GridField(v1, omega.domain), GridField(v2, omega.domain)


def czo_gradient(omega: GridField, beta: float = 0.0) -> dict:
    """The four spectral derivatives d_i v_j of the recovered velocity."""
    grads = [spectral_gradient(v) for v in biot_savart(omega, beta)]
    return {f"d{i + 1}v{j + 1}": grads[j][i] for i in range(2) for j in range(2)}


def curl(v1: GridField, v2: GridField) -> GridField:
    """d1 v2 - d2 v1 by spectral differentiation."""
    _, _, xi1, xi2 = _fourier_grid(v1.n, v1.domain.side)
    s1, s2 = np.fft.rfft2(v1.data), np.fft.rfft2(v2.data)
    w = np.fft.irfft2(1j * xi1 * s2 - 1j * xi2 * s1, s=v1.data.shape)
    return GridField(w, v1.domain)


def divergence_defect(v1: GridField, v2: GridField) -> float:
    """max |xi . v_hat(xi)| over the grid, normalized by the field scale."""
    _, _, xi1, xi2 = _fourier_grid(v1.n, v1.domain.side)
    s1, s2 = np.fft.rfft2(v1.data), np.fft.rfft2(v2.data)
    div = np.abs(xi1 * s1 + xi2 * s2)
    scale = max(float(np.abs(s1).max()), float(np.abs(s2).max()), 1e-300)
    return float(div.max()) / scale


# -- modulus-of-continuity envelope -------------------------------------------

@dataclass(frozen=True)
class ModulusEnvelope:
    h_samples: np.ndarray
    measured: np.ndarray
    envelope: np.ndarray
    fitted_c: float
    norm_reference: float
    norm_choice: str

    def rows(self):
        for h, m, e in zip(self.h_samples, self.measured, self.envelope):
            yield h, m, e, (m / e if e > 0 else np.inf)


def envelope_curve(g: GrowthFunction, h_samples, norm_reference: float, lift: bool = True) -> np.ndarray:
    """h * y(1/h) * norm with y taken for the lifted growth p * Theta(p)."""
    gg = theta1(g) if lift else g
    hs = np.asarray(h_samples, dtype=float)
    return hs * yudovich(gg, 1.0 / hs) * norm_reference


def modulus_envelope(
    omega: GridField,
    beta: float,
    g: GrowthFunction,
    norm_choice: str = "sharp_yudovich",
    p0: float = 4.0,
    lam: float = 0.25,
    h_samples=None,
    velocity: tuple[GridField, GridField] | None = None,
) -> ModulusEnvelope:
    """Measured velocity modulus against the growth-indexed envelope.

    The envelope is h * y(1/h) * N with y from the lifted growth when the
    oscillation-side norm is chosen (the classical pairing) and from the
    growth itself when the band-side norm is chosen; N is the corresponding
    norm of the vorticity.  fitted_c is the smallest constant making the
    envelope dominate the measured modulus on the sample set.  The default
    h samples run from the grid spacing to half the side.
    """
    from . import spaces

    if norm_choice not in ("sharp_yudovich", "vishik"):
        raise ValueError(f"unknown norm choice {norm_choice!r}")
    if norm_choice == "vishik" and not float(g(0.0)) > 0.0:
        # Theta is non-decreasing, so Pi(0) > 0 is what vishik_norm needs
        raise NonPositiveArgument(f"growth {g.name} has Pi(0) = {g(0.0):g}; the band norm divides by it")
    if velocity is None:
        velocity = biot_savart(omega, beta)
    v1, v2 = velocity
    if h_samples is None:
        h_samples = np.geomspace(v1.spacing, v1.domain.side / 2.0, 48)
    hs = np.asarray(h_samples, dtype=float)
    measured = modulus_of_continuity([v1.data, v2.data], v1.spacing, hs)

    if norm_choice == "sharp_yudovich":
        report = spaces.sharp_yudovich_norm(omega, g, p0=p0, lam=lam)
        norm_ref = report.direct_value
        env = envelope_curve(g, hs, norm_ref, lift=True)
    else:
        d = decompose(omega, warn_nyquist=False)
        norm_ref = vishik_norm(d, g, beta) + besov_norm(d, beta - 1.0)
        env = envelope_curve(g, hs, norm_ref, lift=False)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = measured / env
    ratios = ratios[np.isfinite(ratios)]
    fitted = float(ratios.max()) if len(ratios) else 0.0
    return ModulusEnvelope(
        h_samples=hs, measured=measured, envelope=env,
        fitted_c=fitted, norm_reference=norm_ref, norm_choice=norm_choice,
    )
