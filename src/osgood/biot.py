"""Spectral velocity recovery from scalar vorticity and its consequences.

The velocity multiplier is i (xi_2, -xi_1) |xi|^(beta-2) acting on the
vorticity transform, with the perpendicular orientation fixed so that the
scalar curl of the recovered velocity reproduces the vorticity exactly at
beta = 0.  beta = 1 gives the surface quasi-geostrophic velocity; beta > 2
amplifies high frequencies and is flagged rather than forbidden.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonZeroMean
from .field import Domain, GridField
from .growth import GrowthFunction, theta1, yudovich
from .kfunc import modulus_of_continuity


def _wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers of an n-point grid (n even) with the Nyquist one
    set to 0: the derivative of a real trigonometric interpolant has no
    Nyquist component."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return k


@dataclass(frozen=True)
class SpectralOperator:
    """Frequency-side description of the velocity map for one beta."""

    beta: float
    n: int

    def wavenumbers(self):
        k = _wavenumbers(self.n)
        return k[:, None] * np.ones((1, self.n)), np.ones((self.n, 1)) * k[None, :]

    def symbol(self):
        """(S1, S2) with v_hat = (S1, S2) * w_hat; zero where xi = 0, which
        is the zero mode and the modes (n/2, 0), (0, n/2), (n/2, n/2)."""
        k1, k2 = self.wavenumbers()
        rho = np.hypot(k1, k2)
        with np.errstate(divide="ignore", invalid="ignore"):
            amp = rho ** (self.beta - 2.0)
        amp[rho == 0] = 0.0
        return 1j * k2 * amp, -1j * k1 * amp

    def top_band_amplification(self) -> float:
        """|xi|^(beta-1) at the Nyquist ring: the gain of v over w there."""
        return float((self.n / 2.0) ** (self.beta - 1.0))


def _check_mean_free(omega: GridField) -> None:
    scale = max(float(np.abs(omega.data).max()), 1e-300)
    if abs(float(omega.data.mean())) > 1e-10 * scale:
        raise NonZeroMean("vorticity must be mean-free (the zero mode has no velocity)")


def biot_savart(omega: GridField, beta: float = 0.0) -> tuple[GridField, GridField]:
    """Velocity (v1, v2) with v_hat = i (xi_2, -xi_1) |xi|^(beta-2) w_hat.

    beta = 0 is the classical vorticity inversion (curl v = omega); the
    output is real and divergence-free by construction of the symbol.
    """
    _check_mean_free(omega)
    op = SpectralOperator(beta=beta, n=omega.n)
    if beta > 2.0:
        warnings.warn(
            f"beta={beta:g} amplifies the top band by {op.top_band_amplification():.3g}",
            UserWarning,
        )
    s1, s2 = op.symbol()
    spec = np.fft.fft2(omega.data)
    v1 = np.fft.ifft2(s1 * spec).real
    v2 = np.fft.ifft2(s2 * spec).real
    return GridField(v1, omega.domain), GridField(v2, omega.domain)


def czo_gradient(omega: GridField, beta: float = 0.0) -> dict:
    """The four spectral derivatives d_i v_j of the recovered velocity."""
    _check_mean_free(omega)
    op = SpectralOperator(beta=beta, n=omega.n)
    s1, s2 = op.symbol()
    k1, k2 = op.wavenumbers()
    spec = np.fft.fft2(omega.data)
    out = {}
    for (i, ki) in (("1", k1), ("2", k2)):
        for (j, sj) in (("1", s1), ("2", s2)):
            out[f"d{i}v{j}"] = GridField(np.fft.ifft2(1j * ki * sj * spec).real, omega.domain)
    return out


def curl(v1: GridField, v2: GridField) -> GridField:
    """d1 v2 - d2 v1 by spectral differentiation."""
    k = _wavenumbers(v1.n)
    s1 = np.fft.fft2(v1.data)
    s2 = np.fft.fft2(v2.data)
    w = np.fft.ifft2(1j * k[:, None] * s2 - 1j * k[None, :] * s1).real
    return GridField(w, v1.domain)


def divergence_defect(v1: GridField, v2: GridField) -> float:
    """max |xi . v_hat(xi)| over the grid, normalized by the field scale."""
    k = _wavenumbers(v1.n)
    s1 = np.fft.fft2(v1.data)
    s2 = np.fft.fft2(v2.data)
    div = np.abs(k[:, None] * s1 + k[None, :] * s2)
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
    envelope dominate the measured modulus on the sample set.
    """
    from . import spaces
    from .bands import besov_norm, decompose, vishik_norm

    if velocity is None:
        velocity = biot_savart(omega, beta)
    v1, v2 = velocity
    if h_samples is None:
        h_samples = np.geomspace(v1.spacing, np.pi, 48)
    hs = np.asarray(h_samples, dtype=float)
    measured = modulus_of_continuity([v1.data, v2.data], v1.spacing, hs)

    if norm_choice == "sharp_yudovich":
        report = spaces.sharp_yudovich_norm(omega, g, p0=p0, lam=lam)
        norm_ref = report.direct_value
        env = envelope_curve(g, hs, norm_ref, lift=True)
    elif norm_choice == "vishik":
        d = decompose(omega, warn_nyquist=False)
        norm_ref = vishik_norm(d, g, beta) + besov_norm(d, beta - 1.0)
        env = envelope_curve(g, hs, norm_ref, lift=False)
    else:
        raise ValueError(f"unknown norm choice {norm_choice!r}")

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = measured / env
    ratios = ratios[np.isfinite(ratios)]
    fitted = float(ratios.max()) if len(ratios) else 0.0
    return ModulusEnvelope(
        h_samples=hs, measured=measured, envelope=env,
        fitted_c=fitted, norm_reference=norm_ref, norm_choice=norm_choice,
    )
