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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import spaces
from .bands import besov_norm, decompose, vishik_norm
from .errors import InvalidArgument, InvalidExponent, NonPositiveArgument, NonZeroMean
from .field import GridField, _fourier_grid
from .growth import _R_MIN, GrowthFunction, theta1, yudovich
from .kfunc import _h_grid, _sup_finite_ratio, modulus_of_continuity

_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def biot_savart(omega: GridField, beta: float = 0.0) -> tuple[GridField, GridField]:
    """Velocity (v1, v2) with v_hat = i (xi_2, -xi_1) |xi|^(beta-2) w_hat.

    beta = 0 is the classical vorticity inversion (curl v = omega); the
    output is real and divergence-free by construction of the symbol.  A
    beta that is not finite, or one whose gain |xi|^(beta-1) times the
    largest |w_hat| passes the float range on this grid, raises
    InvalidExponent.
    """
    if not math.isfinite(beta):
        raise InvalidExponent(f"beta must be finite, got {beta}")
    if abs(float(omega.data.mean())) > 1e-10 * max(float(np.abs(omega.data).max()), 1e-300):
        raise NonZeroMean("vorticity must be mean-free (the zero mode has no velocity)")
    _, _, xi1, xi2 = _fourier_grid(omega.n, omega.domain.side)
    rho = np.hypot(xi1, xi2)
    spec = np.fft.rfft2(omega.data)
    if beta > 2.0:
        # the gain |xi|^(beta-1) of v over w, in logs: the warning reads it at
        # the Nyquist ring |xi| = pi / spacing, the range check at the largest
        # |xi| of either, times the largest |w_hat| (at least 1)
        log_nyquist = math.log(np.pi / omega.spacing)
        log_top = (beta - 1.0) * max(log_nyquist, math.log(float(rho.max())))
        if log_top + math.log(max(float(np.abs(spec).max()), 1.0)) > _LOG_FLOAT_MAX:
            raise InvalidExponent(f"beta={beta:g} amplifies the top band by e^{log_top:.4g}, past the floats")
        gain = math.exp((beta - 1.0) * log_nyquist)
        warnings.warn(f"beta={beta:g} amplifies the top band by {gain:.3g}", UserWarning)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = rho ** (beta - 2.0)
    # xi = 0 at the zero mode and at (n/2, 0), (0, n/2), (n/2, n/2)
    amp[rho == 0] = 0.0
    v1, v2 = (np.fft.irfft2(s * spec, s=omega.data.shape) for s in (1j * xi2 * amp, -1j * xi1 * amp))
    return GridField(v1, omega.domain), GridField(v2, omega.domain)


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


def envelope_curve(g: GrowthFunction, h_samples, norm_reference: float, lift: bool = True) -> np.ndarray:
    """h * y(1/h) * norm with y taken for the lifted growth p * Theta(p).
    NonPositiveArgument unless norm_reference is finite and >= 0 and each h
    is finite and > 2^-1024, the least h whose 1/h is finite."""
    if not (math.isfinite(norm_reference) and norm_reference >= 0.0):
        raise NonPositiveArgument(f"norm_reference must be finite and >= 0, got {norm_reference}")
    gg = theta1(g) if lift else g
    hs = np.asarray(h_samples, dtype=float)
    ok = (hs > _R_MIN) & (hs < np.inf)
    if not ok.all():
        raise NonPositiveArgument(f"h must be finite and > 0, with 1/h finite, got {hs[~ok][0]}")
    return hs * yudovich(gg, 1.0 / hs) * norm_reference


def modulus_envelope(
    omega: GridField,
    beta: float,
    g: GrowthFunction,
    norm_choice: str = "sharp_yudovich",
    velocity: tuple[GridField, GridField] | None = None,
) -> ModulusEnvelope:
    """Measured velocity modulus against the growth-indexed envelope.

    The envelope is h * y(1/h) * N with y from the lifted growth when the
    oscillation-side norm is chosen (the classical pairing) and from the
    growth itself when the band-side norm is chosen; N, taken before any
    velocity work, is sharp_yudovich_norm's direct value at its fixed p0 = 4
    and lambda = 1/4, or the Vishik plus Besov band sums.  fitted_c is the
    smallest constant making the envelope dominate the measured modulus on
    the sample set: the 48-point h grid from the grid spacing to half the side.
    """
    if norm_choice == "sharp_yudovich":
        norm_ref = spaces.sharp_yudovich_norm(omega, g).direct_value
    elif norm_choice == "vishik":
        d = decompose(omega, warn_nyquist=False)
        norm_ref = vishik_norm(d, g, beta) + besov_norm(d, beta - 1.0)
    else:
        raise InvalidArgument(f"unknown norm choice {norm_choice!r}")
    if velocity is None:
        velocity = biot_savart(omega, beta)
    v1, v2 = velocity
    hs = _h_grid(v1)
    measured = modulus_of_continuity([v1.data, v2.data], v1.spacing, hs)
    env = envelope_curve(g, hs, norm_ref, lift=norm_choice == "sharp_yudovich")
    return ModulusEnvelope(
        h_samples=hs, measured=measured, envelope=env,
        fitted_c=_sup_finite_ratio(measured, env), norm_reference=norm_ref, norm_choice=norm_choice,
    )
