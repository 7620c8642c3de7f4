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
from .errors import InvalidExponent, NonPositiveArgument, NonZeroMean
from .field import GridField, _fourier_grid, rearrange, sharp_maximal
from .growth import _LOG_MAX, _R_MIN, GrowthFunction, theta1, yudovich
from .kfunc import _sup_finite_ratio, k_linf_lip


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
        if log_top + math.log(max(float(np.abs(spec).max()), 1.0)) > _LOG_MAX:
            raise InvalidExponent(f"beta={beta:g} amplifies the top band by e^{log_top:.4g}, past the floats")
        gain = math.exp((beta - 1.0) * log_nyquist)
        warnings.warn(f"beta={beta:g} amplifies the top band by {gain:.3g}", UserWarning)
    # xi = 0 at the zero mode and at (n/2, 0), (0, n/2), (n/2, n/2): amp 0 there
    amp = np.power(rho, beta - 2.0, out=np.zeros_like(rho), where=rho > 0)
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


def envelope_curve(g: GrowthFunction, h_samples, norm_reference: float) -> np.ndarray:
    """h * y(1/h) * N, y the Yudovich function of g as given (the caller lifts
    it) and N = norm_reference: NonPositiveArgument unless N is finite and >= 0
    and each h is finite and > 2^-1024, the least h whose 1/h is finite.  The
    caller chooses the pairing: modulus_envelope takes the sharp one; Vishik's
    is envelope_curve(g, k_linf_lip([v1, v2]).t_samples, vishik_norm(d, g, beta)
    + besov_norm(d, beta - 1.0)) with d = decompose(omega, warn_nyquist=False)."""
    if not (math.isfinite(norm_reference) and norm_reference >= 0.0):
        raise NonPositiveArgument(f"norm_reference must be finite and >= 0, got {norm_reference}")
    hs = np.asarray(h_samples, dtype=float)
    ok = (hs > _R_MIN) & (hs < np.inf)
    if not ok.all():
        raise NonPositiveArgument(f"h must be finite and > 0, with 1/h finite, got {hs[~ok][0]}")
    return hs * yudovich(g, 1.0 / hs) * norm_reference


def modulus_envelope(
    omega: GridField,
    beta: float,
    g: GrowthFunction,
    velocity: tuple[GridField, GridField] | None = None,
) -> ModulusEnvelope:
    """Measured velocity modulus (k_linf_lip's 48 h from the grid spacing to
    half the side) against envelope_curve(theta1(g), h, N), N taken before any
    velocity work: sup_p ||M omega||_p / Theta(p) over default_p_grid(4), M the
    sharp maximal function (sharp_yudovich_norm's direct value alone).  The
    velocity is biot_savart(omega, beta) unless given; fitted_c is the least
    constant making the envelope dominate the measured modulus there."""
    norm_ref = spaces._direct(rearrange(sharp_maximal(omega)), g, spaces._SHARP_P0)
    v1, v2 = biot_savart(omega, beta) if velocity is None else velocity
    curve = k_linf_lip([v1, v2])
    hs, measured = curve.t_samples, curve.k_values
    env = envelope_curve(theta1(g), hs, norm_ref)
    return ModulusEnvelope(h_samples=hs, measured=measured, envelope=env,
                           fitted_c=_sup_finite_ratio(measured, env), norm_reference=norm_ref)
