"""The paper's mechanism: Osgood's lemma bounds how far two particles
separate.

Two trajectories of u at distance delta obey delta' <= |u(X) - u(Y)|
<= sqrt(2) omega(delta), omega the largest modulus of u's two components,
so delta(t) stays below the comparison solution psi' = sqrt(2) omega(psi),
psi(0) = delta(0).  The flow here is test-local: the velocity's
trigonometric interpolant moved by RK4.  omega is taken in two tiers:

- measured: the grid modulus of u on its 48 h samples, read on (h_i, h_i+1]
  at h_i+1, so it is a step above the sampled curve; below the first sample
  (one spacing) the largest central-difference gradient times h, and past
  the last (half the side) the oscillation max - min;
- envelope: fitted_c * h y(1/h) * norm_reference from modulus_envelope, the
  Yudovich bound the uniqueness argument runs through.

The interpolant can exceed the grid modulus between grid points; no slack
is added for it.  delta <= psi is asserted at every step, the first ones
included, where delta / psi is nearest 1.
"""

import math

import numpy as np
import pytest

from osgood.biot import biot_savart, envelope_curve, modulus_envelope
from osgood.field import Domain, GridField
from osgood.growth import GrowthFunction

N, PAIRS, STEPS = 32, 50, 200


def log_patch(domain, alpha):
    """|log rho|^(1 + alpha), rho the distance to the centre over the side,
    floored at half a cell, mean removed: the same samples on either domain."""
    x = (np.arange(N) - N // 2) / N
    rho = np.maximum(np.hypot(x[:, None], x[None, :]), 0.5 / N)
    w = np.abs(np.log(rho)) ** (1.0 + alpha)
    return GridField(w - w.mean(), domain)


def interpolant(comps, side):
    """Points (m, 2) -> the trigonometric interpolant of the grid components
    there, (m, len(comps)); the Nyquist mode is read as its cosine, so the
    interpolant is real and meets the samples at the grid points."""
    n = comps[0].shape[0]
    coef = np.fft.fft2(np.stack(comps)) / n**2
    k = np.fft.fftfreq(n, 1.0 / n)

    def basis(x):
        e = np.exp((2j * np.pi / side) * np.outer(x, k))
        e[:, n // 2] = np.cos((np.pi * n / side) * x)
        return e

    return lambda p: np.einsum("mi,cij,mj->mc", basis(p[:, 0]), coef, basis(p[:, 1])).real


def largest_separation(u, side, speed, delta0, seed):
    """max over PAIRS pairs of |X(t) - Y(t)|, at STEPS + 1 times up to
    T = side / (2 max |u|), one RK4 step apart; pairs start delta0 apart."""
    dt = 0.5 * side / speed / STEPS
    rng = np.random.default_rng(seed)
    start = rng.random((PAIRS, 2)) * side
    angle = rng.random(PAIRS) * 2.0 * np.pi
    z = np.concatenate([start, start + delta0 * np.stack([np.cos(angle), np.sin(angle)], axis=1)])
    seps = [delta0]
    for _ in range(STEPS):
        k1 = u(z)
        k2 = u(z + 0.5 * dt * k1)
        k3 = u(z + 0.5 * dt * k2)
        k4 = u(z + dt * k3)
        z = z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        seps.append(np.hypot(*(z[:PAIRS] - z[PAIRS:]).T).max())
    return dt * np.arange(STEPS + 1), np.array(seps)


def comparison(rs, omega, ts):
    """psi(ts) for psi' = sqrt(2) omega(psi), psi(0) = rs[0], omega sampled
    on rs and read through its running maximum, as a modulus is
    non-decreasing: the time to reach rs[k], summed with omega at each
    interval's left end, is an upper sum, and psi stops at rs[-1], so psi is
    read low."""
    omega = np.maximum.accumulate(omega)
    to_reach = np.concatenate([[0.0], np.cumsum(np.diff(rs) / (math.sqrt(2.0) * omega[:-1]))])
    return np.interp(ts, to_reach, rs)


@pytest.mark.parametrize("alpha", [0.0, 1.0])
@pytest.mark.parametrize("domain", [Domain.UNIT_TORUS, Domain.TORUS_2PI])
def test_separation_stays_below_the_osgood_comparison(domain, alpha):
    w, g = log_patch(domain, alpha), GrowthFunction.power(alpha)
    v = biot_savart(w)
    env = modulus_envelope(w, 0.0, g, velocity=v)
    side, spacing = domain.side, w.spacing
    comps = [c.data for c in v]
    delta0 = spacing / 2.0
    ts, seps = largest_separation(
        interpolant(comps, side), side, float(np.hypot(*comps).max()), delta0, seed=int(10 * alpha))

    rs = np.geomspace(delta0, side, 20001)
    hs, measured = env.h_samples, env.measured
    gradient = max(np.hypot(*np.gradient(c, spacing)).max() for c in comps)
    oscillation = max(float(np.ptp(c)) for c in comps)
    step_above = np.append(measured, oscillation)[np.searchsorted(hs, rs)]
    tiers = {
        "measured": np.where(rs <= hs[0], gradient * rs, step_above),
        "envelope": env.fitted_c * envelope_curve(g, rs, env.norm_reference),
    }
    for name, omega in tiers.items():
        ratio = seps / comparison(rs, omega, ts)
        assert ratio.max() <= 1.0, (name, ratio.max())
        # the pairs do separate: the bound is not met by standing still
        assert seps[-1] > 2.0 * delta0
