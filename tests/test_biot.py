import numpy as np
import pytest

from osgood.biot import biot_savart, curl, czo_gradient, divergence_defect, modulus_envelope
from osgood.field import Domain, GridField
from osgood.growth import GrowthFunction


def full_spectrum_vorticity(n, seed):
    """Mean-free random field with content on every mode, the Nyquist lines
    included, except (n/2, 0), (0, n/2) and (n/2, n/2): both spectral
    derivatives vanish there, so no grid velocity has curl on them."""
    spec = np.fft.fft2(np.random.default_rng(seed).standard_normal((n, n)))
    h = n // 2
    spec[0, 0] = spec[h, 0] = spec[0, h] = spec[h, h] = 0.0
    return GridField(np.fft.ifft2(spec).real, Domain.TORUS_2PI)


@pytest.mark.parametrize("n", [8, 32, 128])
def test_curl_inverts_biot_savart(n):
    w = full_spectrum_vorticity(n, seed=n)
    err = np.abs(curl(*biot_savart(w)).data - w.data).max()
    assert err <= 1e-12 * np.abs(w.data).max()


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_divergence_free(beta):
    v1, v2 = biot_savart(full_spectrum_vorticity(64, seed=1), beta)
    assert divergence_defect(v1, v2) <= 1e-12


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_czo_gradient_trace_vanishes(beta):
    w = full_spectrum_vorticity(64, seed=2)
    g = czo_gradient(w, beta)
    scale = max(np.abs(d.data).max() for d in g.values())
    assert np.abs(g["d1v1"].data + g["d2v2"].data).max() <= 1e-12 * scale


def test_envelope_dominates_measured_modulus():
    w = full_spectrum_vorticity(32, seed=3)
    env = modulus_envelope(w, 0.0, GrowthFunction.power(1.0))
    assert np.all(env.envelope > 0)
    # fitted_c is the largest measured/envelope ratio: the scaled envelope
    # dominates everywhere and touches the measured modulus somewhere
    scaled = env.fitted_c * env.envelope
    assert np.all(scaled >= env.measured * (1.0 - 1e-12))
    assert np.any(np.isclose(scaled, env.measured, rtol=1e-12))
