import re

import numpy as np
import pytest

from osgood import biot
from osgood.biot import biot_savart, curl, czo_gradient, divergence_defect, modulus_envelope
from osgood.errors import NonPositiveArgument
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


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("domain", [Domain.TORUS_2PI, Domain.UNIT_TORUS])
def test_velocity_scaling_law(domain, beta):
    # cos(xi x1) with xi = 2 pi m / side maps to (0, xi^(beta-1) sin(xi x1));
    # beta = 1 is the SQG velocity, of the same size as the vorticity
    n, m = 32, 3
    xi = 2.0 * np.pi * m / domain.side
    x1 = (np.arange(n) * domain.side / n)[:, None] * np.ones((1, n))
    v1, v2 = biot_savart(GridField(np.cos(xi * x1), domain), beta)
    amp = xi ** (beta - 1.0)
    assert np.abs(v1.data).max() <= 1e-12 * amp
    assert np.abs(v2.data - amp * np.sin(xi * x1)).max() <= 1e-12 * amp


@pytest.mark.parametrize("domain, gain", [(Domain.TORUS_2PI, "64"), (Domain.UNIT_TORUS, "2.53e+03")])
def test_top_band_gain_warning(domain, gain):
    # |xi|^(beta-1) at the Nyquist ring |xi| = pi / spacing, here beta = 3, n = 16
    with pytest.warns(UserWarning, match=re.escape(f"by {gain}") + "$"):
        biot_savart(GridField(np.zeros((16, 16)), domain), 3.0)


def test_envelope_checks_arguments_before_measuring(monkeypatch):
    def measured(*args, **kwargs):
        raise AssertionError("modulus measured before the arguments were checked")

    monkeypatch.setattr(biot, "modulus_of_continuity", measured)
    w = full_spectrum_vorticity(16, seed=4)
    with pytest.raises(ValueError, match="unknown norm choice"):
        modulus_envelope(w, 0.0, GrowthFunction.power(1.0, shift=1.0), norm_choice="besov")
    # Pi(0) = 0 for the unshifted power growth
    with pytest.raises(NonPositiveArgument):
        modulus_envelope(w, 0.0, GrowthFunction.power(1.0), norm_choice="vishik")


def test_default_h_samples_follow_the_domain():
    w = full_spectrum_vorticity(16, seed=5)
    g = GrowthFunction.power(1.0)
    assert modulus_envelope(w, 0.0, g).h_samples[-1] == np.pi
    unit = modulus_envelope(w.as_domain(Domain.UNIT_TORUS), 0.0, g)
    assert unit.h_samples[0] == 1.0 / 16 and unit.h_samples[-1] == 0.5
