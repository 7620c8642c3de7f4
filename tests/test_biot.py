import re
import warnings

import numpy as np
import pytest

from osgood import biot
from osgood.bands import spectral_gradient
from osgood.biot import biot_savart, curl, divergence_defect, envelope_curve, modulus_envelope
from osgood.errors import InvalidExponent, NonPositiveArgument
from osgood.field import Domain, GridField
from osgood.growth import GrowthFunction
from osgood.spaces import sharp_yudovich_norm


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
    (d1v1, d2v1), (d1v2, d2v2) = (spectral_gradient(v) for v in biot_savart(w, beta))
    scale = max(np.abs(d.data).max() for d in (d1v1, d2v1, d1v2, d2v2))
    assert np.abs(d1v1.data + d2v2.data).max() <= 1e-12 * scale


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


def test_nan_beta_is_an_invalid_exponent():
    # it once raised "field samples must be finite" about its own nan velocity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidExponent, match="beta must be finite"):
            biot_savart(full_spectrum_vorticity(16, seed=7), np.nan)


def test_beta_past_the_float_range_is_an_invalid_exponent():
    # the warning's gain (pi / spacing)^(beta - 1) once raised an untyped
    # OverflowError; it is taken in logs, and a gain past the floats is refused
    # before any warning or velocity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidExponent, match="past the floats"):
            biot_savart(full_spectrum_vorticity(16, seed=7), 1e300)


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


def test_envelope_norm_is_the_sharp_report_and_comes_first(monkeypatch):
    w = full_spectrum_vorticity(16, seed=6)
    g = GrowthFunction.power(1.0)
    assert modulus_envelope(w, 0.0, g).norm_reference == sharp_yudovich_norm(w, g).direct_value

    def velocity(*args, **kwargs):
        raise AssertionError("velocity computed before the band norm")

    monkeypatch.setattr(biot, "biot_savart", velocity)
    with pytest.raises(NonPositiveArgument, match=re.escape("growth p^1 has Pi(0) = 0; the band norm divides by it")):
        modulus_envelope(w, 0.0, g, norm_choice="vishik")


@pytest.mark.parametrize("h", [0.0, -1.0, np.nan, np.inf, [0.5, 0.0]])
def test_envelope_curve_needs_finite_positive_h(h):
    # h = 0 once warned "divide by zero" in 1 / h
    with pytest.raises(NonPositiveArgument, match="h must be finite and > 0"):
        envelope_curve(GrowthFunction.power(1.0), h, 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("norm", [np.nan, -np.inf, np.inf, -1.0])
def test_envelope_curve_needs_finite_nonnegative_norm(norm):
    # nan and -inf came back as nan and -inf envelopes, -1 as a negative one
    with pytest.raises(NonPositiveArgument, match="norm_reference must be finite and >= 0"):
        envelope_curve(GrowthFunction.power(1.0), [0.1, 1.0], norm)
    assert np.array_equal(envelope_curve(GrowthFunction.power(1.0), [0.1, 1.0], 0.0), [0.0, 0.0])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_envelope_curve_h_whose_reciprocal_overflows():
    # 1 / 5e-324 warned "overflow encountered in divide"; 1/h is finite
    # exactly for h > 2^-1024
    g = GrowthFunction.power(1.0)
    for h in (5e-324, 2.0**-1024):
        with pytest.raises(NonPositiveArgument, match="1/h finite"):
            envelope_curve(g, [h, 0.5], 1.0)
    assert np.isfinite(envelope_curve(g, np.nextafter(2.0**-1024, 1.0), 1.0)).all()


def test_default_h_samples_follow_the_domain():
    w = full_spectrum_vorticity(16, seed=5)
    g = GrowthFunction.power(1.0)
    assert modulus_envelope(w, 0.0, g).h_samples[-1] == np.pi
    unit = modulus_envelope(w.as_domain(Domain.UNIT_TORUS), 0.0, g)
    assert unit.h_samples[0] == 1.0 / 16 and unit.h_samples[-1] == 0.5


def log_patch(n, alpha):
    """|log rho|^(1 + alpha) about the centre of the 2 pi torus, rho floored at
    half a cell (the centre is a grid point), mean removed."""
    x = np.arange(n) * (2.0 * np.pi / n)
    rho = np.hypot(x[:, None] - np.pi, x[None, :] - np.pi)
    w = np.abs(np.log(np.maximum(rho, np.pi / n))) ** (1.0 + alpha)
    return GridField(w - w.mean(), Domain.TORUS_2PI)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_envelope_constant_settles_under_refinement(alpha):
    # the velocity modulus is at most C h y(1/h) ||omega|| with C independent
    # of the grid: the fitted constant for Theta = p^alpha changes by less than
    # 6 % per doubling of n, and by less at the second doubling than the first
    c = [modulus_envelope(log_patch(n, alpha), 0.0, GrowthFunction.power(alpha)).fitted_c for n in (32, 64, 128)]
    first, second = abs(c[1] / c[0] - 1.0), abs(c[2] / c[1] - 1.0)
    assert first < 0.06 and second < 0.06
    assert second < first


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_vishik_reference_grows_like_log_n(alpha):
    # expected, not a defect: the band norms of |log rho| are of order 1 in
    # every band, so the Vishik sum over the log2(n) bands a grid resolves,
    # and with it the norm, gains about the same amount (0.6 to 0.74 here)
    # at each doubling of n, for Theta = (p+1)^alpha
    g = GrowthFunction.power(alpha, shift=1.0)
    ref = [modulus_envelope(log_patch(n, alpha), 0.0, g, norm_choice="vishik").norm_reference
           for n in (32, 64, 128)]
    assert np.all((np.diff(ref) > 0.5) & (np.diff(ref) < 0.8))
