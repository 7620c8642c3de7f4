"""Exactness gates for the rfft2 half-plane Fourier grid.

The band multipliers must equal the full-grid ones restricted to the
half-plane bit for bit, and every spectral routine must agree with a
full-grid complex fft2 / ifft2 computation, kept here as an independent
reference, on the side-2*pi torus (where xi = k).
"""

import numpy as np
import pytest

from osgood.bands import BandFilter, band_profile, decompose, spectral_gradient
from osgood.biot import biot_savart, curl, czo_gradient, divergence_defect
from osgood.field import Domain, GridField

TOL = 1e-13


def full_spectrum(n, seed, mean_free=False):
    data = np.random.default_rng(seed).standard_normal((n, n))
    return GridField(data - data.mean() if mean_free else data, Domain.TORUS_2PI)


# -- full-grid references -------------------------------------------------------

def _full_wavenumbers(n, drop_nyquist=True):
    k = np.fft.fftfreq(n, d=1.0 / n)
    if drop_nyquist:
        k[n // 2] = 0.0
    return k[:, None] * np.ones((1, n)), np.ones((n, 1)) * k[None, :]


def _full_symbol(n, beta):
    k1, k2 = _full_wavenumbers(n)
    rho = np.hypot(k1, k2)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = rho ** (beta - 2.0)
    amp[rho == 0] = 0.0
    return k1, k2, 1j * k2 * amp, -1j * k1 * amp


def _full_inverse(spec):
    return np.fft.ifft2(spec).real


def reference_biot_savart(w, beta):
    _, _, s1, s2 = _full_symbol(w.shape[0], beta)
    spec = np.fft.fft2(w)
    return _full_inverse(s1 * spec), _full_inverse(s2 * spec)


def reference_czo_gradient(w, beta):
    k1, k2, s1, s2 = _full_symbol(w.shape[0], beta)
    spec = np.fft.fft2(w)
    return {f"d{i}v{j}": _full_inverse(1j * ki * sj * spec)
            for i, ki in (("1", k1), ("2", k2)) for j, sj in (("1", s1), ("2", s2))}


def reference_curl(v1, v2):
    k1, k2 = _full_wavenumbers(v1.shape[0])
    return _full_inverse(1j * k1 * np.fft.fft2(v2) - 1j * k2 * np.fft.fft2(v1))


def reference_divergence_defect(v1, v2):
    k1, k2 = _full_wavenumbers(v1.shape[0])
    s1, s2 = np.fft.fft2(v1), np.fft.fft2(v2)
    return np.abs(k1 * s1 + k2 * s2).max() / max(np.abs(s1).max(), np.abs(s2).max())


def reference_spectral_gradient(f):
    # integer wavenumbers, Nyquist kept: taking the real part drops it anyway
    k1, k2 = _full_wavenumbers(f.shape[0], drop_nyquist=False)
    spec = np.fft.fft2(f)
    return _full_inverse(1j * k1 * spec), _full_inverse(1j * k2 * spec)


def _full_multipliers(n):
    k1, k2 = _full_wavenumbers(n, drop_nyquist=False)
    rho = np.hypot(k1, k2)
    return [band_profile(rho / 2.0 ** j) for j in BandFilter(n).band_range()]


def reference_decompose(f):
    spec = np.fft.fft2(f - f.mean())
    return [(j, _full_inverse(spec * m)) for j, m in zip(BandFilter(f.shape[0]).band_range(),
                                                          _full_multipliers(f.shape[0])) if m.any()]


# -- (a) multipliers ----------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
def test_multipliers_are_the_half_plane_of_the_full_grid(n):
    expect = np.stack([m[:, : n // 2 + 1] for m in _full_multipliers(n)])
    assert np.array_equal(BandFilter(n).multipliers(), expect)


# -- (b) spectral routines against the full-grid references -------------------------------

@pytest.mark.parametrize("n", [8, 64])
def test_decompose_matches_full_grid(n):
    f = full_spectrum(n, seed=n)
    got = decompose(f, warn_nyquist=False).bands
    expect = reference_decompose(f.data)
    assert [j for j, _ in got] == [j for j, _ in expect]
    for (_, b), (_, e) in zip(got, expect):
        assert np.abs(b.data - e).max() <= TOL * np.abs(f.data).max()


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
@pytest.mark.parametrize("n", [8, 64])
def test_biot_savart_matches_full_grid(n, beta):
    w = full_spectrum(n, seed=n + 1, mean_free=True)
    for v, e in zip(biot_savart(w, beta), reference_biot_savart(w.data, beta)):
        assert np.abs(v.data - e).max() <= TOL * np.abs(w.data).max()


@pytest.mark.parametrize("beta", [0.0, 1.0, 1.5])
def test_czo_gradient_matches_full_grid(beta):
    w = full_spectrum(64, seed=2, mean_free=True)
    got, expect = czo_gradient(w, beta), reference_czo_gradient(w.data, beta)
    assert set(got) == set(expect)
    for key in expect:
        assert np.abs(got[key].data - expect[key]).max() <= TOL * np.abs(w.data).max()


@pytest.mark.parametrize("n", [8, 64])
def test_curl_and_divergence_match_full_grid(n):
    v1, v2 = full_spectrum(n, seed=3 * n), full_spectrum(n, seed=3 * n + 1)
    scale = max(np.abs(v1.data).max(), np.abs(v2.data).max())
    assert np.abs(curl(v1, v2).data - reference_curl(v1.data, v2.data)).max() <= TOL * scale
    expect = reference_divergence_defect(v1.data, v2.data)
    assert divergence_defect(v1, v2) == pytest.approx(expect, rel=TOL)


@pytest.mark.parametrize("n", [8, 64])
def test_spectral_gradient_matches_full_grid(n):
    f = full_spectrum(n, seed=5 * n)
    for g, e in zip(spectral_gradient(f), reference_spectral_gradient(f.data)):
        assert np.abs(g.data - e).max() <= TOL * np.abs(f.data).max()
