import warnings

import numpy as np
import pytest

from osgood.bands import (
    BandFilter,
    band_inequality_checks,
    band_bmo_comparison,
    band_profile,
    besov_norm,
    decompose,
    spectral_gradient,
    thmve_equivalence_report,
    vishik_norm,
)
from osgood.errors import AliasRisk, NonPositiveArgument
from osgood.field import Domain, GridField
from osgood.growth import GrowthFunction
from osgood.kfunc import BandSequence

rng = np.random.default_rng(42)
CONST = GrowthFunction.constant(1.0, p0=1.0)
AFFINE = GrowthFunction.power(1.0, p0=1.0, shift=1.0)


def torus_field(data):
    return GridField(np.asarray(data, dtype=float), Domain.TORUS_2PI)


def grid_xy(n):
    x = np.arange(n) * 2 * np.pi / n
    return np.meshgrid(x, x, indexing="ij")


def band_limited_field(n, seed=3):
    """Random field supported on frequencies 2..n/8 (no Nyquist contact)."""
    local = np.random.default_rng(seed)
    k = np.fft.fftfreq(n, d=1.0 / n)
    rho = np.hypot(k[:, None], k[None, :])
    spec = (local.standard_normal((n, n)) + 1j * local.standard_normal((n, n)))
    spec *= (rho >= 2) & (rho <= n / 8)
    data = np.fft.ifft2(spec).real
    return torus_field(data / np.abs(data).max())


class TestBandProfile:
    def test_support(self):
        rho = np.array([0.5, 0.74, 1.76, 3.0])
        assert np.all(band_profile(rho) == 0.0)

    def test_plateau_is_one(self):
        rho = np.linspace(0.88, 1.12, 21)
        assert np.allclose(band_profile(rho), 1.0, atol=1e-15)

    def test_partition_of_unity_dense(self):
        rho = np.geomspace(0.1, 300.0, 4000)
        total = np.zeros_like(rho)
        for j in range(-6, 12):
            total += band_profile(rho / 2.0**j)
        assert np.abs(total - 1.0).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512])
    def test_partition_on_grid_frequencies(self, n):
        # the bands sum to one at every nonzero grid frequency to within an ulp
        assert BandFilter(n).partition_defect() <= 2.0**-51


class TestDecompose:
    def test_single_mode_band_zero(self):
        n = 64
        xx, _ = grid_xy(n)
        f = torus_field(np.cos(xx))
        d = decompose(f)
        got = dict(d.bands)
        assert np.abs(got[0].data - f.data).max() < 1e-12
        for j, b in d.bands:
            if j != 0:
                assert np.all(b.data == 0.0) or np.abs(b.data).max() < 1e-14

    def test_single_mode_band_three(self):
        n = 64
        xx, _ = grid_xy(n)
        f = torus_field(np.cos(8 * xx))
        d = decompose(f)
        for j, b in d.bands:
            top = np.abs(b.data).max()
            if j == 3:
                assert top == pytest.approx(1.0, abs=1e-12)
            else:
                assert top < 1e-14

    def test_reconstruction(self):
        f = band_limited_field(128)
        d = decompose(f)
        err = np.abs(d.reconstruct() - f.data).max()
        assert err < 1e-9 * max(np.abs(f.data).max(), 1e-300)

    def test_reconstruction_with_mean_and_corners(self):
        data = rng.standard_normal((128, 128)) + 3.0
        f = torus_field(data)
        d = decompose(f, warn_nyquist=False)
        err = np.abs(d.reconstruct() - f.data).max()
        assert err < 1e-9 * np.abs(f.data).max()

    def test_almost_orthogonality(self):
        f = torus_field(rng.standard_normal((128, 128)))
        d = decompose(f, warn_nyquist=False)
        bands = dict(d.bands)
        for i in bands:
            di = decompose(bands[i], warn_nyquist=False)
            for j, b in di.bands:
                if abs(i - j) >= 2:
                    assert np.abs(b.data).max() < 1e-12

    def test_nyquist_warning(self):
        n = 32
        xx, _ = grid_xy(n)
        with pytest.warns(AliasRisk):
            decompose(torus_field(np.cos((n // 2 - 1) * xx)))

    def test_alias_report_names_every_offending_band(self):
        n = 64
        f = torus_field(np.random.default_rng(6).standard_normal((n, n)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            d = decompose(f)
        alias = [w for w in caught if issubclass(w.category, AliasRisk)]
        assert len(alias) == 1
        # annulus outer radius 7/4 2^j past the Nyquist circle, with content
        offending = [j for j, b in d.bands if 1.75 * 2.0**j > n / 2 and np.abs(b.data).max() > 0]
        assert offending
        assert f"bands j in {offending} " in str(alias[0].message)

    def test_inhomogeneous_zero_band(self):
        f = torus_field(rng.standard_normal((64, 64)) + 2.0)
        d = decompose(f, inhomogeneous=True, warn_nyquist=False)
        high = sum(b.data for j, b in d.bands if j > 0)
        assert np.allclose(d.inhomogeneous_zero_band.data + high, f.data, atol=1e-10)


class TestBesovVishik:
    def test_cos_beta_minus_one(self):
        n = 64
        xx, _ = grid_xy(n)
        assert besov_norm(decompose(torus_field(np.cos(xx))), -1.0) == pytest.approx(1.0, abs=1e-12)
        assert besov_norm(decompose(torus_field(np.cos(8 * xx))), -1.0) == pytest.approx(0.125, abs=1e-12)

    def test_two_mode_beta_zero(self):
        n = 64
        xx, _ = grid_xy(n)
        f = torus_field(np.cos(xx) + np.cos(8 * xx))
        assert besov_norm(decompose(f), 0.0) == pytest.approx(2.0, abs=1e-9)

    def test_vishik_const_equals_besov(self):
        f = band_limited_field(128, seed=9)
        d = decompose(f)
        assert vishik_norm(d, CONST, 0.0) == pytest.approx(besov_norm(d, 0.0), rel=1e-14)

    def test_vishik_flat_bands(self):
        n = 128
        xx, _ = grid_xy(n)
        f = torus_field(sum(np.cos(2.0**j * xx) for j in range(5)))
        d = decompose(f)
        seq = d.band_norms()
        assert np.allclose(seq.norms[:5], 1.0, atol=1e-12)
        # sup_N min(N+1, 5)/(N+1) attained at every N <= 4
        assert vishik_norm(d, AFFINE, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_vishik_single_mode(self):
        n = 64
        xx, _ = grid_xy(n)
        assert vishik_norm(decompose(torus_field(np.cos(xx))), CONST, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_vishik_zero_growth_rejected(self):
        # Pi(0) = 0 for the unshifted power growth: a typed error, not a
        # ZeroDivisionError
        xx, _ = grid_xy(64)
        with pytest.raises(NonPositiveArgument):
            vishik_norm(decompose(torus_field(np.cos(xx))), GrowthFunction.power(1.0), 0.0)


class TestEquivalenceReport:
    def test_zero_field(self):
        rep = thmve_equivalence_report(BandSequence(((0, 0.0),)), AFFINE, beta=0.0, kappa=1.0)
        assert rep.partial_sum_form == rep.k_form == rep.alpha_sup_form == 0.0

    def test_single_band_closed_forms(self):
        j0, b = 4, 2.0
        seq = BandSequence(((j0, b),))
        beta, kappa = 0.0, 1.0
        rep = thmve_equivalence_report(seq, AFFINE, beta=beta, kappa=kappa)
        expect_a = b / float(AFFINE(float(j0))) + b * 2.0 ** (j0 * (beta - kappa))
        assert rep.partial_sum_form == pytest.approx(expect_a, rel=1e-12)
        for r in rep.ratios.values():
            assert 1.0 / 8.0 < r < 8.0

    def test_synthetic_increments_stable_across_kappa(self):
        js = np.arange(0, 12)
        norms = np.array([float(AFFINE(float(j))) - float(AFFINE(float(j - 1))) for j in js])
        seq = BandSequence(tuple(zip(js.tolist(), norms.tolist())))
        reps = {
            k: thmve_equivalence_report(seq, AFFINE, beta=0.0, kappa=k)
            for k in (0.5, 1.0)
        }
        for rep in reps.values():
            for r in rep.ratios.values():
                assert 1.0 / 8.0 < r < 8.0
        for key in reps[0.5].ratios:
            assert 0.5 < reps[0.5].ratios[key] / reps[1.0].ratios[key] < 2.0

    def test_field_route_matches_sequence_route(self):
        f = band_limited_field(128, seed=5)
        seq = decompose(f).band_norms()
        ra = thmve_equivalence_report(f, AFFINE, beta=0.0, kappa=1.0)
        rb = thmve_equivalence_report(seq, AFFINE, beta=0.0, kappa=1.0)
        assert ra.partial_sum_form == pytest.approx(rb.partial_sum_form, rel=1e-12)

    def test_bad_growth_rejected(self):
        g = GrowthFunction.from_callable("2^p", lambda p: 2.0**p, p0=1.0)
        with pytest.raises(ValueError):
            thmve_equivalence_report(BandSequence(((0, 1.0),)), g, beta=0.0, kappa=1.0)


class TestBandInequalities:
    def test_bernstein_exact_for_single_modes(self):
        n = 256
        xx, _ = grid_xy(n)
        for j in (0, 1, 2, 3, 4):
            d = decompose(torus_field(np.cos(2.0**j * xx)))
            rows = band_inequality_checks(d, 2.0)["bands"]
            row = next(r for r in rows if r["j"] == j)
            assert row["bernstein_const"] == pytest.approx(1.0, rel=1e-9)

    def test_nikolskii_closed_form_single_modes(self):
        # sup = 1, L2 norm = sqrt(2 pi^2): the recorded constant is their
        # ratio deflated by the 2^(2j/p0) frequency factor
        n = 256
        p0 = 2.0
        l2 = np.sqrt(2.0) * np.pi
        xx, _ = grid_xy(n)
        for j in (0, 2, 4):
            d = decompose(torus_field(np.cos(2.0**j * xx)))
            row = next(r for r in band_inequality_checks(d, p0)["bands"] if r["j"] == j)
            assert row["p0_norm"] == pytest.approx(l2, rel=1e-9)
            assert row["nikolskii_const"] == pytest.approx(1.0 / (2.0**j * l2), rel=1e-9)

    def test_random_band_constants_bounded(self):
        d = decompose(band_limited_field(256, seed=13))
        for row in band_inequality_checks(d, 2.0)["bands"]:
            assert row["bernstein_const"] < 10.0
            assert row["nikolskii_const"] < 10.0

    def test_spectral_gradient_exact_on_modes(self):
        n = 64
        xx, yy = grid_xy(n)
        gx, gy = spectral_gradient(torus_field(np.sin(3 * xx) + np.cos(2 * yy)))
        assert np.abs(gx.data - 3 * np.cos(3 * xx)).max() < 1e-10
        assert np.abs(gy.data + 2 * np.sin(2 * yy)).max() < 1e-10

    def test_band_bmo_comparison_bounded(self):
        for f in (band_limited_field(128, seed=21),
                  torus_field(np.cos(grid_xy(128)[0]))):
            out = band_bmo_comparison(f)
            assert out["ratio"] < 20.0
