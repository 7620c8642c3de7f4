import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from osgood.bands import (
    _band_range,
    _partition_defect,
    _raw_bump,
    band_inequality_checks,
    band_profile,
    besov_norm,
    besov_norm_seq,
    decompose,
    spectral_gradient,
    thmve_equivalence_report,
    vishik_norm,
)
from osgood.errors import AliasRisk, HypothesisViolated, InvalidExponent, NonPositiveArgument
from osgood.field import Domain, GridField, _fourier_grid, dyadic_bmo_norm
from osgood.growth import GrowthFunction
from osgood.kfunc import BandSequence
from oracles import log_patch, reconstruct

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
        assert _partition_defect(n) <= 2.0**-51

    def test_float_range_ends_answer_without_warnings(self):
        # 2^(j0 + dj) once underflowed to 0 at rho = 5e-324 (divide by zero),
        # overflowed at 1.7e308, and floor(log2(inf)) failed its int cast;
        # nan and the negatives read 0 as well
        rho = [5e-324, 1e-310, 1.7e308, np.finfo(float).max, np.inf, np.nan, -1.0, -np.inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = band_profile(np.array(rho))
        assert np.array_equal(out, np.zeros(len(rho)))

    @pytest.mark.parametrize("n", [4 << i for i in range(10)])
    def test_every_band_has_a_nonzero_multiplier(self, n):
        # decompose keeps every j of _band_range(n), so no band may be empty;
        # band j's multiplier is band_profile(|k| / 2^j) over the distinct |k|
        k1, k2, _, _ = _fourier_grid(n, Domain.TORUS_2PI.side)
        rho = np.unique(np.hypot(k1, k2))
        for j in _band_range(n):
            assert band_profile(rho / 2.0 ** j).any(), j

    def test_power_of_two_scaling_is_bit_identical(self):
        # the former division by 2.0 ** (j0 + dj), wherever that power is a
        # finite float and nonzero, against the scaling by np.ldexp
        def divided(rho):
            r = np.asarray(rho, dtype=float)
            j0 = np.floor(np.log2(r)).astype(int)
            total = sum(_raw_bump(r / 2.0 ** (j0 + dj)) for dj in range(-2, 3))
            return _raw_bump(r) / total

        rho = np.concatenate([np.geomspace(1e-300, 1e300, 20001), rng.uniform(0.5, 2.0, 4000),
                              np.hypot(*np.meshgrid(np.arange(257.0), np.arange(257.0))).ravel()[1:]])
        assert np.array_equal(band_profile(rho), divided(rho))


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
        err = np.abs(reconstruct(d) - f.data).max()
        assert err < 1e-9 * max(np.abs(f.data).max(), 1e-300)

    def test_reconstruction_with_mean_and_corners(self):
        data = rng.standard_normal((128, 128)) + 3.0
        f = torus_field(data)
        d = decompose(f, warn_nyquist=False)
        err = np.abs(reconstruct(d) - f.data).max()
        assert err < 1e-9 * np.abs(f.data).max()

    def test_band_sups_are_taken_once(self):
        # decompose stores max |band| per band; band_norms returns that record
        for f in (band_limited_field(64), torus_field(np.zeros((16, 16)))):
            d = decompose(f, warn_nyquist=False)
            assert d.band_norms() is d.sups
            assert d.sups.entries == tuple((j, float(np.abs(b.data).max())) for j, b in d.bands)
            assert not np.signbit(d.sups.norms).any()

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

    def test_vishik_of_no_bands_is_zero(self):
        assert vishik_norm(BandSequence(()), CONST, 0.0) == 0.0

    def test_vishik_zero_growth_rejected(self):
        # Pi(0) = 0 for the unshifted power growth: a typed error, not a
        # ZeroDivisionError
        xx, _ = grid_xy(64)
        with pytest.raises(NonPositiveArgument):
            vishik_norm(decompose(torus_field(np.cos(xx))), GrowthFunction.power(1.0), 0.0)

    def test_vishik_names_the_first_nonpositive_index(self):
        # Theta = 1 - p/2 is 0 at N = 2 and negative past it
        g = GrowthFunction.from_callable("1-p/2", lambda p: 1.0 - p / 2.0, p0=0.5)
        seq = BandSequence(((0, 1.0), (3, 1.0)))
        with pytest.raises(NonPositiveArgument, match=re.escape("has Pi(2) = 0;")):
            vishik_norm(seq, g, 0.0)

    @pytest.mark.parametrize("g", [CONST, AFFINE, GrowthFunction.power(0.6, shift=1.0),
                                   GrowthFunction.power(2.5, shift=0.5)])
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5])
    def test_vishik_matches_the_scalar_loop(self, g, beta):
        # one Theta call over N = 0..max j gives the bits of one call per N
        seq = decompose(band_limited_field(128, seed=9)).band_norms()
        js = seq.js
        terms = 2.0 ** (js * beta) * seq.norms
        ref = max([0.0] + [float(terms[js <= N].sum()) / float(g(float(N))) for N in range(int(js.max()) + 1)])
        assert vishik_norm(seq, g, beta) == ref

    def test_besov_array_beta_matches_scalar_calls(self):
        seq = decompose(band_limited_field(128, seed=9)).band_norms()
        betas = np.linspace(-1.0, 1.5, 32)
        ref = [float(np.sum(2.0 ** (seq.js * b) * seq.norms)) for b in betas.tolist()]
        assert np.array_equal(besov_norm_seq(seq, betas), ref)
        assert np.array_equal(besov_norm_seq(seq, betas.reshape(4, 8)), np.reshape(ref, (4, 8)))
        assert isinstance(besov_norm_seq(seq, 0.5), float)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf, [0.0, np.nan]])
    def test_besov_non_finite_beta_rejected(self, beta):
        # nan once returned nan, and inf warned "invalid value in multiply"
        xx, _ = grid_xy(64)
        d = decompose(torus_field(np.cos(xx)))
        with pytest.raises(InvalidExponent, match="beta must be finite"):
            besov_norm_seq(d.band_norms(), beta)
        if np.ndim(beta) == 0:
            with pytest.raises(InvalidExponent, match="beta must be finite"):
                besov_norm(d, beta)

    @pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
    def test_vishik_non_finite_beta_rejected(self, beta):
        # a nan beta once returned 0.0: every nan partial lost its max
        xx, _ = grid_xy(64)
        with pytest.raises(InvalidExponent, match="beta must be finite"):
            vishik_norm(decompose(torus_field(np.cos(xx))), CONST, beta)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_vishik_reference_grows_like_log_n(self, alpha):
        # expected, not a defect: the band norms of |log rho| are of order 1 in
        # every band, so the Vishik sum over the log2(n) bands a grid resolves,
        # and with it the norm, gains about the same amount (0.6 to 0.74 here)
        # at each doubling of n, for Theta = (p+1)^alpha; the velocity
        # envelope's Vishik pairing, beta = 0, takes it as N
        g = GrowthFunction.power(alpha, shift=1.0)
        ref = []
        for n in (32, 64, 128):
            d = decompose(log_patch(n, alpha), warn_nyquist=False)
            ref.append(vishik_norm(d, g, 0.0) + besov_norm(d, -1.0))
        assert np.all((np.diff(ref) > 0.5) & (np.diff(ref) < 0.8))


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

    def test_bad_growth_rejected(self):
        g = GrowthFunction.from_callable("2^p", lambda p: 2.0**p, p0=1.0)
        with pytest.raises(HypothesisViolated, match="fails the partial-sum class check"):
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

    def test_band_with_zero_sup_is_skipped(self):
        # its constants would divide by sup = 0
        xx, _ = grid_xy(64)
        d = decompose(torus_field(np.cos(4.0 * xx)))
        (j0, b0), (_, sup0) = d.bands[0], d.sups.entries[0]
        zeroed = replace(d, bands=((j0, torus_field(np.zeros_like(b0.data))),) + d.bands[1:],
                         sups=BandSequence(((j0, 0.0),) + d.sups.entries[1:]))
        rows = band_inequality_checks(zeroed, 2.0)["bands"]
        assert sup0 > 0.0 and [r["j"] for r in rows] == [j for j, _ in d.bands[1:]]

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
        # sup_j sup |band_j| against the dyadic mean-oscillation norm
        for f in (band_limited_field(128, seed=21),
                  torus_field(np.cos(grid_xy(128)[0]))):
            assert decompose(f).band_norms().norms.max() < 20.0 * dyadic_bmo_norm(f)
