import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import osgood

from osgood.errors import EmptySequence
from osgood.field import Domain, GridField, lp_norm, rearrange, sharp_maximal
from osgood.growth import GrowthFunction, theta1, yudovich
from osgood.kfunc import (
    BandSequence,
    k_linf_lip,
    k_lp_bmo,
    k_lp_linf,
    k_seq,
    k_seq_curve,
    k_seq_kappa,
    extrapolation_sup,
    default_t_grid,
    modulus_of_continuity,
)

rng = np.random.default_rng(7)
CONST = GrowthFunction.constant(1.0, p0=1.0)


def unit_field(data):
    return GridField(np.asarray(data, dtype=float), Domain.UNIT_TORUS)


def torus_field(data):
    return GridField(np.asarray(data, dtype=float), Domain.TORUS_2PI)


def log_power_field(n, alpha=1.0):
    x = (np.arange(n) - n // 2) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    rho = np.maximum(np.hypot(xx, yy), 0.5 / n)
    return unit_field(np.abs(np.log(rho)) ** (alpha + 1.0))


class TestKLpLinf:
    def test_indicator_min_form(self):
        n = 16
        data = np.zeros((n, n))
        data.flat[: n * n // 4] = 1.0  # measure 1/4
        curve = k_lp_linf(unit_field(data), 1.0, default_t_grid(1e-3, 10.0, 40))
        expect = np.minimum(curve.t_samples, 0.25)
        assert np.allclose(curve.k_values, expect, rtol=1e-12)
        curve.check_shape(concave_slack=0.0)

    def test_constant_field(self):
        c, p0 = 3.0, 2.0
        curve = k_lp_linf(unit_field(np.full((8, 8), c)), p0, default_t_grid(1e-2, 10.0, 30))
        expect = c * np.minimum(curve.t_samples**p0, 1.0) ** (1.0 / p0)
        assert np.allclose(curve.k_values, expect, rtol=1e-12)

    def test_prefix_sum_identity_p0_1(self):
        f = unit_field(rng.standard_normal((64, 64)))
        prof = rearrange(f)
        curve = k_lp_linf(f, 1.0, default_t_grid(1e-4, 10.0, 30))
        assert np.allclose(curve.k_values, prof.integral(curve.t_samples), rtol=1e-14)

    def test_log_power_small_t_band(self):
        # oracle: quadrature of the clamped radial profile's rearrangement
        n = 512
        curve = k_lp_linf(log_power_field(n), 1.0, np.geomspace(1e-4, 1e-1, 30))
        s = curve.t_samples
        ratios = curve.k_values / (s * (1.0 - np.log(s)) ** 2)
        assert ratios.max() / ratios.min() < 3.0

    def test_subadditive_p0_1(self):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal((32, 32))
        t = default_t_grid(1e-3, 10.0, 25)
        ka = k_lp_linf(unit_field(a), 1.0, t).k_values
        kb = k_lp_linf(unit_field(b), 1.0, t).k_values
        kab = k_lp_linf(unit_field(a + b), 1.0, t).k_values
        assert np.all(kab <= ka + kb + 1e-12)

    def test_shape_invariants_random(self):
        for _ in range(3):
            f = unit_field(rng.standard_normal((32, 32)))
            # p0 > 1 is a surrogate: concave only within equivalence slack
            k_lp_linf(f, 1.5, default_t_grid(1e-4, 100.0, 40)).check_shape()
            k_lp_linf(f, 1.0, default_t_grid(1e-4, 100.0, 40)).check_shape(concave_slack=0.0)


class TestKLpBmo:
    def test_constant_is_zero(self):
        curve = k_lp_bmo(unit_field(np.full((16, 16), 5.0)), 1.0)
        assert np.all(curve.k_values == 0.0)

    def test_step_plateau_equals_sharp_lp_norm(self):
        n = 16
        data = np.zeros((n, n))
        data[: n // 2] = 1.0
        f = unit_field(data)
        p0 = 2.0
        curve = k_lp_bmo(f, p0, 0.25, default_t_grid(1e-2, 100.0, 40))
        plateau = lp_norm(sharp_maximal(f, 0.25).result, p0)
        assert curve.k_values[-1] == pytest.approx(plateau, rel=1e-12)

    def test_bmo_prototype_slope_bounded(self):
        # K(t)/t tends to the max of the trimmed-oscillation field as t -> 0
        f = log_power_field(128, alpha=0.0)
        curve = k_lp_bmo(f, 2.0, 0.25, default_t_grid(1e-6, 1.0, 40))
        slopes = curve.k_values / curve.t_samples
        cap = sharp_maximal(f, 0.25).result.data.max()
        assert slopes[0] == pytest.approx(cap, rel=1e-9)
        assert np.all(slopes <= cap * (1 + 1e-12))


class TestKLinfLip:
    def test_constant_zero(self):
        curve = k_linf_lip(torus_field(np.full((32, 32), 2.5)))
        assert np.all(curve.k_values == 0.0)

    def test_sin_matches_brute_force(self):
        n = 64
        x = np.arange(n) * 2 * np.pi / n
        v = torus_field(np.tile(np.sin(x), (n, 1)))
        hs = np.array([0.2, 0.5, 1.0, 2.0])
        got = modulus_of_continuity([v.data], v.spacing, hs)
        # brute force over all offset pairs within each radius
        spacing = v.spacing
        for h, g in zip(hs, got):
            a = int(h / spacing)
            best = 0.0
            for dy in range(-a, a + 1):
                for dx in range(-a, a + 1):
                    if (dx * spacing) ** 2 + (dy * spacing) ** 2 <= h * h + 1e-12:
                        diff = np.abs(np.roll(v.data, (-dy, -dx), axis=(0, 1)) - v.data).max()
                        best = max(best, diff)
            assert g == pytest.approx(best, abs=1e-12)

    def test_sawtooth_wrap(self):
        n = 32
        x = np.arange(n) * 2 * np.pi / n
        v = torus_field(np.tile(x, (n, 1)))
        spacing = v.spacing
        hs = np.array([spacing, 4 * spacing, np.pi])
        got = modulus_of_continuity([v.data], spacing, hs)
        # wrap pair dominates immediately: neighbors across the seam differ by
        # the full amplitude minus one cell
        assert got[0] == pytest.approx(2 * np.pi - spacing)
        assert got[-1] == pytest.approx(2 * np.pi - spacing)

    def test_vector_takes_component_max(self):
        n = 32
        x = np.arange(n) * 2 * np.pi / n
        v1 = np.tile(np.sin(x), (n, 1))
        v2 = 3.0 * np.tile(np.sin(x), (n, 1)).T
        single = modulus_of_continuity([v2], 2 * np.pi / n, np.array([1.0]))
        both = modulus_of_continuity([v1, v2], 2 * np.pi / n, np.array([1.0]))
        assert both[0] == pytest.approx(single[0])

    def test_default_t_grid_follows_the_domain(self):
        data = np.random.default_rng(8).standard_normal((16, 16))
        assert k_linf_lip(torus_field(data)).t_samples[-1] == np.pi
        unit = k_linf_lip(unit_field(data)).t_samples
        assert unit[0] == 1.0 / 16 and unit[-1] == 0.5

    def test_curve_monotone(self):
        v = torus_field(rng.standard_normal((64, 64)))
        curve = k_linf_lip(v)
        assert np.all(np.diff(curve.k_values) >= -1e-12)


def _reference_modulus(fields, spacing, h_values):
    """The former per-row-offset routine: one rolled minimum_filter1d per
    (h, dy) pair.  Slow, but a direct transcription of the offset set."""
    from scipy.ndimage import minimum_filter1d

    hs = np.atleast_1d(np.asarray(h_values, dtype=float))
    out = np.zeros(len(hs))
    for comp in fields:
        v = np.asarray(comp, dtype=float)
        n = v.shape[0]
        for i, h in enumerate(hs):
            a = int(np.floor(h / spacing + 1e-12))
            a = min(a, n // 2)
            lower = np.full_like(v, np.inf)
            for dy in range(-a, a + 1):
                chord2 = (h / spacing) ** 2 - dy * dy
                bx = int(np.floor(np.sqrt(max(chord2, 0.0)) + 1e-12))
                bx = min(bx, n // 2)
                shifted = np.roll(v, -dy, axis=0) if dy else v
                rowmin = minimum_filter1d(shifted, size=2 * bx + 1, axis=1, mode="wrap")
                np.minimum(lower, rowmin, out=lower)
            out[i] = max(out[i], float((v - lower).max()))
    return out if np.ndim(h_values) else float(out[0])


def _gate_h_values(n):
    """0, below one spacing, exact multiples, sqrt(2) and sqrt(5) spacings,
    and radii past pi where the row reach is capped at n/2."""
    s = 2 * np.pi / n
    return np.array([0.0, 0.4 * s, s, 2 * s, 3 * s, np.sqrt(2) * s, np.sqrt(5) * s,
                     min(7, n // 2) * s, np.pi + 0.5, 2 * np.pi])


def _gate_field(n, kind):
    if kind == "random":
        return np.random.default_rng(n).standard_normal((n, n))
    return log_power_field(n).data


class TestModulusExactness:
    """The slice-min chain visits the same offsets as the reference and
    min is exact, so the results agree bit for bit."""

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("kind", ["random", "log_singular"])
    def test_bit_identical(self, n, kind):
        v = _gate_field(n, kind)
        s = 2 * np.pi / n
        hs = _gate_h_values(n)
        assert np.array_equal(modulus_of_continuity([v], s, hs), _reference_modulus([v], s, hs))
        got = modulus_of_continuity([v], s, float(hs[5]))
        assert isinstance(got, float)
        assert got == _reference_modulus([v], s, float(hs[5]))

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
    def test_bit_identical_two_components(self, n):
        comps = [_gate_field(n, "random"), _gate_field(n, "log_singular")]
        s = 2 * np.pi / n
        hs = _gate_h_values(n)
        assert np.array_equal(modulus_of_continuity(comps, s, hs), _reference_modulus(comps, s, hs))

    @given(st.sampled_from((4, 8, 16, 32)), st.integers(0, 2**32 - 1), st.integers(0, 31), st.integers(0, 31))
    def test_periodic_shift_leaves_the_modulus_unchanged(self, n, seed, a, b):
        # the offsets wrap periodically and max, min and the differences
        # they pick are exact, so a rolled field has the same modulus
        v = np.random.default_rng(seed).standard_normal((n, n))
        s = 2 * np.pi / n
        hs = _gate_h_values(n)
        rolled = np.roll(v, (a, b), axis=(0, 1))
        assert np.array_equal(modulus_of_continuity([rolled], s, hs), modulus_of_continuity([v], s, hs))

    def test_import_leaves_scipy_out(self):
        src = str(Path(osgood.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, osgood.kfunc, osgood.biot, osgood.spaces, osgood.bands; "
                "print(sorted(m for m in sys.modules if m.split('.')[0].startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"


class TestKSeq:
    def test_single_band(self):
        seq = BandSequence(((0, 1.0),))
        for t in (0.25, 1.0, 7.0):
            assert k_seq(seq, -1.0, 0.0, t) == pytest.approx(min(1.0, t))

    def test_hand_enumeration(self):
        seq = BandSequence(((0, 1.0), (1, 1.0), (2, 1.0)))
        # min(1, 1/2) + min(1/2, 1/2) + min(1/4, 1/2) = 5/4
        assert k_seq(seq, -1.0, 0.0, 0.5) == pytest.approx(1.25)

    def test_kappa_form_matches(self):
        # k_seq_kappa is k_seq at s0 = beta - kappa, s1 = beta; check it
        # against the (beta, kappa) form of the sum written out
        seq = BandSequence(((0, 0.3), (2, 1.7), (5, 0.2)))
        js, norms = seq.js, seq.norms
        for beta, kappa in ((0.0, 1.0), (0.5, 0.25)):
            for t in (0.1, 1.0, 4.0):
                direct = np.sum(np.minimum(1.0, 2.0 ** (js * kappa) * t) * 2.0 ** (js * (beta - kappa)) * norms)
                assert k_seq_kappa(seq, beta, kappa, t) == pytest.approx(direct, rel=1e-14)
        with pytest.raises(ValueError):
            k_seq_kappa(seq, 0.0, 0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptySequence):
            k_seq(BandSequence(()), -1.0, 0.0, 1.0)

    @pytest.mark.parametrize("m", [1, 3, 7, 8, 9, 12, 17, 33])
    def test_array_t_matches_scalar_calls(self, m):
        # one broadcast sum per row takes the same pairwise order as the
        # scalar sum, so the values agree bit for bit
        local = np.random.default_rng(m)
        js = np.sort(local.choice(np.arange(-4, 40), size=m, replace=False))
        seq = BandSequence(tuple(zip(js.tolist(), (local.random(m) * 10).tolist())))
        ts = np.geomspace(2.0 ** -40, 8.0, 96)
        for s0, s1 in ((-1.0, 0.0), (-0.75, 0.5), (0.25, 1.5)):
            ks = k_seq(seq, s0, s1, ts)
            assert np.array_equal(ks, [k_seq(seq, s0, s1, float(t)) for t in ts])
            assert np.array_equal(k_seq(seq, s0, s1, ts.reshape(8, 12)), ks.reshape(8, 12))
            assert np.array_equal(k_seq_curve(seq, s0, s1, ts).k_values, ks)
        assert isinstance(k_seq(seq, -1.0, 0.0, 0.5), float)

    def test_randomized_splitting_never_beats_closed_form(self):
        # the closed form is the true infimum: corner splits attain it and
        # random splits can only do worse
        local = np.random.default_rng(11)
        for _ in range(100):
            m = local.integers(1, 13)
            js = np.sort(local.choice(np.arange(-8, 16), size=m, replace=False))
            norms = local.random(m) * 10
            seq = BandSequence(tuple(zip(js.tolist(), norms.tolist())))
            s0, s1 = -1.2, 0.7
            t = float(10 ** local.uniform(-3, 3))
            closed = k_seq(seq, s0, s1, t)
            w0 = 2.0 ** (js * s0)
            w1 = t * 2.0 ** (js * s1)
            best = np.inf
            for trial in range(40):
                frac = local.random(m)
                cost = np.sum((w0 * frac + w1 * (1 - frac)) * norms)
                best = min(best, cost)
            corners = np.sum(np.minimum(w0, w1) * norms)
            best = min(best, corners)
            assert closed <= best + 1e-12
            assert abs(closed - corners) <= 1e-12 * max(corners, 1.0)

    def test_theta_independent_interpolation_sum(self):
        # normalized dyadic interpolation sums stay in a theta-free band of
        # the intermediate-weight sum
        local = np.random.default_rng(5)
        s0, s1 = -1.0, 0.0
        for _ in range(5):
            m = local.integers(2, 10)
            js = np.sort(local.choice(np.arange(0, 14), size=m, replace=False))
            norms = local.random(m) + 0.1
            seq = BandSequence(tuple(zip(js.tolist(), norms.tolist())))
            nus = np.arange(-40, 41)
            ratios = []
            for theta in np.arange(0.1, 0.95, 0.1):
                s = (1 - theta) * s0 + theta * s1
                total = sum(
                    2.0 ** (-theta * nu * (s1 - s0)) * k_seq(seq, s0, s1, 2.0 ** (nu * (s1 - s0)))
                    for nu in nus
                )
                ref = np.sum(2.0 ** (js * s) * norms)
                ratios.append(theta * (1 - theta) * total / ref)
            ratios = np.asarray(ratios)
            assert ratios.max() / ratios.min() < 2.0

    def test_curve_shape(self):
        seq = BandSequence(((0, 1.0), (3, 0.5), (7, 2.0)))
        k_seq_curve(seq, -1.0, 0.0, default_t_grid(1e-4, 1e2, 40)).check_shape()


class TestExtrapolationSup:
    def test_zero_curve(self):
        f = unit_field(np.zeros((8, 8)))
        curve = k_lp_linf(f, 1.0)
        assert extrapolation_sup(curve, CONST, 1.0) == 0.0

    def test_const_growth_recovers_endpoint_pair(self):
        # flat growth: the sup is comparable to max(Lp0 norm, sup norm)
        f = unit_field(np.abs(rng.standard_normal((64, 64))) + 0.5)
        p0 = 2.0
        curve = k_lp_linf(f, p0, default_t_grid(1e-8, 1e6, 120))
        val = extrapolation_sup(curve, CONST, p0)
        lo = max(lp_norm(f, p0), lp_norm(f, np.inf))
        assert 0.4 * lo <= val <= 2.0 * (lp_norm(f, p0) + lp_norm(f, np.inf))

    def test_resolution_sweep_separates_growths(self):
        # log^2 singularity on the small-t window: quadratic growth caps the
        # sup while linear growth keeps climbing with resolution (the large-t
        # plateau is the L1 norm and would mask the signal)
        quad_vals, lin_vals = [], []
        for n in (128, 256, 512):
            f = log_power_field(n)
            curve = k_lp_linf(f, 1.0, default_t_grid(1e-7, 0.3, 80))
            quad_vals.append(extrapolation_sup(curve, GrowthFunction.power(2.0, p0=1.0), 1.0))
            lin_vals.append(extrapolation_sup(curve, GrowthFunction.power(1.0, p0=1.0), 1.0))
        quad_vals, lin_vals = np.asarray(quad_vals), np.asarray(lin_vals)
        assert quad_vals[2] / quad_vals[0] < 1.05
        assert np.all(lin_vals[1:] / lin_vals[:-1] > 1.08)
