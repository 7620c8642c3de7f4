import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import osgood

from osgood.errors import EmptySequence, InvalidExponent, InvalidField, NonPositiveArgument
from osgood.biot import biot_savart
from osgood.field import Domain, GridField, lp_norm, rearrange, sharp_maximal
from osgood.growth import GrowthFunction, _legendre, _with_p0, theta1, yudovich
from osgood.kfunc import (
    _T_GRID,
    BandSequence,
    KCurve,
    k_linf_lip,
    k_lp_bmo,
    k_lp_linf,
    k_lp_linf_profile,
    k_seq,
    extrapolation_sup,
    modulus_of_continuity,
    _chords,
    _h_grid,
    _sup_finite_ratio,
    _sweep,
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
        curve = k_lp_linf(unit_field(data), 1.0, np.geomspace(1e-3, 10.0, 40))
        expect = np.minimum(curve.t_samples, 0.25)
        assert np.allclose(curve.k_values, expect, rtol=1e-12)
        curve.check_shape(concave_slack=0.0)

    @pytest.mark.parametrize("p0", [0.0, -1.0, np.nan, np.inf])
    def test_index_must_be_finite_and_positive(self, p0):
        # p0 = 0 once raised ZeroDivisionError from 1 / p0
        with pytest.raises(NonPositiveArgument, match="p0 must be finite and > 0"):
            k_lp_linf(unit_field(np.ones((8, 8))), p0)

    def test_constant_field(self):
        c, p0 = 3.0, 2.0
        curve = k_lp_linf(unit_field(np.full((8, 8), c)), p0, np.geomspace(1e-2, 10.0, 30))
        expect = c * np.minimum(curve.t_samples**p0, 1.0) ** (1.0 / p0)
        assert np.allclose(curve.k_values, expect, rtol=1e-12)

    def test_prefix_sum_identity_p0_1(self):
        f = unit_field(rng.standard_normal((64, 64)))
        prof = rearrange(f)
        curve = k_lp_linf(f, 1.0, np.geomspace(1e-4, 10.0, 30))
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
        t = np.geomspace(1e-3, 10.0, 25)
        ka = k_lp_linf(unit_field(a), 1.0, t).k_values
        kb = k_lp_linf(unit_field(b), 1.0, t).k_values
        kab = k_lp_linf(unit_field(a + b), 1.0, t).k_values
        assert np.all(kab <= ka + kb + 1e-12)

    @pytest.mark.parametrize("domain", [Domain.TORUS_2PI, Domain.UNIT_TORUS])
    def test_large_index_does_not_overflow(self, domain):
        # t ** 120 overflowed at the default grid's t = 1e3; the clamped t
        # reads the whole integral, the L^120 norm of f, at the top
        f = GridField(np.random.default_rng(0).standard_normal((16, 16)), domain)
        k = k_lp_linf(f, 120.0).k_values
        assert np.all(np.isfinite(k)) and np.all(np.diff(k) >= 0.0)
        assert k[-1] == pytest.approx(lp_norm(f, 120.0), rel=1e-12)

    @pytest.mark.parametrize("domain", [Domain.TORUS_2PI, Domain.UNIT_TORUS])
    @pytest.mark.parametrize("p0", [1.0, 4.0, 100.0])
    def test_clamp_is_bit_identical_where_the_power_is_finite(self, domain, p0):
        prof = rearrange(GridField(np.random.default_rng(4).standard_normal((16, 16)), domain))
        t = np.concatenate([np.geomspace(1e-6, 1e3, 64), [0.0, 2.0, 30.0]])  # t ** 100 finite at each
        unclamped = prof.power_integral(t ** p0, p0) ** (1.0 / p0)
        normal = t ** p0 >= np.finfo(float).tiny  # below, t ** p0 has underflowed (next test)
        assert np.array_equal(k_lp_linf_profile(prof, p0, t).k_values[normal], unclamped[normal])

    @pytest.mark.parametrize("domain", [Domain.TORUS_2PI, Domain.UNIT_TORUS])
    def test_underflowed_power_reads_the_first_cell(self, domain):
        # t ** 120 is 0 on the first 24 default-grid samples, where K once read
        # 0.0, and subnormal on the 25th; t ** p0 lies in the first cell
        # there, so K = t f*(0) exactly
        f = GridField(np.random.default_rng(0).standard_normal((16, 16)), domain)
        curve = k_lp_linf(f, 120.0)
        t, k = curve.t_samples, curve.k_values
        under = np.minimum(t, 1.0) ** 120.0 < np.finfo(float).tiny
        assert np.array_equal(np.flatnonzero(under), np.arange(25))
        assert np.array_equal(k[under], t[under] * np.abs(f.data).max())
        assert k[25] == pytest.approx(t[25] * np.abs(f.data).max(), rel=1e-12)
        assert np.all(np.diff(k) >= 0.0)

    def test_shape_invariants_random(self):
        for _ in range(3):
            f = unit_field(rng.standard_normal((32, 32)))
            # p0 > 1 is a surrogate: concave only within equivalence slack
            k_lp_linf(f, 1.5, np.geomspace(1e-4, 100.0, 40)).check_shape()
            k_lp_linf(f, 1.0, np.geomspace(1e-4, 100.0, 40)).check_shape(concave_slack=0.0)


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
        curve = k_lp_bmo(f, p0, np.geomspace(1e-2, 100.0, 40))
        plateau = lp_norm(sharp_maximal(f), p0)
        assert curve.k_values[-1] == pytest.approx(plateau, rel=1e-12)

    def test_bmo_prototype_slope_bounded(self):
        # K(t)/t tends to the max of the trimmed-oscillation field as t -> 0
        f = log_power_field(128, alpha=0.0)
        curve = k_lp_bmo(f, 2.0, np.geomspace(1e-6, 1.0, 40))
        slopes = curve.k_values / curve.t_samples
        cap = sharp_maximal(f).data.max()
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

    @pytest.mark.parametrize("shape", [(8, 16), (16, 8), (16,)])
    def test_non_square_component_rejected(self, shape):
        v = np.zeros(shape) + np.arange(shape[-1])
        with pytest.raises(ValueError, match="square 2-d array"):
            modulus_of_continuity([np.zeros((8, 8)), v], 0.1, np.array([0.3]))
        with pytest.raises(InvalidField):
            modulus_of_continuity([v], 0.1, np.array([0.3]))

    @pytest.mark.parametrize("bad", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["nan", "+inf", "-inf", "+-inf"])
    def test_non_finite_component_rejected(self, bad):
        # a nan in v - lower once read as a zero modulus at every h
        v = np.random.default_rng(3).standard_normal((16, 16))
        v.flat[[5, 77][:len(bad)]] = bad
        with pytest.raises(ValueError, match="finite"):
            modulus_of_continuity([np.zeros((16, 16)), v], 2 * np.pi / 16, np.array([0.3, 1.0, 3.0]))
        with pytest.raises(InvalidField):
            modulus_of_continuity([v], 2 * np.pi / 16, np.array([0.3]))

    def test_components_of_different_shapes_rejected(self):
        # one spacing measures every component, so they share one grid
        with pytest.raises(InvalidField, match="one shape"):
            modulus_of_continuity([np.zeros((8, 8)), np.zeros((16, 16))], 0.1, np.array([0.3]))
        with pytest.raises(InvalidField, match="one or more"):
            modulus_of_continuity([], 0.1, np.array([0.3]))

    def test_bad_spacing_and_h_rejected(self):
        # spacing 0 divided by zero, a negative spacing read as a zero
        # modulus, and a nan h failed in numpy's integer conversion
        v = np.random.default_rng(4).standard_normal((16, 16))
        for spacing in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(NonPositiveArgument, match="spacing"):
                modulus_of_continuity([v], spacing, np.array([0.3]))
        for h in (np.nan, np.inf, -np.inf):
            with pytest.raises(NonPositiveArgument, match="h must be finite"):
                modulus_of_continuity([v], 0.1, np.array([0.3, h]))
        assert modulus_of_continuity([v], 0.1, -1.0) == 0.0  # h < 0: the empty disc

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
    if kind == "adjacent_extremes":
        # max and min one cell apart across the column seam: the modulus is
        # max - min from h = spacing on
        v = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        v[n // 3, n - 1], v[n // 3, 0] = 5.0, -5.0
        return v
    if kind == "tied_extremes":
        # three maximum and three minimum samples, the nearest pair two rows
        # and one column apart across the row seam
        v = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        v[[0, n // 2, n // 4], [0, n // 2, 3 * n // 4]] = 3.0
        v[[n - 2, n // 4, 3 * n // 4], [1, 0, n // 4]] = -3.0
        return v
    if kind == "constant":
        return np.full((n, n), 2.5)
    return log_power_field(n).data


def _tied_extremes_modulus(fields, spacing, h_values):
    """The former routine: the oscillation shortcut paired each of the first
    64 maximum samples with each of the first 64 minimum samples, and each
    component built its own chord table."""
    hs = np.atleast_1d(np.asarray(h_values, dtype=float))
    out = np.zeros(len(hs))
    comps = [np.asarray(c, dtype=float) for c in fields]
    osc = [float(v.max() - v.min()) for v in comps]
    for k in sorted(range(len(comps)), key=lambda k: -osc[k]):
        v = comps[k]
        n = v.shape[0]
        half = n // 2
        chords = [_chords(h, spacing, half) for h in hs]
        py, px = np.divmod(np.flatnonzero(v == v.max())[:64], n)
        qy, qx = np.divmod(np.flatnonzero(v == v.min())[:64], n)
        oy, ox = (qy[None, :] - py[:, None]) % n, (qx[None, :] - px[:, None]) % n
        ey, ex = np.minimum(oy, n - oy).ravel(), np.minimum(ox, n - ox).ravel()
        swept = []
        for i, bx in enumerate(chords):
            if len(bx) == 0 or out[i] >= osc[k]:
                continue
            if np.any((ey < len(bx)) & (ex <= bx[np.minimum(ey, len(bx) - 1)])):
                out[i] = osc[k]
            else:
                swept.append(i)
        swept.sort(key=lambda i: hs[i])
        padded = np.pad(v, ((0, 0), (half, half)), mode="wrap")
        for i, m in zip(swept, _sweep(v, padded, [chords[i] for i in swept])):
            out[i] = max(out[i], m)
    return out


def _pipeline_velocities():
    """Both velocity components of the benchmark's pipeline inputs, seeds
    0-1, operations 0-7, from its own input generator."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    m = SimpleNamespace(field=osgood.field, growth=osgood.growth)
    for seed in (0, 1):
        for i in range(8):
            yield biot_savart(workloads.make_input(m, "pipeline", seed, i)["field"])


class TestModulusExactness:
    """The slice-min chain visits the same offsets as the reference and
    min is exact, so the results agree bit for bit."""

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("kind", ["random", "log_singular", "adjacent_extremes", "tied_extremes", "constant"])
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

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("order", [1, -1])
    def test_bit_identical_below_the_first_modulus(self, n, order):
        # the second component's oscillation is below the first's modulus
        # from h = spacing on, so it is skipped there; either listed first
        comps = [_gate_field(n, "random"), 0.05 * _gate_field(n, "log_singular")][::order]
        s = 2 * np.pi / n
        hs = _gate_h_values(n)
        assert np.array_equal(modulus_of_continuity(comps, s, hs), _reference_modulus(comps, s, hs))

    @pytest.mark.parametrize("n", [8, 32])
    def test_bit_identical_when_the_oscillation_overflows(self, n):
        # finite samples whose max - min overflows: the shortcut and the
        # envelope both read inf, and no nan can arise from finite samples
        v = 1.5e308 * np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        s = 2 * np.pi / n
        hs = _gate_h_values(n)
        with np.errstate(over="ignore"):
            got, ref = modulus_of_continuity([v], s, hs), _reference_modulus([v], s, hs)
        assert np.array_equal(got, ref) and np.isinf(got[-1])

    @pytest.mark.parametrize("kind", ["random", "log_singular"])
    def test_bit_identical_on_the_descending_h_grid(self, kind):
        v = torus_field(_gate_field(128, kind))
        hs = _h_grid(v)[::-1]
        assert np.array_equal(modulus_of_continuity([v.data], v.spacing, hs),
                              _reference_modulus([v.data], v.spacing, hs))

    def test_bit_identical_to_the_tied_extremes_shortcut(self):
        # one extreme pair, argmax to argmin, against every tied pair: on the
        # pipeline's velocities, each component with one maximum and one
        # minimum sample, and on a field whose nearest tied pair (two rows,
        # one column) is not the pair argmax and argmin give (n/4 rows)
        for v1, v2 in _pipeline_velocities():
            hs = _h_grid(v1)
            assert np.array_equal(modulus_of_continuity([v1.data, v2.data], v1.spacing, hs),
                                  _tied_extremes_modulus([v1.data, v2.data], v1.spacing, hs))
        for n in (16, 64):
            v = _gate_field(n, "tied_extremes")
            py, px = divmod(int(v.argmax()), n)
            qy, qx = divmod(int(v.argmin()), n)
            assert ((qy - py) % n, (qx - px) % n) == (n // 4, 0)
            s = 2 * np.pi / n
            hs = np.concatenate([_gate_h_values(n), _h_grid(torus_field(v))])
            assert np.array_equal(modulus_of_continuity([v], s, hs), _tied_extremes_modulus([v], s, hs))

    def test_peak_memory_of_a_velocity_call(self):
        # two 128^2 components on the 48-point grid: the batched lower
        # envelopes are held to 512 KiB, so the call peaks well below 2 MiB
        comps = [_gate_field(128, "random"), _gate_field(128, "log_singular")]
        v = torus_field(comps[0])
        tracemalloc.start()
        try:
            modulus_of_continuity(comps, v.spacing, _h_grid(v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    @given(st.sampled_from((4, 8, 16, 32)), st.integers(0, 2**32 - 1), st.integers(0, 31), st.integers(0, 31))
    def test_periodic_shift_leaves_the_modulus_unchanged(self, n, seed, a, b):
        # the offsets wrap periodically and max, min and the differences
        # they pick are exact, so a rolled field has the same modulus
        v = np.random.default_rng(seed).standard_normal((n, n))
        s = 2 * np.pi / n
        hs = _gate_h_values(n)
        rolled = np.roll(v, (a, b), axis=(0, 1))
        assert np.array_equal(modulus_of_continuity([rolled], s, hs), modulus_of_continuity([v], s, hs))

    @given(
        st.sampled_from((4, 8, 16, 32)),
        st.sampled_from(tuple(Domain)),
        st.integers(1, 2),
        st.integers(0, 2**32 - 1),
        st.lists(st.one_of(st.integers(0, 32).map(float), st.floats(0.0, 32.0)), max_size=12),
    )
    def test_monotone_in_h(self, n, domain, comps, seed, cells):
        # h in cells, with one value between grid multiples and one past
        # side/2 always among them: a larger h visits a superset of the
        # offsets, so the modulus never falls, bit for bit
        v = np.random.default_rng(seed).standard_normal((comps, n, n))
        s = domain.side / n
        hs = np.sort(np.array(cells + [1.5, 0.75 * n])) * s
        assert np.all(np.diff(modulus_of_continuity(list(v), s, hs)) >= 0)

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
        # k_seq at s0 = beta - kappa, s1 = beta against the (beta, kappa)
        # form of the sum written out; kappa = 0 has s0 = s1
        seq = BandSequence(((0, 0.3), (2, 1.7), (5, 0.2)))
        js, norms = seq.js, seq.norms
        for beta, kappa in ((0.0, 1.0), (0.5, 0.25)):
            for t in (0.1, 1.0, 4.0):
                direct = np.sum(np.minimum(1.0, 2.0 ** (js * kappa) * t) * 2.0 ** (js * (beta - kappa)) * norms)
                assert k_seq(seq, beta - kappa, beta, t) == pytest.approx(direct, rel=1e-14)
        with pytest.raises(InvalidExponent):
            k_seq(seq, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("s0, s1", [(1.0, 0.0), (np.nan, 1.0), (0.0, np.nan), (-np.inf, 0.0), (0.0, np.inf)],
                             ids=["s0_above_s1", "s0_nan", "s1_nan", "s0_minus_inf", "s1_inf"])
    def test_exponents_other_than_finite_s0_below_s1_rejected(self, s0, s1):
        # s0 > s1 and nan raised a bare ValueError, and an infinite end warned
        # "invalid value" on its way to a nan
        seq = BandSequence(((0, 1.0), (1, 0.5)))
        with pytest.raises(InvalidExponent, match="finite s0 < s1"):
            k_seq(seq, s0, s1, 1.0)

    @pytest.mark.parametrize("t", [np.nan, -1.0, -np.inf, [0.5, np.nan], [1.0, -1e-300]])
    def test_t_nan_or_negative_rejected(self, t):
        # t = -1 once returned -1.5 and t = nan returned nan
        seq = BandSequence(((0, 1.0), (1, 0.5)))
        with pytest.raises(NonPositiveArgument, match="t must be >= 0"):
            k_seq(seq, -1.0, 0.0, t)

    def test_t_zero_and_infinity_are_the_ends(self):
        # K(0) = 0 and K(inf) is the L^s0 sum
        seq = BandSequence(((0, 1.0), (1, 0.5)))
        assert k_seq(seq, -1.0, 0.0, 0.0) == 0.0
        assert k_seq(seq, -1.0, 0.0, np.inf) == 1.0 + 0.25

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
            curve = KCurve(pair="seq", t_samples=ts, k_values=k_seq(seq, s0, s1, ts))
            assert np.array_equal(curve.k_values, ks)
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
        ts = np.geomspace(1e-4, 1e2, 40)
        KCurve(pair="seq", t_samples=ts, k_values=k_seq(seq, -1.0, 0.0, ts)).check_shape()


class TestExtrapolationSup:
    def test_zero_curve(self):
        f = unit_field(np.zeros((8, 8)))
        curve = k_lp_linf(f, 1.0)
        assert extrapolation_sup(curve, CONST, 1.0) == 0.0

    def test_const_growth_recovers_endpoint_pair(self):
        # flat growth: the sup is comparable to max(Lp0 norm, sup norm)
        f = unit_field(np.abs(rng.standard_normal((64, 64))) + 0.5)
        p0 = 2.0
        curve = k_lp_linf(f, p0, np.geomspace(1e-8, 1e6, 120))
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
            curve = k_lp_linf(f, 1.0, np.geomspace(1e-7, 0.3, 80))
            quad_vals.append(extrapolation_sup(curve, GrowthFunction.power(2.0, p0=1.0), 1.0))
            lin_vals.append(extrapolation_sup(curve, GrowthFunction.power(1.0, p0=1.0), 1.0))
        quad_vals, lin_vals = np.asarray(quad_vals), np.asarray(lin_vals)
        assert quad_vals[2] / quad_vals[0] < 1.05
        assert np.all(lin_vals[1:] / lin_vals[:-1] > 1.08)

    @pytest.mark.parametrize("p0", [52.0, 60.0, 120.0])
    def test_large_index_matches_a_log_space_reference(self, p0):
        # r = s^(-p0) passes the float range on the default grid once p0 >
        # 51.4 (s = 1e-6) and underflows past p0 = 102 (s = 1e3); y is then
        # read from log r, here against min over a dense p grid in logs
        g = GrowthFunction.power(1.0, shift=1.0)
        curve = k_lp_linf(torus_field(rng.standard_normal((16, 16))), p0)
        s = curve.t_samples
        assert np.abs(p0 * np.log(s)).max() > 709.8
        ps = p0 * np.geomspace(1.0, 1e6, 20001)
        log_y = np.min(np.log(g(ps)) + np.outer(-p0 * np.log(s), 1.0 / ps), axis=1)
        ref = np.max(curve.k_values / (s * np.exp(log_y)))
        assert extrapolation_sup(curve, g, p0) == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("p0", [1.0, 4.0, 60.0, 500.0])
    @pytest.mark.parametrize("domain", [Domain.UNIT_TORUS, Domain.TORUS_2PI])
    def test_log_r_form_within_four_ulps_of_the_three_branch_form(self, domain, p0):
        # the former routine formed r = s^(-p0) for |log r| < 708 and took
        # y(r) there, Theta(p0) / s below and the Legendre transform above;
        # y from log r alone moves the sup by rounding only, on both reports'
        # curves: the field's rearrangement and its sharp maximal function's
        def three_branch(curve, g, p0):
            s = curve.t_samples
            gp = _with_p0(g, p0)
            log_r = -p0 * np.log(s)
            inside, big = np.abs(log_r) < 708.0, log_r >= 708.0
            y = gp(p0) / s
            y[inside] = yudovich(gp, s[inside] ** (-p0))
            if big.any():
                y[big] = np.exp(_legendre(gp, log_r[big])[0])
            return _sup_finite_ratio(curve.k_values, s * y)

        data = log_power_field(64, alpha=0.5).data
        f = GridField(data / np.abs(data).max(), domain)  # so (f*)^500 stays finite
        for prof in (rearrange(f), rearrange(sharp_maximal(f))):
            curve = k_lp_linf_profile(prof, p0, _T_GRID)
            for g in (GrowthFunction.power(0.5), GrowthFunction.log_power(1.0, (1.0,), shifted=True)):
                ref = three_branch(curve, g, p0)
                assert abs(extrapolation_sup(curve, g, p0) - ref) <= 4 * np.spacing(ref)

    @pytest.mark.parametrize("t", [0.0, np.inf])
    def test_samples_must_be_finite_and_positive(self, t):
        curve = KCurve(pair="seq", t_samples=np.array([t, 1.0]), k_values=np.ones(2))
        with pytest.raises(NonPositiveArgument, match="finite and > 0"):
            extrapolation_sup(curve, CONST, 2.0)
