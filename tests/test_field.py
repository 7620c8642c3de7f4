import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from osgood.errors import InvalidExponent, InvalidFieldFile, InvalidLambda, NonPositiveArgument, OsgoodError
from osgood.field import (
    Domain,
    GridField,
    cube_levels,
    _block_view,
    _cube_shifts,
    _mean_oscillation,
    _trimmed_oscillation,
    dyadic_bmo_norm,
    fefferman_stein_sharp,
    lp_norm,
    read_field_binary,
    read_field_csv,
    rearrange,
    sharp_maximal,
    unitized,
    write_field_binary,
    write_field_csv,
)
from osgood.growth import GrowthFunction
from osgood.kfunc import default_t_grid, k_lp_linf, k_lp_linf_profile
from osgood.spaces import default_p_grid, sharp_yudovich_norm, yudovich_norm

rng = np.random.default_rng(2024)


def unit_field(data):
    return GridField(np.asarray(data, dtype=float), Domain.UNIT_TORUS)


def log_power_field(n, alpha=1.0):
    """|log rho|^(alpha+1) with rho = fractional radius, singular cell clamped."""
    x = (np.arange(n) - n // 2) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    rho = np.hypot(xx, yy)
    rho = np.maximum(rho, 0.5 / n)
    return unit_field(np.abs(np.log(rho)) ** (alpha + 1.0))


def indicator_field(n, cells):
    data = np.zeros((n, n))
    data.flat[:cells] = 1.0
    return unit_field(data)


class TestRearrange:
    def test_constant(self):
        prof = rearrange(unit_field(np.full((8, 8), -3.0)))
        ts = np.linspace(0.01, 0.99, 17)
        assert np.allclose(prof.star(ts), 3.0)
        assert np.allclose(prof.double_star(ts), 3.0)

    def test_indicator_layer_cake(self):
        n = 16
        m_cells = 64
        f = indicator_field(n, m_cells)
        prof = rearrange(f)
        m = m_cells / n**2
        ts = np.linspace(1e-3, 0.999, 301)
        assert np.allclose(prof.star(ts), (ts < m).astype(float))
        assert np.allclose(prof.double_star(ts), np.minimum(1.0, m / ts), rtol=1e-12)

    def test_equimeasurable_l1(self):
        f = unit_field(rng.standard_normal((32, 32)))
        prof = rearrange(f)
        assert prof.integral(prof.total_measure) == pytest.approx(lp_norm(f, 1.0), rel=1e-14)

    def test_profile_invariants(self):
        f = unit_field(rng.standard_normal((32, 32)))
        prof = rearrange(f)
        assert np.all(np.diff(prof.values) <= 0)
        assert len(prof.values) * prof.cell_measure == pytest.approx(prof.total_measure)
        ts = np.geomspace(1e-3, 0.99, 64)
        assert np.all(prof.double_star(ts) >= prof.star(ts) - 1e-15)
        assert np.all(np.diff(prof.double_star(ts)) <= 1e-15)

    def test_contraction_in_sup_distance(self):
        for _ in range(5):
            a = rng.standard_normal((16, 16))
            b = a + rng.uniform(-1, 1) * rng.random((16, 16))
            pa = rearrange(unit_field(a))
            pb = rearrange(unit_field(b))
            gap = np.abs(pa.values - pb.values).max()
            assert gap <= np.abs(a - b).max() + 1e-14

    def test_log_power_profile_band(self):
        # grid rearrangement tracks the radial-profile map (-log t)^2 in a band
        n = 512
        prof = rearrange(log_power_field(n, alpha=1.0))
        ts = np.geomspace(1e-4, 1e-1, 40)
        ratios = prof.star(ts) / np.log(1.0 / ts) ** 2
        assert ratios.max() / ratios.min() < 3.0

    def test_measures_outside_the_domain_raise(self):
        # a negative t once wrapped to the tail of the profile, and
        # double_star(0) divided by zero
        prof = rearrange(GridField(rng.standard_normal((16, 16))))
        for bad in (-0.1, np.nan, np.inf, np.array([0.5, -0.1])):
            with pytest.raises(NonPositiveArgument):
                prof.star(bad)
            with pytest.raises(NonPositiveArgument):
                prof.power_integral(bad, 1.0)
        for bad in (0.0, -1.0, np.nan, np.array([0.5, 0.0])):
            with pytest.raises(NonPositiveArgument):
                prof.double_star(bad)
        assert prof.star(0.0) == prof.values[0] and prof.integral(0.0) == 0.0

    def test_measures_past_the_profile(self):
        # t / cell_measure past the int64 range once cast to a negative index
        f = GridField(np.random.default_rng(5).standard_normal((16, 16)))
        prof = rearrange(f)
        cell, v = prof.cell_measure, prof.values

        def star_ref(t):
            idx = np.floor(t / cell).astype(int)
            return np.where(idx < len(v), v[np.minimum(idx, len(v) - 1)], 0.0)

        def power_integral_ref(t, p):
            powered = v ** p
            prefix = np.concatenate([[0.0], np.cumsum(powered) * cell])
            idx = np.minimum(np.floor(t / cell).astype(int), len(v))
            at = np.where(idx < len(v), powered[np.minimum(idx, len(v) - 1)], 0.0)
            return prefix[idx] + np.where(idx < len(v), (t - idx * cell) * at, 0.0)

        inside = np.concatenate([np.linspace(0.0, prof.total_measure, 257), cell * np.arange(len(v) + 1)])
        assert np.array_equal(prof.star(inside), star_ref(inside))
        for p in (0.5, 1.0, 8.0):
            assert np.array_equal(prof.power_integral(inside, p), power_integral_ref(inside, p))
        beyond = np.array([prof.total_measure * 1.5, 1e20, 1e30, 1e300])
        assert np.array_equal(prof.star(beyond), np.zeros(4)) and prof.star(1e30) == 0.0
        whole = prof.power_integral(prof.total_measure, 8.0)
        assert whole == pytest.approx(lp_norm(f, 8.0) ** 8, rel=1e-12)
        assert np.array_equal(prof.power_integral(beyond, 8.0), np.full(4, whole))
        # the default t grid reaches 1e3, so t^8 = 1e24 is far past the profile
        curve = k_lp_linf(f, 8.0)
        assert np.all(np.isfinite(curve.k_values)) and curve.k_values[-1] == whole ** (1.0 / 8.0)

    @pytest.mark.parametrize("p", [np.nan, -1.0, 0.0, np.inf], ids=str)
    def test_power_integral_needs_a_finite_positive_exponent(self, p):
        prof = rearrange(GridField(rng.standard_normal((16, 16))))
        with pytest.raises(InvalidExponent):
            prof.power_integral(0.5, p)


class TestLpNorm:
    def test_constant(self):
        assert lp_norm(unit_field(np.full((8, 8), 2.0)), 3.0) == pytest.approx(2.0)

    def test_indicator(self):
        f = indicator_field(16, 64)  # measure 1/4
        assert lp_norm(f, 2.0) == pytest.approx(0.5)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponent):
            lp_norm(unit_field(np.ones((8, 8))), 0.5)

    def test_nan_exponent(self):
        # a nan p once passed the [1, inf] check and returned nan
        f = unit_field(np.ones((8, 8)))
        with pytest.raises(InvalidExponent):
            lp_norm(f, np.nan)
        with pytest.raises(InvalidExponent):
            rearrange(f).lp(np.nan)

    def test_profile_norm_agreement(self):
        for _ in range(10):
            f = unit_field(rng.standard_normal((256, 256)))
            prof = rearrange(f)
            for p in (1.0, 2.0, 7.3, np.inf):
                a, b = lp_norm(f, p), prof.lp(p)
                assert abs(a - b) <= 1e-10 * max(abs(a), 1e-300)
            # at p = 512 an unscaled power sum overflows above max 4 and
            # underflows to 0 at small amplitude
            for amplitude in (30.0, 1e-3):
                g = unit_field(f.data * (amplitude / np.abs(f.data).max()))
                a, b = lp_norm(g, 512.0), rearrange(g).lp(512.0)
                assert np.isfinite(a) and a > 0.0
                assert abs(a - b) <= 1e-10 * a

    def test_homogeneous_at_high_p(self):
        f = unit_field(np.random.default_rng(7).standard_normal((64, 64)))
        base = lp_norm(f, 512.0)
        for c in (1e-3, 30.0):
            assert lp_norm(unit_field(c * f.data), 512.0) == pytest.approx(c * base, rel=1e-12)

    def test_log_power_norms_grow_like_p_squared(self):
        # oracle 1: radial quadrature of the clamped profile reproduces the
        # grid norm; oracle 2: the unclamped profile's norms track p^2
        from scipy.integrate import quad

        n = 512
        f = log_power_field(n, alpha=1.0)
        rho_min = 0.5 / n

        def arc(r):
            if r <= 0.5:
                return 2 * np.pi * r
            return r * (2 * np.pi - 8 * np.arccos(0.5 / r))

        def clamped_norm(p):
            core = np.log(1 / rho_min) ** (2 * p) * np.pi * rho_min**2
            body = quad(lambda r: np.log(1 / r) ** (2 * p) * arc(r), rho_min, 0.5, limit=400)[0]
            corner = quad(lambda r: np.log(1 / r) ** (2 * p) * arc(r), 0.5, np.sqrt(0.5) - 1e-12, limit=400)[0]
            return (core + body + corner) ** (1 / p)

        def continuum_norm(p):
            body = quad(lambda u: u ** (2 * p) * 2 * np.pi * np.exp(-2 * u),
                        np.log(2) / 2, 60 + 4 * p, limit=400)[0]
            return body ** (1 / p)

        ps = np.array([2.0, 4.0, 8.0, 16.0])
        for p in ps:
            assert lp_norm(f, p) == pytest.approx(clamped_norm(p), rel=0.03)
        scaled = np.array([continuum_norm(p) for p in ps]) / ps**2
        assert scaled.max() / scaled.min() < 4.0


# -- independent brute-force oracles over the same cube family ---------------

def brute_sharp(f, lam):
    n = f.n
    out = np.zeros((n, n))
    for side in cube_levels(n):
        m = side * side
        keep = m - int(np.floor(lam * m))
        for shift in _cube_shifts(n, side):
            for bi in range(n // side):
                for bj in range(n // side):
                    rows = [(shift[0] + bi * side + a) % n for a in range(side)]
                    cols = [(shift[1] + bj * side + a) % n for a in range(side)]
                    samples = np.sort(f.data[np.ix_(rows, cols)], axis=None)
                    # scan candidate centers: midpoints of all sample pairs
                    cands = (samples[:, None] + samples[None, :]).ravel() / 2.0
                    best = np.inf
                    for c in np.unique(cands):
                        dev = np.sort(np.abs(samples - c))
                        best = min(best, dev[keep - 1])
                    for r in rows:
                        for cc in cols:
                            out[r, cc] = max(out[r, cc], best)
    return out


def brute_fs(f):
    n = f.n
    out = np.zeros((n, n))
    for side in cube_levels(n):
        for shift in _cube_shifts(n, side):
            for bi in range(n // side):
                for bj in range(n // side):
                    rows = [(shift[0] + bi * side + a) % n for a in range(side)]
                    cols = [(shift[1] + bj * side + a) % n for a in range(side)]
                    samples = f.data[np.ix_(rows, cols)]
                    osc = np.abs(samples - samples.mean()).mean()
                    for r in rows:
                        for cc in cols:
                            out[r, cc] = max(out[r, cc], osc)
    return out


class TestSharpMaximal:
    def test_constant_is_zero(self):
        sm = sharp_maximal(unit_field(np.full((16, 16), 4.0)), 0.25)
        assert np.all(sm.data == 0.0)

    def test_default_is_the_norms_field(self):
        for domain in Domain:
            f = GridField(rng.standard_normal((16, 16)), domain)
            sm = sharp_maximal(f)
            assert isinstance(sm, GridField) and sm.domain is f.domain
            assert np.array_equal(sm.data, sharp_maximal(f, 0.25).data)

    def test_invalid_lambda(self):
        f = unit_field(np.ones((8, 8)))
        for lam in (0.0, -1.0, 0.75):
            with pytest.raises(InvalidLambda):
                sharp_maximal(f, lam)

    def test_half_torus_step_matches_brute_force(self):
        n = 16
        data = np.zeros((n, n))
        data[: n // 2, :] = 1.0
        f = unit_field(data)
        sm = sharp_maximal(f, 0.25)
        assert np.allclose(sm.data, brute_sharp(f, 0.25))
        # any cube meeting the interface is half ones, half zeros: value 1/2
        assert sm.data.max() == pytest.approx(0.5)

    def test_random_field_matches_brute_force(self):
        f = unit_field(rng.standard_normal((8, 8)))
        sm = sharp_maximal(f, 0.5)
        assert np.allclose(sm.data, brute_sharp(f, 0.5), atol=1e-12)

    def test_monotone_in_lambda(self):
        f = unit_field(rng.standard_normal((32, 32)))
        hi = sharp_maximal(f, 0.125).data
        lo = sharp_maximal(f, 0.5).data
        assert np.all(hi >= lo - 1e-14)

    def test_bounded_by_oscillation(self):
        f = unit_field(rng.standard_normal((32, 32)))
        sm = sharp_maximal(f, 0.25).data
        osc = f.data.max() - f.data.min()
        assert sm.max() <= 0.5 * osc + 1e-12
        assert sm.max() <= 2.0 * np.abs(f.data).max()

    def test_log_power_sharp_star_band(self):
        # trimmed-oscillation maximal function of the log^2 singularity stays
        # within a (-log t) band, stable across resolution
        cs = []
        for n in (256, 512):
            sm = sharp_maximal(log_power_field(n, alpha=1.0), 0.25)
            prof = rearrange(sm)
            ts = np.geomspace(1e-5, 1e-1, 30)
            cs.append((prof.double_star(ts) / np.log(1.0 / ts)).max())
        assert cs[1] < 1.5 * cs[0] + 1e-12


class TestFeffermanStein:
    def test_constant_zero(self):
        assert dyadic_bmo_norm(unit_field(np.full((16, 16), 7.0))) == 0.0

    def test_step_top_cube(self):
        n = 16
        data = np.zeros((n, n))
        data[: n // 2, :] = 1.0
        f = unit_field(data)
        sharp = fefferman_stein_sharp(f)
        assert np.allclose(sharp.data, brute_fs(f))
        # the full square sees mean 1/2 and mean deviation 1/2
        assert sharp.data.max() == pytest.approx(0.5)

    def test_random_matches_brute_force(self):
        f = unit_field(rng.standard_normal((8, 8)))
        assert np.allclose(fefferman_stein_sharp(f).data, brute_fs(f), atol=1e-12)

    def test_equivalence_with_trimmed_oscillation(self):
        # rearranged mean-oscillation vs averaged trimmed-oscillation stay in a band
        fields = [
            log_power_field(128, alpha=1.0),
            log_power_field(128, alpha=0.0),
            unit_field(rng.standard_normal((128, 128))),
            unit_field(np.add.outer(np.sin(np.linspace(0, 2 * np.pi, 128, endpoint=False)),
                                    np.cos(np.linspace(0, 2 * np.pi, 128, endpoint=False)))),
            unit_field((rng.random((128, 128)) > 0.5).astype(float)),
        ]
        ts = np.geomspace(1e-3, 1e-1, 16)
        for f in fields:
            fs_prof = rearrange(fefferman_stein_sharp(f))
            sm_prof = rearrange(sharp_maximal(f, 0.25))
            ratios = fs_prof.star(ts) / np.maximum(sm_prof.double_star(ts), 1e-300)
            assert ratios.max() < 16.0
            assert ratios.min() > 1.0 / 16.0


class TestIO:
    def test_binary_roundtrip(self, tmp_path):
        f = GridField(rng.standard_normal((32, 32)), Domain.TORUS_2PI)
        path = tmp_path / "field.osgf"
        write_field_binary(f, path)
        g = read_field_binary(path)
        assert g.domain is Domain.TORUS_2PI
        assert np.array_equal(f.data, g.data)
        assert path.stat().st_size == 16 + 8 * 32 * 32

    def test_binary_mean_flag(self, tmp_path):
        f = GridField(rng.standard_normal((8, 8)), Domain.UNIT_TORUS).remove_mean()
        path = tmp_path / "m.osgf"
        write_field_binary(f, path)
        assert read_field_binary(path).mean_removed

    def test_csv_roundtrip(self, tmp_path):
        f = GridField(rng.standard_normal((16, 16)), Domain.UNIT_TORUS)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        g = read_field_csv(path)
        assert g.domain is Domain.UNIT_TORUS
        assert np.array_equal(f.data, g.data)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.osgf"
        path.write_bytes(b"NOPE" + b"\0" * 20)
        with pytest.raises(ValueError):
            read_field_binary(path)


def _binary(n, tag=0, payload=None):
    return b"OSGF" + struct.pack("<III", n, tag, 0) + (bytes(8 * n * n) if payload is None else payload)


def _csv(header, rows=4, cols=4):
    return header + "\n" + "".join(",".join(["0.5"] * cols) + "\n" for _ in range(rows))


MALFORMED = {
    "binary_short_header": (read_field_binary, b"OSGF\4\0"),
    "binary_unknown_tag": (read_field_binary, _binary(4, tag=7)),
    "binary_n_2_31": (read_field_binary, _binary(2**31, payload=bytes(64))),
    "binary_n_not_power_of_two": (read_field_binary, _binary(6)),
    "binary_n_too_small": (read_field_binary, _binary(2)),
    "binary_truncated_payload": (read_field_binary, _binary(8, payload=bytes(8 * 63))),
    "binary_long_payload": (read_field_binary, _binary(8, payload=bytes(8 * 65))),
    "csv_no_header": (read_field_csv, _csv("0.5,0.5,0.5,0.5")),
    "csv_unknown_domain": (read_field_csv, _csv("# n=4 domain=sphere")),
    "csv_missing_domain": (read_field_csv, _csv("# n=4")),
    "csv_missing_n": (read_field_csv, _csv("# domain=unit")),
    "csv_n_not_integer": (read_field_csv, _csv("# n=4.0 domain=unit")),
    "csv_n_not_power_of_two": (read_field_csv, _csv("# n=6 domain=unit", 6, 6)),
    "csv_truncated_body": (read_field_csv, _csv("# n=4 domain=unit", rows=3)),
    "csv_short_rows": (read_field_csv, _csv("# n=4 domain=unit", cols=2, rows=8)),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_file_raises_typed_error(tmp_path, name):
    reader, content = MALFORMED[name]
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    with pytest.raises(InvalidFieldFile) as info:
        reader(path)
    assert isinstance(info.value, OsgoodError) and isinstance(info.value, ValueError)


class TestDomainConversion:
    def test_unitized_rescales_measure_only(self):
        f = GridField(rng.standard_normal((16, 16)), Domain.TORUS_2PI)
        g = unitized(f)
        assert g.total_measure == 1.0
        assert np.array_equal(f.data, g.data)
        assert lp_norm(g, 2.0) == pytest.approx(lp_norm(f, 2.0) / (2 * np.pi), rel=1e-12)

    def test_mean_removed_flag_validated(self):
        with pytest.raises(ValueError):
            GridField(np.ones((8, 8)), Domain.UNIT_TORUS, mean_removed=True)


# -- exactness gate: the full power sum and the n x n scatter sweep ------------
#
# Reference copies of the straightforward forms: the max-scaled power sum over
# every sample, unsorted and untruncated, and the cube sweep that spreads each
# cube family over the n x n grid with np.kron and np.roll.  The sorted,
# truncated sum must agree to rel 1e-15, and the sweeps, which take maxima
# only, bit for bit.

def full_sum_lp(f, p):
    a = np.abs(f.data)
    m = float(a.max())
    if p == np.inf or m == 0.0:
        return m
    scaled = a / m
    np.power(scaled, p, out=scaled)
    return float(m * (scaled.sum() * f.cell_measure) ** (1.0 / p))


def scatter_cube_sweep(f, stat, min_side=4):
    n = f.n
    out = np.zeros_like(f.data)
    for side in cube_levels(n, min_side=min_side):
        for shift in _cube_shifts(n, side):
            rolled = f.data if shift == (0, 0) else np.roll(f.data, (-shift[0], -shift[1]), axis=(0, 1))
            expanded = np.kron(stat(_block_view(rolled, side)), np.ones((side, side)))
            if shift != (0, 0):
                expanded = np.roll(expanded, shift=shift, axis=(0, 1))
            np.maximum(out, expanded, out=out)
    return out


GATE_NS = (8, 16, 32, 64, 128, 256, 512)
GATE_SCALES = (1e-3, 1.0, 30.0)
GATE_PS = sorted({*default_p_grid(1.0), *default_p_grid(4.0), 1.0, 2.0, 512.0, 1e4})
GATE_LAMS = (0.01, 0.25, 0.5)


def gate_field(n, scale):
    """A log^2 singularity plus noise, mean removed, with max |f| = scale."""
    data = log_power_field(n).data + 0.1 * np.random.default_rng(n).standard_normal((n, n))
    data -= data.mean()
    return unit_field(data * (scale / np.abs(data).max()))


@pytest.mark.parametrize("n", GATE_NS)
class TestExactnessGate:
    def test_lp_matches_full_sum(self, n):
        for scale in GATE_SCALES:
            f = gate_field(n, scale)
            prof = rearrange(f)
            for p in GATE_PS:
                ref = full_sum_lp(f, p)
                assert lp_norm(f, p) == pytest.approx(ref, rel=1e-15, abs=0.0)
                assert prof.lp(p) == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_cube_sweeps_bit_identical(self, n):
        # the singular field oscillates most on small cubes, the two modes on
        # the full square
        x = np.arange(n) / n
        modes = unit_field(np.add.outer(np.cos(2 * np.pi * x), 0.5 * np.cos(2 * np.pi * x + 1.0)))
        for f in [gate_field(n, scale) for scale in GATE_SCALES] + [modes]:
            for lam in GATE_LAMS:
                ref = scatter_cube_sweep(f, lambda b: _trimmed_oscillation(b, lam))
                assert np.array_equal(sharp_maximal(f, lam).data, ref)
            ref = scatter_cube_sweep(f, _mean_oscillation)
            assert np.array_equal(fefferman_stein_sharp(f).data, ref)
            assert dyadic_bmo_norm(f) == ref.max()


@pytest.mark.parametrize("n", GATE_NS[:4])
def test_report_direct_values_match_full_sums(n):
    g = GrowthFunction.power(0.5)
    for scale in GATE_SCALES:
        f = gate_field(n, scale)
        sm = unit_field(scatter_cube_sweep(f, lambda b: _trimmed_oscillation(b, 0.25)))
        for rep, base, p0 in ((yudovich_norm(f, g), f, 1.0), (sharp_yudovich_norm(f, g), sm, 4.0)):
            ref = max(full_sum_lp(base, p) / g(p) for p in default_p_grid(p0))
            assert rep.direct_value == pytest.approx(ref, rel=1e-15, abs=0.0)


# -- properties of the sorted profile --------------------------------------------

sizes = st.sampled_from((8, 16, 32))
seeds = st.integers(0, 2**32 - 1)
amplitudes = st.floats(1e-3, 1e3)


class TestProfileProperties:
    @given(sizes, seeds, amplitudes, st.integers(0, 31), st.integers(0, 31))
    def test_distribution_kept_and_shift_invariant(self, n, seed, c, a, b):
        data = c * np.random.default_rng(seed).standard_normal((n, n))
        prof = rearrange(unit_field(data))
        assert np.array_equal(prof.values, np.sort(np.abs(data), axis=None)[::-1])
        shifted = rearrange(unit_field(np.roll(data, (a, b), axis=(0, 1))))
        assert np.array_equal(shifted.values, prof.values)

    @given(sizes, seeds, amplitudes)
    def test_p0_1_k_curve_is_exactly_concave(self, n, seed, c):
        prof = rearrange(unit_field(c * np.random.default_rng(seed).standard_normal((n, n))))
        k_lp_linf_profile(prof, 1.0, default_t_grid()).check_shape(concave_slack=0.0)
