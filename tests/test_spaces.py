import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from osgood.bands import decompose, thmve_equivalence_report, vishik_norm
from osgood.biot import modulus_envelope
from osgood.errors import InvalidArgument, InvalidExponent, NonPositiveArgument
from osgood.field import Domain, GridField, dyadic_bmo_norm, lp_norm, rearrange, sharp_maximal
from osgood.growth import GrowthFunction
from osgood.spaces import (
    default_p_grid,
    embedding_gap_report,
    sharp_yudovich_norm,
    yudovich_norm,
)
from oracles import ratios

CONST = GrowthFunction.constant(1.0, p0=1.0)
LINEAR = GrowthFunction.power(1.0, p0=1.0)
QUADRATIC = GrowthFunction.power(2.0, p0=1.0)
AFFINE = GrowthFunction.power(1.0, p0=1.0, shift=1.0)


def unit_field(data):
    return GridField(np.asarray(data, dtype=float), Domain.UNIT_TORUS)


def random_field(n, seed):
    """Standard-normal field from its own generator, so a test's input does
    not depend on which tests ran before it."""
    return unit_field(np.random.default_rng(seed).standard_normal((n, n)))


def log_power_field(n, alpha=1.0):
    x = (np.arange(n) - n // 2) / n
    xx, yy = np.meshgrid(x, x, indexing="ij")
    rho = np.maximum(np.hypot(xx, yy), 0.5 / n)
    return unit_field(np.abs(np.log(rho)) ** (alpha + 1.0))


def every_form(rep):
    return [getattr(rep, form) for form in FORMS]


def equivalence_forms(f):
    rep = thmve_equivalence_report(decompose(f).band_norms(), AFFINE, beta=0.0, kappa=1.0)
    return [rep.partial_sum_form, rep.k_form, rep.alpha_sup_form]


# each report's forms on a field; every sup in them takes the largest finite ratio
REPORTS = {
    "yudovich_norm": lambda f: every_form(yudovich_norm(f, CONST)),
    "sharp_yudovich_norm": lambda f: every_form(sharp_yudovich_norm(f, CONST)),
    "modulus_envelope": lambda f: [modulus_envelope(f, 0.0, CONST).fitted_c],
    "vishik_norm": lambda f: [vishik_norm(decompose(f), CONST)],
    "thmve_equivalence_report": equivalence_forms,
}


class TestYudovichNorm:
    @pytest.mark.parametrize("report", REPORTS)
    def test_zero_field(self, report):
        # a 0 / 0 sample is skipped as not finite; a sup with no finite sample is 0.0
        forms = REPORTS[report](unit_field(np.zeros((16, 16))))
        assert forms and all(v == 0.0 for v in forms)

    def test_flat_growth_indicator(self):
        n = 32
        data = np.zeros((n, n))
        data.flat[: n * n // 4] = 2.0
        f = unit_field(data)
        rep = yudovich_norm(f, CONST, p0=1.0)
        lo = max(lp_norm(f, 1.0), lp_norm(f, np.inf))
        hi = lp_norm(f, 1.0) + lp_norm(f, np.inf)
        for v in (rep.direct_value, rep.char_k, rep.char_rearr):
            assert 0.3 * lo <= v <= 2.0 * hi

    def test_homogeneous(self):
        f = random_field(32, seed=99)
        scaled = unit_field(3.5 * f.data)
        a = yudovich_norm(f, LINEAR)
        b = yudovich_norm(scaled, LINEAR)
        assert b.direct_value == pytest.approx(3.5 * a.direct_value, rel=1e-10)
        assert b.char_rearr == pytest.approx(3.5 * a.char_rearr, rel=1e-10)
        assert b.char_k == pytest.approx(3.5 * a.char_k, rel=1e-10)

    def test_monotone_in_growth(self):
        f = log_power_field(128)
        small = yudovich_norm(f, QUADRATIC)
        big = yudovich_norm(f, LINEAR)
        # finite values, or inf <= inf would pass without comparing anything
        for rep in (small, big):
            assert np.isfinite([rep.direct_value, rep.char_rearr]).all()
        assert small.direct_value <= big.direct_value + 1e-12
        assert small.char_rearr <= big.char_rearr + 1e-12

    def test_bmo_prototype_stable_rearr(self):
        # f ~ |log rho| with linear growth: the rearrangement form plateaus
        vals = [
            yudovich_norm(log_power_field(n, alpha=0.0), LINEAR).char_rearr
            for n in (128, 256)
        ]
        assert vals[1] < 1.1 * vals[0]

    def test_table_forms_in_band(self):
        f = log_power_field(256)
        rep = yudovich_norm(f, LINEAR)
        for r in ratios(rep).values():
            assert 0.05 < r < 20.0


class TestSharpYudovichNorm:
    def test_constant_killed(self):
        rep = sharp_yudovich_norm(unit_field(np.full((16, 16), 9.0)), CONST)
        assert rep.direct_value == 0.0
        assert rep.char_rearr == 0.0

    def test_vanishing_growth_rejected(self):
        # Theta(-log t) = log^2 1 = 0 at t = 1/e: the form once divided by it
        g = GrowthFunction.log_power(1.0, (2.0,))
        with pytest.raises(NonPositiveArgument, match=r"growth logpower\(1;2\) has Theta\(1\) = 0"):
            sharp_yudovich_norm(random_field(16, seed=106), g)

    def test_flat_growth_comparable_to_bmo(self):
        f = random_field(64, seed=100)
        rep = sharp_yudovich_norm(f, CONST, p0=1.0)
        bmo = dyadic_bmo_norm(f)
        assert 0.1 * bmo <= rep.direct_value <= 4.0 * bmo

    def test_p0_free_rearrangement_form(self):
        f = log_power_field(64)
        vals = [
            sharp_yudovich_norm(f, LINEAR, p0=p0).char_rearr for p0 in (1.0, 2.0, 4.0)
        ]
        assert vals[0] == vals[1] == vals[2]

    def test_homogeneous(self):
        f = random_field(32, seed=101)
        a = sharp_yudovich_norm(f, LINEAR)
        b = sharp_yudovich_norm(unit_field(2.0 * f.data), LINEAR)
        assert b.direct_value == pytest.approx(2.0 * a.direct_value, rel=1e-10)
        assert b.char_rearr == pytest.approx(2.0 * a.char_rearr, rel=1e-10)

    def test_separating_example(self):
        # log^2 singularity with linear growth: sharp side stays put while
        # the plain side climbs with resolution
        sharp_vals, plain_vals = [], []
        for n in (128, 256):
            f = log_power_field(n)
            sharp_vals.append(sharp_yudovich_norm(f, LINEAR).char_small_t)
            plain_vals.append(yudovich_norm(f, LINEAR).char_small_t)
        assert sharp_vals[1] < 1.08 * sharp_vals[0]
        assert plain_vals[1] > 1.08 * plain_vals[0]


class TestEmbeddingGap:
    def test_bounded_field_both_finite(self):
        f = random_field(64, seed=102)
        rep = embedding_gap_report(f, CONST)
        assert np.isfinite(rep.ratio_sharp_over_plain)
        assert rep.plain.direct_value > 0
        assert rep.sharp.direct_value > 0
        assert math.isfinite(rep.ratio_sharp_over_plain)

    def test_reports_are_the_plain_and_sharp_norms_at_index_one(self):
        f = random_field(16, seed=103)
        rep = embedding_gap_report(f, LINEAR)
        assert rep.plain == yudovich_norm(f, LINEAR)
        assert rep.sharp == sharp_yudovich_norm(f, LINEAR, p0=1.0)
        assert rep.sharp.params == {"growth": LINEAR.name, "p0": 1.0, "lambda": 0.25}

    def test_table_consistency_across_resolution(self):
        # forms of the same norm keep stable ratios as the grid refines
        reps = {n: yudovich_norm(log_power_field(n), QUADRATIC) for n in (256, 512)}
        for key in ratios(reps[256]):
            drift = ratios(reps[512])[key] / ratios(reps[256])[key]
            assert 0.75 < drift < 1.25


@pytest.mark.parametrize("p0", [0.0, -1.0, np.nan, np.inf])
def test_index_must_be_finite_and_positive(p0):
    # p0 = nan once warned "invalid value encountered in cast" in geomspace
    with pytest.raises(NonPositiveArgument, match="p0 must be finite and > 0"):
        default_p_grid(p0)
    for norm in (yudovich_norm, sharp_yudovich_norm):
        with pytest.raises(NonPositiveArgument, match="p0 must be finite and > 0"):
            norm(random_field(8, seed=104), LINEAR, p0=p0)


@pytest.mark.parametrize("p0", [1.0, 4.0, 501.0, 502.0, 600.0, 1e4])
def test_default_p_grid_rises_above_p0(p0):
    # geomspace(1.02 p0, 512) ran downward once p0 > 512 / 1.02 (612 -> 512 at
    # p0 = 600); where it rose it is unchanged, bit for bit
    ps = default_p_grid(p0)
    assert len(ps) == 24 and ps[0] == 1.02 * p0 > p0
    assert np.all(np.diff(ps) > 0.0)
    if 1.02 * p0 < 512.0:
        assert np.array_equal(ps, np.geomspace(1.02 * p0, 512.0, 24))
    else:
        assert ps[-1] == pytest.approx(2.04 * p0, rel=1e-15)


@pytest.mark.parametrize("p0", [1e308, 1.7e308])
def test_index_whose_grid_passes_the_float_range(p0):
    # the grid's top 2.04 p0 overflowed and geomspace warned "invalid value
    # encountered in multiply", in the grid and in both reports
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidExponent, match=re.escape(f"p0 = {p0:g} takes the exponent grid")):
            default_p_grid(p0)
        for norm in (yudovich_norm, sharp_yudovich_norm):
            with pytest.raises(InvalidExponent, match=re.escape(f"p0 = {p0:g}")):
                norm(random_field(8, seed=104), LINEAR, p0=p0)
        ps = default_p_grid(8.7e307)  # its top 1.77e308 is finite
        assert np.all(np.isfinite(ps)) and np.all(np.diff(ps) > 0.0)


def test_a_form_past_the_float_range_is_a_typed_error():
    # ||f||_p / 1e-10 overflowed with a warning, and then every form read 0.0
    f = GridField(1e300 * np.random.default_rng(107).standard_normal((16, 16)))
    g = GrowthFunction.constant(1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (yudovich_norm, sharp_yudovich_norm):
            with pytest.raises(InvalidArgument, match="passes the float range"):
                norm(f, g)


@pytest.mark.parametrize("g", [CONST, LINEAR, QUADRATIC, GrowthFunction.log_power(1.0, (2.0,), shifted=True)])
def test_direct_value_matches_the_scalar_loop(g):
    # one Theta call over the p grid gives the bits of one call per p
    f = random_field(32, seed=105)
    for norm, prof, p0 in ((yudovich_norm, rearrange(f), 2.0),
                           (sharp_yudovich_norm, rearrange(sharp_maximal(f)), 4.0)):
        ref = max(prof.lp(float(p)) / float(g(float(p))) for p in default_p_grid(p0))
        assert norm(f, g, p0=p0).direct_value == ref


@pytest.mark.parametrize("p0", [60.0, 120.0])
@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
def test_reports_at_a_large_index(p0, domain):
    # the K form's s^(-p0) overflowed past p0 = 51.4 ("overflow encountered in
    # power", or NonPositiveArgument without the warning filter)
    f = GridField(np.random.default_rng(106).standard_normal((16, 16)), domain)
    g = GrowthFunction.power(1.0, shift=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for norm in (yudovich_norm, sharp_yudovich_norm):
            forms = every_form(norm(f, g, p0=p0))
            assert all(np.isfinite(v) and v > 0.0 for v in forms)


FORMS = ("direct_value", "char_k", "char_rearr", "char_rearr_star", "char_small_t")


class TestNormProperties:
    @given(
        st.sampled_from((8, 16)), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3),
        st.sampled_from((CONST, LINEAR, QUADRATIC)),
    )
    def test_every_form_is_homogeneous(self, n, seed, c, g):
        f = random_field(n, seed)
        scaled = unit_field(c * f.data)
        for norm in (yudovich_norm, sharp_yudovich_norm):
            a, b = norm(f, g), norm(scaled, g)
            for form in FORMS:
                assert getattr(b, form) == pytest.approx(c * getattr(a, form), rel=1e-12)
