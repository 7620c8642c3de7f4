"""Entries met with exponents, indices and samples at the ends of the float
range.  Each case raises the stated OsgoodError, naming the argument at
fault, or returns the stated finite value; Tier-1 turns every RuntimeWarning
into an error, so none escapes.  The comment on each group says what it did
before."""

import math
import warnings

import numpy as np
import pytest

from osgood.bands import band_profile, besov_norm, besov_norm_seq, decompose, thmve_equivalence_report, vishik_norm
from osgood.biot import biot_savart, envelope_curve, modulus_envelope
from osgood.errors import InvalidExponent, InvalidField, NonPositiveArgument, OsgoodError
from osgood.field import GridField, dyadic_bmo_norm, fefferman_stein_sharp, lp_norm, rearrange
from osgood.growth import (
    GrowthFunction, OsgoodOrientation, OsgoodSpec, osgood_from_growth, osgood_test, pclass_check, theta1, yudovich,
    yudovich_eval,
)
from osgood.kfunc import (
    BandSequence, _sup_finite_ratio, extrapolation_sup, k_lp_bmo, k_lp_linf, k_lp_linf_profile, k_seq,
    modulus_of_continuity,
)
from osgood.spaces import default_p_grid, sharp_yudovich_norm, yudovich_norm

FIELD = GridField(np.random.default_rng(7).standard_normal((16, 16)))
DECOMP = decompose(FIELD, warn_nyquist=False)
SEQ = DECOMP.band_norms()
AFFINE = GrowthFunction.power(1.0, p0=1.0, shift=1.0)
LOG_POWER = GrowthFunction.log_power(1.0, (1.0,))
CURVE = k_lp_linf(FIELD, 1.0)
CONSTANT_1E308 = np.full((16, 16), 1e308)
PEAKS_1E308 = np.where(np.add.outer(np.arange(16), np.arange(16)) % 2 == 0, 1e308, 0.0)
TWO_BANDS = BandSequence(((0, 1e-10), (3, 1e-10)))
BETA_EDGE = 1023.0 / 3 - 1e-9  # 2^(3 beta) is finite, t 2^(3 beta) is not for t above 2


def exact_k_form(seq, g, beta, kappa):
    """thmve_equivalence_report's K form, sup_t K(t) / (t y(1/t)) over its 96
    t, with the sequence K summed in Python floats, where a product past the
    floats is a silent inf and min keeps the 2^(j (beta - kappa)) term; the t
    grid starts three bands below the last crossover, or at the least normal."""
    ts = np.geomspace(max(2.0 ** (-(int(seq.js.max()) + 3) * kappa), np.finfo(float).tiny), 8.0, 96)
    k = [sum(min(2.0 ** (j * (beta - kappa)), t * 2.0 ** (j * beta)) * v for j, v in seq.entries) for t in ts.tolist()]
    return _sup_finite_ratio(np.array(k), ts * yudovich(g, 1.0 / ts))


def tail_ratio_matches_direct_sum(g, kappa):
    """pclass_check passes at kappa, and its tail ratio is the worst of
    sum_{j>=N} 2^(-(j-N) kappa) Pi(j) / Pi(N) over the 64 heads N and 4000
    terms, summed in Python floats, where 2^(-(j-N) kappa) underflows to 0
    only past every term that counts."""
    rep = pclass_check(g, kappa)
    pis = [float(g(float(j))) for j in range(4000)]
    direct = max(sum(2.0 ** (-(j - n) * kappa) * pis[j] for j in range(n, 4000)) / pis[n] for n in range(64))
    return rep.all_pass and math.isclose(rep.tail_ratio, direct, rel_tol=1e-12)


CASES = {
    # 2^(j beta) overflowed ("power" at 1e300, "multiply" at +-1e308); the
    # Vishik sup then skipped the inf partials and read the j = 0 ratio
    "besov_norm_seq beta=1e300": (lambda: besov_norm_seq(SEQ, 1e300), InvalidExponent, "beta = 1e+300"),
    "besov_norm_seq beta=1e308": (lambda: besov_norm_seq(SEQ, 1e308), InvalidExponent, "beta = 1e+308"),
    "besov_norm_seq beta=-1e308": (lambda: besov_norm_seq(SEQ, -1e308), InvalidExponent, "beta = -1e+308"),
    "besov_norm beta=1e300": (lambda: besov_norm(DECOMP, 1e300), InvalidExponent, "beta = 1e+300"),
    "besov_norm beta=1e308": (lambda: besov_norm(DECOMP, 1e308), InvalidExponent, "beta = 1e+308"),
    "vishik_norm beta=1e300": (lambda: vishik_norm(DECOMP, AFFINE, 1e300), InvalidExponent, "beta = 1e+300"),
    "vishik_norm beta=1e308": (lambda: vishik_norm(DECOMP, AFFINE, 1e308), InvalidExponent, "beta = 1e+308"),
    "thmve_equivalence_report beta=1e300": (
        lambda: thmve_equivalence_report(SEQ, AFFINE, 1e300, 1.0), InvalidExponent, "beta = 1e+300"),
    # the weights are finite but 2^1023 |b_3| overflowed ("multiply")
    "besov_norm_seq beta=341": (lambda: besov_norm_seq(SEQ, 1023.0 / 3), InvalidExponent, "beta = 341"),
    "vishik_norm beta=341": (lambda: vishik_norm(SEQ, AFFINE, 1023.0 / 3), InvalidExponent, "beta = 341"),
    # every weight 2^(-j 1e300) but j = 0's underflows to 0: the j = 0 band alone
    "besov_norm_seq beta=-1e300": (lambda: besov_norm_seq(SEQ, -1e300), None, SEQ.norms[0]),
    "vishik_norm beta=-1e300": (lambda: vishik_norm(SEQ, AFFINE, -1e300), None, SEQ.norms[0]),
    # 2^(j s1) overflowed, and K(0) read 0 * inf = nan
    "k_seq s1=1e301 t=0": (lambda: k_seq(SEQ, 0.0, 1e301, 0.0), None, 0.0),
    "k_seq s1=1e301 t=inf": (lambda: k_seq(SEQ, 0.0, 1e301, np.inf), None, float(np.sum(SEQ.norms))),
    "k_seq s1=1e301 t=1": (lambda: k_seq(SEQ, 0.0, 1e301, 1.0), InvalidExponent, "s1 = 1e+301"),
    # t 2^(j s1) overflowed ("multiply"), or read inf * 0 = nan ("invalid")
    # where 2^(j s1) underflowed; each such term is the 2^(j s0) one
    "k_seq t=1.7e308": (lambda: k_seq(SEQ, 0.0, 1.0, 1.7e308), None, float(np.sum(SEQ.norms))),
    "k_seq s1=-1500 t=inf": (lambda: k_seq(SEQ, -2000.0, -1500.0, np.inf), None, SEQ.norms[0]),
    "thmve_equivalence_report beta=341-1e-9": (
        lambda: thmve_equivalence_report(TWO_BANDS, AFFINE, BETA_EDGE, 1.0).k_form, None,
        exact_k_form(TWO_BANDS, AFFINE, BETA_EDGE, 1.0)),
    # -j kappa log 2 read inf * 0 = nan ("invalid") or overflowed, and a nan
    # kappa passed into a report whose witness read "tail term 0 is nan"
    "pclass_check kappa=inf": (lambda: pclass_check(AFFINE, np.inf), InvalidExponent, "kappa = inf"),
    "pclass_check kappa=-inf": (lambda: pclass_check(AFFINE, -np.inf), InvalidExponent, "kappa = -inf"),
    "pclass_check kappa=nan": (lambda: pclass_check(AFFINE, np.nan), InvalidExponent, "kappa = nan"),
    "pclass_check kappa=1.7e308": (lambda: pclass_check(AFFINE, 1.7e308), InvalidExponent, "kappa = 1.7e+308"),
    # 2^(-N kappa) Pi(N) and its tail both underflowed to 0 past N kappa of
    # about 1074, and 0/0 read as an infinite ratio at head 61 (kappa = 18)
    "pclass_check kappa=18": (lambda: tail_ratio_matches_direct_sum(AFFINE, 18.0), None, True),
    "pclass_check kappa=30": (lambda: tail_ratio_matches_direct_sum(AFFINE, 30.0), None, True),
    # with the class check passing, 1 / t overflowed ("divide") at kappa = 175,
    # and np.geomspace raised an untyped ValueError from t = 0 at kappa = 200;
    # the t grid now stops at the least normal float, and only a last
    # crossover 2^(-3 kappa) below it (kappa > 1022 / 3) is refused
    "thmve_equivalence_report kappa=170": (
        lambda: thmve_equivalence_report(SEQ, AFFINE, 0.0, 170.0).k_form, None, exact_k_form(SEQ, AFFINE, 0.0, 170.0)),
    "thmve_equivalence_report kappa=175": (
        lambda: thmve_equivalence_report(SEQ, AFFINE, 0.0, 175.0).k_form, None, exact_k_form(SEQ, AFFINE, 0.0, 175.0)),
    "thmve_equivalence_report kappa=200": (
        lambda: thmve_equivalence_report(SEQ, AFFINE, 0.0, 200.0).k_form, None, exact_k_form(SEQ, AFFINE, 0.0, 200.0)),
    "thmve_equivalence_report kappa=341": (
        lambda: thmve_equivalence_report(SEQ, AFFINE, 0.0, 341.0), InvalidExponent, "kappa = 341"),
    "thmve_equivalence_report kappa=inf": (
        lambda: thmve_equivalence_report(SEQ, AFFINE, 0.0, np.inf), InvalidExponent, "kappa = inf"),
    "thmve_equivalence_report kappa=-inf": (
        lambda: thmve_equivalence_report(SEQ, AFFINE, 0.0, -np.inf), InvalidExponent, "kappa = -inf"),
    "thmve_equivalence_report kappa=1.7e308": (
        lambda: thmve_equivalence_report(SEQ, AFFINE, 0.0, 1.7e308), InvalidExponent, "kappa = 1.7e+308"),
    # the Yudovich hull's 1/p overflowed
    "yudovich p0=5e-324": (
        lambda: yudovich(GrowthFunction.power(1.0, p0=5e-324), 10.0), InvalidExponent, "p0 = 4.94066e-324"),
    # the block mean's sum overflowed, then the output named "samples must be finite"
    "dyadic_bmo_norm constant 1e308": (
        lambda: dyadic_bmo_norm(GridField(CONSTANT_1E308)), InvalidField, "cube sums pass the float range"),
    "dyadic_bmo_norm peaks 1e308": (
        lambda: dyadic_bmo_norm(GridField(PEAKS_1E308)), InvalidField, "cube sums pass the float range"),
    "fefferman_stein_sharp constant 1e308": (
        lambda: fefferman_stein_sharp(GridField(CONSTANT_1E308)), InvalidField, "cube sums pass the float range"),
    "fefferman_stein_sharp peaks 1e308": (
        lambda: fefferman_stein_sharp(GridField(PEAKS_1E308)), InvalidField, "cube sums pass the float range"),
    # Theta(p0) / s overflowed at 1e300; exp(log y) at 1.2e307, then the form read 0.0
    "extrapolation_sup log-power p0=1e300": (
        lambda: extrapolation_sup(CURVE, LOG_POWER, 1e300), InvalidExponent, "p0 = 1e+300"),
    "extrapolation_sup log-power p0=1.2e307": (
        lambda: extrapolation_sup(CURVE, LOG_POWER, 1.2e307), InvalidExponent, "p0 = 1.2e+307"),
    # exp(log y) overflowed ("exp"), or 2 fc in the vertex step ("multiply")
    "yudovich power alpha=1e300": (
        lambda: yudovich(GrowthFunction.power(1e300, p0=2.0), 10.0), InvalidExponent, "growth p^1e+300"),
    "yudovich log-power alpha=1e300": (
        lambda: yudovich(GrowthFunction.log_power(1e300, (1.0,)), 10.0), InvalidExponent, "logpower(1e+300;1)"),
    "yudovich log-power alpha=1.7e308": (
        lambda: yudovich(GrowthFunction.log_power(1.7e308, (1.0,)), 10.0), InvalidExponent, "logpower(1.7e+308;1)"),
    "yudovich log-power p0=1.7e308": (
        lambda: yudovich(GrowthFunction.log_power(1.0, (1.0,), p0=1.7e308), 10.0), InvalidExponent, "logpower(1;1)"),
    # Theta(p0) overflowed in the closed form, silently: y read inf
    "yudovich power alpha=1e300 r=0.5": (
        lambda: yudovich(GrowthFunction.power(1e300, p0=2.0), 0.5), InvalidExponent, "growth p^1e+300"),
    "yudovich_eval power alpha=1e300 r=1": (
        lambda: yudovich_eval(GrowthFunction.power(1e300, p0=2.0), 1.0), InvalidExponent, "growth p^1e+300"),
    # the even power erased the sign: K(-1) read K(1)
    "k_lp_linf_profile t=-1": (
        lambda: k_lp_linf_profile(rearrange(FIELD), 2.0, [-1.0]), NonPositiveArgument, "t must be >= 0, got -1"),
    # t^p0 = inf was passed on as a measure, and raised NonPositiveArgument
    "k_lp_linf_profile p0=0.5 t=inf": (
        lambda: k_lp_linf_profile(rearrange(FIELD), 0.5, [np.inf]).k_values[0], None,
        rearrange(FIELD).power_integral(2.0 * FIELD.total_measure, 0.5) ** 2.0),
}


@pytest.mark.parametrize("case", CASES)
def test_float_range_case(case):
    call, error, expect = CASES[case]
    if error is None:
        assert call() == expect
    else:
        assert issubclass(error, OsgoodError)
        with pytest.raises(error) as info:
            call()
        assert expect in str(info.value)


def test_finite_band_weights_keep_their_bits():
    # the weight check runs ahead of the old arithmetic, which is unchanged
    js, norms = SEQ.js, SEQ.norms
    for beta in (-3.0, 0.0, 1.0, 1000.0 / js.max()):
        assert besov_norm_seq(SEQ, beta) == float(np.sum(2.0 ** (js * beta) * norms))
    t = np.array([0.0, 1e-3, 1.0, np.inf])
    expect = np.sum(np.minimum(2.0 ** (js * 0.5), t[:, None] * 2.0 ** (js * 1.5)) * norms, axis=-1)
    assert np.array_equal(k_seq(SEQ, 0.5, 1.5, t), expect)


# the hostile float values, one argument at a time, the others ordinary
HOSTILE = [np.nan, np.inf, -np.inf, 0.0, -1.0, 1e-300, 5e-324, 1e300, 1.7e308, 120.0, 0.5, 2.0]
LIFTED = theta1(GrowthFunction.power(1.0))
PROFILE = rearrange(FIELD)
R_BOTH_SIDES = [0.5, 10.0]  # the closed form and the Legendre search
MEAN_FREE = GridField(FIELD.data - FIELD.data.mean())


def envelope_values(beta):
    env = modulus_envelope(MEAN_FREE, beta, GrowthFunction.power(1.0))
    return np.concatenate([env.measured, env.envelope, [env.fitted_c]])


def equivalence_forms(rep):
    return [rep.partial_sum_form, rep.k_form, rep.alpha_sup_form]


def norm_forms(rep):
    return [rep.direct_value, rep.char_k, rep.char_rearr, rep.char_rearr_star, rep.char_small_t]


def growth_values(g):
    """Theta at p = 1, 2, 10 and y on both sides of r."""
    return np.concatenate([g(np.array([1.0, 2.0, 10.0])), yudovich(g, R_BOTH_SIDES)])


def class_values(kappa):
    """pclass_check's doubling constant, and its tail ratio where the tail
    check passes (a failing one has a witness and no ratio)."""
    rep = pclass_check(AFFINE, kappa)
    return [rep.doubling_constant] + ([rep.tail_ratio] if rep.passes["tail_sum"] else [])


def evaluation_values(ev):
    return [ev.value, ev.argmin_p]


def march_values(spec):
    res = osgood_test(spec)
    return np.concatenate([[res.partial_integral], res.trace.ravel()])


def osgood_power(orientation):
    return lambda x: march_values(osgood_from_growth(GrowthFunction.power(x), orientation))


SWEEP = {
    "k_seq s0": lambda x: k_seq(SEQ, x, 1.5, 1.0),
    "k_seq s1": lambda x: k_seq(SEQ, 0.5, x, 1.0),
    "k_seq t": lambda x: k_seq(SEQ, 0.5, 1.5, x),
    "envelope_curve h": lambda x: envelope_curve(LIFTED, [x], 1.0),
    "envelope_curve norm_reference": lambda x: envelope_curve(LIFTED, [0.1, 1.0], x),
    "modulus_of_continuity spacing": lambda x: modulus_of_continuity([FIELD.data], x, [0.1, 1.0]),
    "modulus_of_continuity h": lambda x: modulus_of_continuity([FIELD.data], FIELD.spacing, [x]),
    "modulus_envelope beta": envelope_values,
    "k_lp_linf_profile t p0=2": lambda x: k_lp_linf_profile(PROFILE, 2.0, [x]).k_values,
    "k_lp_linf_profile t p0=0.5": lambda x: k_lp_linf_profile(PROFILE, 0.5, [x]).k_values,
    "yudovich power alpha": lambda x: yudovich(GrowthFunction.power(x, p0=2.0), R_BOTH_SIDES),
    "yudovich log-power alpha": lambda x: yudovich(GrowthFunction.log_power(x, (1.0,)), R_BOTH_SIDES),
    "yudovich log-power p0": lambda x: yudovich(GrowthFunction.log_power(1.0, (1.0,), p0=x), R_BOTH_SIDES),
    "besov_norm_seq beta": lambda x: besov_norm_seq(SEQ, x),
    "vishik_norm beta": lambda x: vishik_norm(SEQ, AFFINE, x),
    "thmve_equivalence_report beta": lambda x: equivalence_forms(thmve_equivalence_report(SEQ, AFFINE, x, 1.0)),
    "thmve_equivalence_report kappa": lambda x: equivalence_forms(thmve_equivalence_report(SEQ, AFFINE, 0.0, x)),
    "pclass_check kappa": class_values,
    "extrapolation_sup p0": lambda x: extrapolation_sup(CURVE, AFFINE, x),
    "k_lp_linf p0": lambda x: k_lp_linf(FIELD, x).k_values,
    "k_lp_bmo p0": lambda x: k_lp_bmo(FIELD, x).k_values,
    "lp_norm p": lambda x: lp_norm(FIELD, x),
    "power_integral p": lambda x: PROFILE.power_integral(1.0, x),
    "power_integral t": lambda x: PROFILE.power_integral(x, 2.0),
    "star t": PROFILE.star,
    "double_star t": PROFILE.double_star,
    "default_p_grid p0": default_p_grid,
    "yudovich_norm p0": lambda x: norm_forms(yudovich_norm(FIELD, AFFINE, x)),
    "sharp_yudovich_norm p0": lambda x: norm_forms(sharp_yudovich_norm(FIELD, AFFINE, x)),
    "biot_savart beta": lambda x: np.concatenate([v.data for v in biot_savart(MEAN_FREE, x)]),
    "GrowthFunction.constant value": lambda x: growth_values(GrowthFunction.constant(x)),
    "GrowthFunction.constant p0": lambda x: growth_values(GrowthFunction.constant(1.0, x)),
    "GrowthFunction.power shift": lambda x: growth_values(GrowthFunction.power(1.0, shift=x)),
    "band_profile rho": band_profile,
    "yudovich r": lambda x: yudovich(AFFINE, x),
    "yudovich_eval r": lambda x: evaluation_values(yudovich_eval(AFFINE, x)),
    # np.sqrt, as a modulus r log(1/r) overflows in its own arithmetic at 1.7e308
    "OsgoodSpec epsilon_L": lambda x: march_values(OsgoodSpec(np.sqrt, x)),
    "osgood_test power alpha zero end": osgood_power(OsgoodOrientation.ZERO_END),
    "osgood_test power alpha infinity end": osgood_power(OsgoodOrientation.INFINITY_END),
    "envelope_curve h lifted p log p": lambda x: envelope_curve(theta1(LOG_POWER), [x], 1.0),
}


@pytest.mark.parametrize("value", HOSTILE)
@pytest.mark.parametrize("entry", SWEEP)
def test_hostile_value_gives_a_finite_result_or_a_typed_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("default", UserWarning)
        try:
            out = SWEEP[entry](value)
        except OsgoodError:
            return
    assert np.isfinite(out).all()
