import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osgood import growth as growth_module
from osgood.biot import modulus_envelope
from osgood.errors import (
    HypothesisViolated,
    InvalidArgument,
    InvalidModulus,
    NonPositiveArgument,
    OsgoodError,
    SearchDivergence,
)
from osgood.field import GridField
from osgood.kfunc import BandSequence
from osgood.growth import (
    GrowthFunction,
    OsgoodOrientation,
    OsgoodSpec,
    OsgoodVerdict,
    _EXITS,
    _quasi_decreasing_witness,
    check_hyp_quasi_decreasing,
    lemma1_ratio_scan,
    osgood_from_growth,
    osgood_test,
    pclass_check,
    theta1,
    yudovich,
    yudovich_eval,
)

CONST = GrowthFunction.constant(1.0, p0=1.0)
LINEAR = GrowthFunction.power(1.0, p0=1.0)
QUADRATIC = GrowthFunction.power(2.0, p0=1.0)
LOG = GrowthFunction.log_power(0.0, (1.0,), p0=2.0)


def dense_grid_infimum(g, r, p_hi=1e4, m=200_000):
    """Independent oracle: brute-force minimum over a dense log grid of p."""
    ps = np.geomspace(g.p0 * (1 + 1e-9), p_hi, m)
    vals = g(ps) * r ** (1.0 / ps)
    k = int(np.argmin(vals))
    return float(vals[k]), float(ps[k])


class TestYudovichEval:
    def test_small_r_closed_form_exact(self):
        # increasing objective for r < 1: infimum is the p0 boundary value
        for g in (CONST, LINEAR, QUADRATIC, LOG):
            for r in (1e-300, 1e-8, 0.37, 0.999999, 1.0):
                ev = yudovich_eval(g, r)
                assert ev.value == float(g(g.p0)) * r ** (1.0 / g.p0)
                assert ev.argmin_p == g.p0

    def test_const_half(self):
        assert yudovich_eval(CONST, 0.5).value == 0.5

    def test_const_large_r_tends_to_one(self):
        assert yudovich_eval(CONST, 100.0).value == pytest.approx(1.0, abs=1e-4)

    def test_linear_stationary_point(self):
        # oracle (dense grid) agrees with the calculus value e * log r
        r = math.exp(10.0)
        oracle_val, oracle_p = dense_grid_infimum(LINEAR, r)
        ev = yudovich_eval(LINEAR, r)
        assert ev.value == pytest.approx(10.0 * math.e, rel=1e-3)
        assert ev.value == pytest.approx(oracle_val, rel=1e-6)
        assert ev.argmin_p == pytest.approx(10.0, rel=1e-3)
        assert oracle_p == pytest.approx(10.0, rel=1e-3)

    def test_nonpositive_argument(self):
        with pytest.raises(NonPositiveArgument):
            yudovich_eval(CONST, 0.0)
        with pytest.raises(NonPositiveArgument):
            yudovich_eval(CONST, -2.0)

    def test_infinite_argument(self):
        with pytest.raises(NonPositiveArgument):
            yudovich_eval(LINEAR, math.inf)
        with pytest.raises(NonPositiveArgument):
            yudovich(LINEAR, np.array([2.0, math.inf]))

    @pytest.mark.parametrize("p0", [0.0, -1.0, math.nan, math.inf])
    def test_index_must_be_finite_and_positive(self, p0):
        with pytest.raises(NonPositiveArgument):
            GrowthFunction.power(1.0, p0=p0)
        with pytest.raises(NonPositiveArgument):
            GrowthFunction.from_table([1.0, 2.0], [1.0, 2.0], p0=p0)

    @pytest.mark.parametrize("g", [
        lambda: GrowthFunction.log_power(0.0, (1.0,), p0=1.0),
        lambda: GrowthFunction.constant(0.0),
        lambda: GrowthFunction.from_callable("nan", lambda p: np.full_like(p, np.nan)),
    ], ids=["log p at 1", "zero", "nan"])
    def test_growth_must_be_positive_at_its_index(self, g):
        # log p at p0 = 1 has y = 0 for r > 1, which the search cannot resolve
        with pytest.raises(NonPositiveArgument):
            g()

    def test_path_and_grid_top(self):
        # Theta = 1 gives r^(1/p), still falling at the grid top; p * r^(1/p)
        # is least at p = log r inside the grid; p^2 * 1.5^(1/p) is least
        # below p0 = 1, so the boundary wins; r <= 1 is in closed form
        top = yudovich_eval(CONST, 100.0)
        assert top.at_grid_top and top.path == "grid vertex"
        assert top.argmin_p == 1e12
        inner = yudovich_eval(LINEAR, math.exp(10.0))
        assert not inner.at_grid_top and inner.path == "vertex step"
        edge = yudovich_eval(QUADRATIC, 1.5)
        assert edge.path == "p0 boundary" and edge.argmin_p == 1.0
        assert edge.value == 1.5
        small = yudovich_eval(LINEAR, 0.5)
        assert small.path == "closed form" and not small.at_grid_top

    def test_nowhere_finite_objective_raises(self):
        g = GrowthFunction.from_callable("inf", lambda p: np.full_like(p, np.inf))
        with pytest.raises(SearchDivergence):
            yudovich_eval(g, 10.0)
        with pytest.raises(SearchDivergence):
            yudovich(g, np.array([0.5, 10.0]))

    def test_monotone_in_r(self):
        rs = np.geomspace(1e-4, 1e12, 60)
        for g in (CONST, LINEAR, LOG):
            vals = yudovich(g, rs)
            assert np.all(np.diff(vals) >= -1e-12 * vals[:-1])
            scaled = vals / rs ** (1.0 / g.p0)
            assert np.all(np.diff(scaled) <= 1e-12 * scaled[:-1])

    def test_const_capped_by_min(self):
        for r in np.geomspace(1e-3, 1e8, 25):
            v = yudovich_eval(CONST, r).value
            assert v <= min(r, 1.0) * (1.0 + 0.11)

    def test_claim_initial_average_bound(self):
        # (1/t) * integral of y(1/s)^p0 over (0, t) stays comparable to y(1/t)^p0
        for g in (CONST, LINEAR, LOG):
            p0 = g.p0
            ratios = []
            for t in np.geomspace(1e-6, 0.5, 12):
                s = np.geomspace(t * 1e-8, t, 600)
                ys = yudovich(g, 1.0 / s) ** p0
                integral = np.trapezoid(ys, s)
                ratios.append((integral / t) / yudovich_eval(g, 1.0 / t).value ** p0)
            ratios = np.asarray(ratios)
            assert ratios.max() / ratios.min() < 8.0


    def test_minimum_inside_first_cell(self):
        # p^2 * 8^(1/p) is least at p = ln 8 / 2, a hair above p0 = 1
        ev = yudovich_eval(QUADRATIC, 8.0)
        p_star = math.log(8.0) / 2.0
        assert ev.value == pytest.approx(p_star**2 * 8.0 ** (1.0 / p_star), rel=1e-9)
        assert ev.value == pytest.approx(7.98771211, rel=1e-9)
        assert ev.argmin_p == pytest.approx(p_star, rel=1e-4)

    @pytest.mark.parametrize("g", [
        CONST,
        LINEAR,
        QUADRATIC,
        GrowthFunction.power(0.5, p0=2.0),
        LOG,
        GrowthFunction.log_power(1.0, (2.0,), p0=2.0),
        GrowthFunction.power(1.0, p0=1.0, shift=1.0),
        GrowthFunction.log_power(1.0, (1.0,), p0=1.0, shifted=True),
        theta1(CONST),
        theta1(LOG),
    ], ids=lambda g: g.name)
    def test_scalar_and_vector_calls_agree(self, g):
        # one search serves both entry points.  The oracle window must reach
        # the infimum, which for a constant growth sits at the 1e12 edge, and
        # the oracle grid starts just above p0, so the p0 limit joins it
        rs = np.geomspace(1.001, 1e300, 13)
        vec = yudovich(g, rs)
        p_hi = 1e12 if g is CONST else 1e4
        for r, v in zip(rs, vec):
            s = yudovich_eval(g, float(r)).value
            assert s == pytest.approx(v, rel=1e-9)
            oracle_val = min(dense_grid_infimum(g, r, p_hi=p_hi)[0], float(g(g.p0)) * r ** (1.0 / g.p0))
            assert s == pytest.approx(oracle_val, rel=1e-9)
            assert v == pytest.approx(oracle_val, rel=1e-9)


def growths():
    """Power, log-power and lifted growths with p0 in [1, 3]."""
    a = st.floats(0.0, 3.0)
    base = st.one_of(
        st.builds(lambda a, p0: GrowthFunction.power(a, p0=p0), a, st.floats(1.0, 3.0)),
        # log p vanishes at p = 1, and a growth is positive at its index
        st.builds(
            lambda a, b, p0: GrowthFunction.log_power(a, (b,), p0=p0),
            a, a, st.floats(1.0, 3.0, exclude_min=True),
        ),
    )
    return st.one_of(base, base.map(theta1))


log_rs = st.lists(st.floats(-5.0, 690.0), min_size=1, max_size=24)
PROPERTY = settings.get_profile("osgood")
# the grid minimum obeys both laws up to rounding; the vertex steps lower it by
# at most the grid's interpolation error, and where the minimising hull vertex
# switches the steps taken change, so the laws hold to this relative slack
MONOTONE_SLACK = 1e-9


class TestYudovichProperties:
    @PROPERTY
    @given(growths(), log_rs)
    def test_scalar_and_vector_calls_are_identical(self, g, ls):
        rs = np.exp(ls)
        assert np.array_equal([yudovich_eval(g, r).value for r in rs], yudovich(g, rs))

    @PROPERTY
    @given(growths(), log_rs, st.integers(0, 24))
    def test_value_does_not_depend_on_the_batch(self, g, ls, cut):
        rs = np.exp(ls)
        whole = yudovich(g, rs)
        split = np.concatenate([yudovich(g, rs[:cut]), yudovich(g, rs[cut:])])
        assert np.array_equal(split, whole)
        assert np.array_equal(yudovich(g, rs[::-1])[::-1], whole)

    @PROPERTY
    @given(growths(), log_rs)
    def test_monotone_laws(self, g, ls):
        # y is non-decreasing and y(r) r^(-1/p0) = inf Theta(p) r^(1/p - 1/p0)
        # non-increasing in r
        rs = np.exp(np.sort(ls))
        ys = yudovich(g, rs)
        assert np.all(np.diff(ys) >= -MONOTONE_SLACK * ys[:-1])
        scaled = ys * rs ** (-1.0 / g.p0)
        assert np.all(np.diff(scaled) <= MONOTONE_SLACK * scaled[:-1])


def _reference_log_value(g, p):
    """log_fn(p) with np.where: +inf wherever not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        out = np.asarray(g.log_fn(np.asarray(p, dtype=float)), dtype=float)
    out = np.where(np.isfinite(out), out, np.inf)
    return out if out.shape else float(out)


def _reference_hull(g):
    """The hull as the plain monotone chain over every finite grid point."""
    ps = np.geomspace(g.p0, growth_module._P_TOP, growth_module._GRID)
    xs, phi = np.log(ps), g.log_value(ps)
    s, f = (1.0 / ps).tolist(), phi.tolist()
    hull = []
    for i in range(len(ps) - 1, -1, -1):
        if f[i] == math.inf:
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (s[b] - s[a]) * (f[i] - f[a]) > (f[b] - f[a]) * (s[i] - s[a]):
                break
            hull.pop()
        hull.append(i)
    v = np.array(hull, dtype=int)
    return ps, xs, phi, v, np.diff(phi[v]) / np.diff(1.0 / ps[v])


def _reference_legendre(g, log_r):
    """The Legendre search with np.clip and np.where, on the reference hull."""
    ps, xs, phi, v, slopes = _reference_hull(g)
    if not len(v):
        raise SearchDivergence("objective not finite anywhere")

    def objective(k):
        return phi[k] + log_r / ps[k]

    j = np.searchsorted(slopes, -log_r)
    k = v[j]
    best = objective(k)
    c = np.clip(v[np.clip(j + np.array([[-1], [0], [1]]), 0, len(v) - 1)], 1, len(ps) - 2)
    fl, fc, fr = objective(c - 1), objective(c), objective(c + 1)
    h = xs[1] - xs[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        curv = fl - 2.0 * fc + fr
        vx = np.clip(xs[c] + 0.5 * h * (fl - fr) / curv, xs[c - 1], xs[c + 1])
        fv = g.log_value(np.exp(vx)) + log_r * np.exp(-vx)
    fv = np.where((curv > 0.0) & (fv < np.inf), fv, np.inf)
    i, cols = np.argmin(fv, axis=0), np.arange(len(log_r))
    step = fv[i, cols] < best
    argmin = np.where(step, np.exp(vx[i, cols]), ps[k])
    return np.where(step, fv[i, cols], best), argmin, np.where(step, 3, np.where(k == 0, 1, 2))


def _reference_yudovich(g, r):
    """(values, argmins, paths) with every r scattered through one boolean mask."""
    rs = np.asarray(r, dtype=float)
    if np.any(~(rs > 0.0) | (rs == np.inf)):
        raise NonPositiveArgument(f"r must be finite and > 0, got {r}")
    values, argmins, path = np.empty_like(rs), np.full_like(rs, g.p0), np.zeros(rs.shape, dtype=int)
    big = rs > 1.0
    values[~big] = float(g(g.p0)) * rs[~big] ** (1.0 / g.p0)
    if big.any():
        log_y, argmins[big], path[big] = _reference_legendre(g, np.log(rs[big]))
        values[big] = np.exp(log_y)
    return values, argmins, path


def _assert_same_hull(g):
    got, ref = g._hull, _reference_hull(g)
    assert len(got) == len(ref) == 5
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _assert_same_yudovich(g, r):
    got, ref = growth_module._yudovich(g, r), _reference_yudovich(g, r)
    for a, b in zip(got, ref):
        assert a.shape == b.shape and np.array_equal(a, b)


# growths whose hull the vectorised prefix does not finish: every point
# collinear, a non-convex head near p0, a constant tail past the table, an
# infinite, a zero and a negative stretch before a constant tail, and no
# finite point at all
HULL_CASES = {
    "constant": GrowthFunction.constant(1.7, p0=1.3),
    "logpower head": GrowthFunction.log_power(0.5, (1.0,), p0=2.05),
    "clamped table": GrowthFunction.from_table([1.0, 300.0], [40.0, 12000.0]),
    "inf stretch": GrowthFunction.from_callable(
        "gap", lambda p: np.where((p > 50.0) & (p < 4e3), np.inf, np.minimum(p, 1e6) ** 0.7), p0=1.5),
    "zero and negative stretches": GrowthFunction.from_callable(
        "holes", lambda p: np.where((p > 50.0) & (p < 4e3), 0.0,
                                    np.where((p > 1e5) & (p < 1e7), -1.0, np.minimum(p, 1e6) ** 0.7)), p0=1.5),
    "nowhere finite": GrowthFunction.from_callable("inf", lambda p: np.full_like(p, np.inf)),
}
MIXED_RS = np.array([1e-300, 0.25, 0.999, 1.0, 1.0 + 2.0**-52, 1.5, 7.0, 1e3, 1e30, 1e300])


class TestYudovichKernelExactness:
    """The hull's no-pop prefix, built in one numpy pass, and the trimmed call
    path give the plain chain's and the masked scatter's bits."""

    @pytest.mark.parametrize("name", HULL_CASES)
    def test_hull_cases(self, name):
        g = HULL_CASES[name]
        _assert_same_hull(g)
        ps, _, phi, v, _ = g._hull
        # the chain pops here, so the loop runs past the prefix
        assert len(v) < np.count_nonzero(phi < np.inf) or not len(v)
        if name == "nowhere finite":
            with pytest.raises(SearchDivergence):
                yudovich(g, 10.0)
            with pytest.raises(SearchDivergence):
                yudovich(g, np.array([2.0, 10.0]))
        else:
            _assert_same_yudovich(g, MIXED_RS)
            _assert_same_yudovich(g, MIXED_RS[4:])

    @pytest.mark.parametrize("name", HULL_CASES)
    def test_log_value(self, name):
        g = HULL_CASES[name]
        for p in (g.p0, 7.0, 100.0, 1e4, 1e6, 1e12):
            assert g.log_value(p) == _reference_log_value(g, p)
            assert isinstance(g.log_value(p), float)

    @PROPERTY
    @given(growths())
    def test_hull_property(self, g):
        _assert_same_hull(g)

    @PROPERTY
    @given(growths(), log_rs)
    def test_call_path_mixing_both_sides_of_one(self, g, ls):
        _assert_same_yudovich(g, np.exp(ls))

    @PROPERTY
    @given(growths(), st.lists(st.floats(0.01, 690.0), min_size=1, max_size=24))
    def test_call_path_above_one(self, g, ls):
        rs = np.exp(ls)
        _assert_same_yudovich(g, rs)
        if len(rs) % 2 == 0:
            _assert_same_yudovich(g, rs.reshape(2, -1))

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 1e40], ids=str)
    def test_scalar_and_zero_d(self, r):
        for g in (LINEAR, HULL_CASES["logpower head"], theta1(CONST)):
            _assert_same_yudovich(g, r)
            _assert_same_yudovich(g, np.array(r))
            assert isinstance(yudovich(g, r), float) and isinstance(yudovich(g, np.array(r)), float)
            assert yudovich(g, r) == float(_reference_yudovich(g, r)[0])

    def test_empty_array(self):
        out = yudovich(LINEAR, np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        _assert_same_yudovich(LINEAR, np.array([]))
        # no hull is needed, so not even a nowhere-finite growth raises
        assert yudovich(HULL_CASES["nowhere finite"], np.array([])).shape == (0,)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf], ids=str)
    def test_bad_argument(self, bad):
        for r in (bad, np.array(bad), np.array([bad]), np.array([2.0, bad, 5.0]), np.array([0.5, bad])):
            with pytest.raises(NonPositiveArgument):
                yudovich(LINEAR, r)
        with pytest.raises(NonPositiveArgument):
            yudovich_eval(LINEAR, bad)


class TestTheta1:
    def test_pointwise_product(self):
        g = theta1(LINEAR)
        ps = np.geomspace(1.0, 100.0, 17)
        assert np.allclose(g(ps), ps**2)

    def test_log_growth_arithmetic(self):
        g = theta1(LOG)
        assert g(17.0) == pytest.approx(48.16462684895567, rel=1e-12)

    def test_const_lift_gives_log_yudovich(self):
        # y for p -> p behaves like log t above e^p0
        g = theta1(CONST)
        ts = np.geomspace(20.0, 1e9, 24)
        ratios = yudovich(g, ts) / np.log(ts)
        assert ratios.max() / ratios.min() < 1.2
        assert ratios.mean() == pytest.approx(math.e, rel=0.05)


@pytest.mark.parametrize("g", [
    GrowthFunction.constant(2.0), GrowthFunction.power(1.5, shift=1.0),
    GrowthFunction.log_power(1.0, (1.0, 2.0), shifted=True), theta1(LINEAR),
], ids=["constant", "power", "log_power", "theta1"])
def test_growth_fn_takes_only_p(g):
    # the family values are captured by closure: no keyword can override them
    assert list(inspect.signature(g.log_fn).parameters) == ["p"]


def _old_power(a, s=0.0):
    return lambda p: (p + s) ** a


def _old_log_power(a, las, shifted=False):
    def fn(p):
        out = (p + 1.0 if shifted else p) ** a
        arg = p + math.e if shifted else p
        for am in las:
            arg = np.log(arg)
            out = out * arg ** am
        return out

    return fn


def _old_table(pv, tv):
    lp, lt = np.log(pv), np.log(tv)
    return lambda p: np.exp(np.interp(np.log(np.maximum(p, pv[0])), lp, lt))


TABLE = (np.array([1.0, 10.0, 100.0, 1e4]), np.array([1.0, 2.0, 3.0, 5.0]))
# (growth, the Theta formula it was built from before it was given by its log)
FORMULA_CASES = {
    "constant": (GrowthFunction.constant(1.7, p0=1.3), lambda p: np.full_like(p, 1.7)),
    "power": (GrowthFunction.power(2.5, p0=1.5), _old_power(2.5)),
    "shifted power": (GrowthFunction.power(0.5, p0=1.0, shift=1.0), _old_power(0.5, 1.0)),
    "cube": (GrowthFunction.power(3.0), _old_power(3.0)),
    "logpower": (GrowthFunction.log_power(1.0, (2.0,), p0=2.0), _old_log_power(1.0, (2.0,))),
    "two logs": (GrowthFunction.log_power(0.5, (1.0, 1.0), p0=3.0), _old_log_power(0.5, (1.0, 1.0))),
    "shifted logpower": (GrowthFunction.log_power(1.0, (1.0,), p0=1.0, shifted=True),
                         _old_log_power(1.0, (1.0,), shifted=True)),
    "table": (GrowthFunction.from_table(*TABLE), _old_table(*TABLE)),
    "lifted power": (theta1(GrowthFunction.power(0.25)), lambda p: p * p ** 0.25),
    "lifted logpower": (theta1(LOG), lambda p: p * np.log(p)),
    "callable": (GrowthFunction.from_callable("sqrt(p)+1", lambda p: np.sqrt(p) + 1.0), lambda p: np.sqrt(p) + 1.0),
}
FORMULA_TOL = 1e-13


class TestLogRepresentation:
    """Each family gives log Theta in closed form; Theta is its exp.  Against
    the Theta formulas they replaced, Theta and y move by rounding only."""

    @pytest.mark.parametrize("name", FORMULA_CASES)
    def test_theta_matches_the_formula(self, name):
        g, fn = FORMULA_CASES[name]
        ps = np.geomspace(g.p0, 1e12, 2000)
        with np.errstate(over="ignore"):
            old = fn(ps)
        finite = np.isfinite(old)
        assert finite.sum() >= 1000
        assert np.allclose(g(ps)[finite], old[finite], rtol=FORMULA_TOL, atol=0.0)

    @pytest.mark.parametrize("name", FORMULA_CASES)
    def test_yudovich_matches_the_formula(self, name):
        # the growth built from the formula takes its log as phi, as the
        # search once did
        g, fn = FORMULA_CASES[name]
        rs = np.concatenate([np.geomspace(1e-300, 1.0, 20), np.geomspace(1.0 + 1e-9, 1e300, 400)])
        old = yudovich(GrowthFunction.from_callable("formula", fn, p0=g.p0), rs)
        assert np.allclose(yudovich(g, rs), old, rtol=FORMULA_TOL, atol=0.0)

    @pytest.mark.parametrize("g", [
        GrowthFunction.power(3.0), GrowthFunction.log_power(1.0, (2.0,)), theta1(GrowthFunction.power(0.25)),
    ], ids=lambda g: g.name)
    def test_log_is_finite_where_theta_overflows(self, g):
        p = 1e305
        x = math.log(p)
        expected = {"p^3": 3.0 * x, "logpower(1;2)": x + 2.0 * math.log(x), "p*p^0.25": 1.25 * x}[g.name]
        assert math.isfinite(g.log_value(p)) and g.log_value(p) == pytest.approx(expected, rel=1e-15)
        assert np.all(np.isfinite(g.log_value(np.array([1e200, 1e250, p]))))
        # Theta itself overflows there, to +inf and with no warning
        assert g(p) == math.inf

    def test_exponent_zero_is_one_everywhere(self):
        # x**0 = 1 at every x, so a zero exponent adds 0 to log Theta even
        # where its base is 0 or an iterated log is negative
        assert GrowthFunction.power(0.0)(0.0) == 1.0
        assert GrowthFunction.log_power(1.0, (0.0, 1.0), p0=3.0)(3.0) == pytest.approx(3.0 * math.log(math.log(3.0)))


class TestLemma1RatioScan:
    def test_const_ratios_near_one(self):
        out = lemma1_ratio_scan(CONST, np.geomspace(20.0, 1e8, 16))
        assert np.all(np.abs(out["ratios"] - 1.0) < 0.05)

    def test_linear_ratio_is_e(self):
        out = lemma1_ratio_scan(LINEAR, np.geomspace(30.0, 1e8, 16))
        assert np.allclose(out["ratios"], math.e, rtol=1e-6)

    def test_log_band_bounded(self):
        out = lemma1_ratio_scan(LOG, np.geomspace(math.exp(4.5), math.exp(20.0), 16))
        assert out["band_width"] < 3.0
        # cross-check a few points against the dense-grid oracle
        for r in (math.e**5, math.e**12, math.e**20):
            oracle_val, _ = dense_grid_infimum(LOG, r)
            assert yudovich_eval(LOG, r).value == pytest.approx(oracle_val, rel=1e-6)

    def test_exponential_growth_rejected(self):
        g = GrowthFunction.from_callable("2^p", lambda p: 2.0**p, p0=1.0)
        with pytest.raises(HypothesisViolated):
            lemma1_ratio_scan(g, np.geomspace(20.0, 1e6, 8))

    def test_r_floor_enforced(self):
        with pytest.raises(ValueError):
            lemma1_ratio_scan(CONST, [1.5])

    def test_empty_grid_rejected_up_front(self):
        # an exponential growth fails the hypothesis check: the grid is checked first
        for g in (CONST, GrowthFunction.from_callable("2^p", lambda p: 2.0**p, p0=1.0)):
            with pytest.raises(ValueError, match="must not be empty"):
                lemma1_ratio_scan(g, [])


class TestOsgood:
    def test_linear_divergent(self):
        spec = OsgoodSpec(modulus=lambda r: r, epsilon_L=1.0)
        assert osgood_test(spec).verdict is OsgoodVerdict.DIVERGENT

    def test_sqrt_convergent(self):
        spec = OsgoodSpec(modulus=np.sqrt, epsilon_L=1.0)
        out = osgood_test(spec)
        assert out.verdict is OsgoodVerdict.CONVERGENT
        assert out.partial_integral == pytest.approx(2.0, rel=1e-6)

    def test_r_log_divergent(self):
        # the modulus is nondecreasing only below 1/e
        spec = OsgoodSpec(modulus=lambda r: r * np.log(1.0 / r), epsilon_L=0.3)
        assert osgood_test(spec).verdict is OsgoodVerdict.DIVERGENT

    def test_r_log_squared_convergent(self):
        spec = OsgoodSpec(modulus=lambda r: r * np.log(1.0 / r) ** 2, epsilon_L=0.1)
        assert osgood_test(spec).verdict is OsgoodVerdict.CONVERGENT

    def test_lifted_const_infinity_end_divergent(self):
        # y for the lifted constant growth behaves like log r: trace grows like log log R
        spec = osgood_from_growth(CONST, OsgoodOrientation.INFINITY_END, lift=True)
        out = osgood_test(spec)
        assert out.verdict is OsgoodVerdict.DIVERGENT
        # partial sums grow roughly like log of the decade index
        sums = out.trace[:, 3]
        assert sums[-1] > sums[len(sums) // 2] > sums[len(sums) // 4]

    def test_lifted_linear_infinity_end_convergent(self):
        # lifting p -> p gives y like (log r)^2: integrand summable
        spec = osgood_from_growth(LINEAR, OsgoodOrientation.INFINITY_END, lift=True)
        assert osgood_test(spec).verdict is OsgoodVerdict.CONVERGENT

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulus):
            osgood_test(OsgoodSpec(modulus=lambda r: r - 0.5, epsilon_L=1.0))
        with pytest.raises(InvalidModulus):
            osgood_test(OsgoodSpec(modulus=lambda r: 1.0 / (1.0 + r), epsilon_L=1.0))

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
    def test_zero_end_needs_finite_positive_epsilon(self, eps):
        # a growth's own modulus under a user's epsilon_L, and a plain one
        for modulus in (osgood_from_growth(LINEAR).modulus, np.sqrt):
            with pytest.raises(NonPositiveArgument, match="epsilon_L"):
                osgood_test(OsgoodSpec(modulus=modulus, epsilon_L=eps))

    def test_zero_end_epsilon_whose_samples_underflow(self):
        # 5e-324 * 1e-8 is 0, and numpy's geomspace once raised "Geometric
        # sequence cannot include zero" from the modulus check
        with pytest.raises(NonPositiveArgument, match="epsilon_L"):
            osgood_test(OsgoodSpec(modulus=osgood_from_growth(LINEAR).modulus, epsilon_L=5e-324))

    def test_zero_end_epsilon_whose_samples_leave_the_range_of_1_over_r(self):
        # 1e-8 * 1e-310 is below 2^-1024, where a growth's modulus warned
        # "overflow encountered in divide" forming 1/r; 1e-300 is above it
        modulus = osgood_from_growth(GrowthFunction.power(0.5)).modulus
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveArgument, match="epsilon_L"):
                osgood_test(OsgoodSpec(modulus=modulus, epsilon_L=1e-310))
            out = osgood_test(OsgoodSpec(modulus=modulus, epsilon_L=1e-300))
        assert out.verdict is OsgoodVerdict.INCONCLUSIVE and out.exit == "decades exhausted"

    def test_growth_modulus_starts_at_one_half(self):
        assert osgood_from_growth(LINEAR).epsilon_L == 0.5

    def test_zero_end_stops_before_underflow(self):
        # no early exit: the march runs until e^x would underflow, log 1e-30
        # + 274 decades = log 1e-304, and the tail fit decides
        eps = 1e-30
        out = osgood_test(OsgoodSpec(modulus=lambda r: r * np.log(1.0 / r), epsilon_L=eps))
        assert len(out.trace) == int((math.log(eps) + 700.0) / math.log(10.0)) == 274
        assert out.trace[-1, 1] == pytest.approx(1e-304, rel=1e-12)
        assert out.exit == "tail fit" and out.tail_exponent is not None

    def test_infinity_end_runs_280_decades(self):
        spec = OsgoodSpec(modulus=lambda r: np.log1p(r) ** 2, orientation=OsgoodOrientation.INFINITY_END)
        out = osgood_test(spec)
        assert len(out.trace) == 280 and out.trace[-1, 1] == pytest.approx(1e280, rel=1e-12)
        assert out.verdict is OsgoodVerdict.CONVERGENT and out.exit == "tail fit"


def _nan_below(cut, value=np.nan):
    """r log(1/r), replaced by value below r = cut."""
    def modulus(r):
        r = np.asarray(r, dtype=float)
        return np.where(r < cut, value, r * np.log(1.0 / r))

    return modulus


class TestOsgoodExit:
    @pytest.mark.parametrize("spec, verdict, reason", [
        (OsgoodSpec(modulus=lambda r: r), OsgoodVerdict.DIVERGENT, "divergence threshold"),
        (OsgoodSpec(modulus=np.sqrt), OsgoodVerdict.CONVERGENT, "Cauchy stop"),
        (OsgoodSpec(modulus=lambda r: r * np.log(1.0 / r), epsilon_L=1e-30), OsgoodVerdict.DIVERGENT, "tail fit"),
        (OsgoodSpec(modulus=_nan_below(1e-12), epsilon_L=0.3), OsgoodVerdict.INCONCLUSIVE, "non-finite increment"),
        # a modulus that vanishes divides by zero: no RuntimeWarning, the same exit
        (OsgoodSpec(modulus=_nan_below(1e-12, 0.0), epsilon_L=0.3), OsgoodVerdict.INCONCLUSIVE,
         "non-finite increment"),
        # e^x underflows after 4 decades below 1e-300, too few for a tail fit
        (OsgoodSpec(modulus=np.sqrt, epsilon_L=1e-300), OsgoodVerdict.INCONCLUSIVE, "decades exhausted"),
    ], ids=["linear", "sqrt", "r log", "nan below 1e-12", "zero below 1e-12", "from 1e-300"])
    def test_exit_names_the_deciding_rule(self, spec, verdict, reason):
        out = osgood_test(spec)
        assert out.exit in _EXITS
        assert (out.verdict, out.exit) == (verdict, reason)

    def test_non_finite_increment_ends_the_march(self):
        out = osgood_test(OsgoodSpec(modulus=_nan_below(1e-12), epsilon_L=0.3))
        # 11 decades from 0.3 reach 3e-12; the next one holds nan
        assert len(out.trace) == 11 and out.trace[-1, 1] == pytest.approx(3e-12, rel=1e-12)
        assert out.partial_integral == out.trace[-1, 3] and out.tail_exponent is None


def _two_branch_osgood(spec):
    """The former march, one branch per end, with its default budget: 280
    decades, 32 nodes, 50 / 0.01 divergence exit, 1e-9 Cauchy tolerance and
    1.5 tail cut.  Returns (verdict, partial integral, trace, tail exponent)."""
    spec.validate()
    nodes, weights = np.polynomial.legendre.leggauss(32)
    ln10 = math.log(10.0)
    if spec.orientation is OsgoodOrientation.ZERO_END:
        x_start = math.log(spec.epsilon_L)

        def decade_increment(k):
            b = x_start - k * ln10
            a = b - ln10
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            r = np.exp(x)
            vals = r / np.asarray(spec.modulus(r), dtype=float)
            return float(0.5 * (b - a) * np.sum(weights * vals))

        left_endpoint = lambda k: math.exp(x_start - (k + 1) * ln10)  # noqa: E731
        max_decades = min(280, int((x_start + 700.0) / ln10))
    else:
        def decade_increment(k):
            a = k * ln10
            b = a + ln10
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = 1.0 / np.asarray(spec.modulus(np.exp(x)), dtype=float)
            return float(0.5 * (b - a) * np.sum(weights * vals))

        left_endpoint = lambda k: math.exp((k + 1) * ln10)  # noqa: E731
        max_decades = min(280, 300)
    rows, total, increments, verdict = [], 0.0, [], None
    for k in range(max_decades):
        inc = decade_increment(k)
        if not math.isfinite(inc):
            break
        total += inc
        increments.append(inc)
        rows.append((k, left_endpoint(k), inc, total))
        if total > 50.0 and inc >= 0.01:
            verdict = OsgoodVerdict.DIVERGENT
            break
        if k >= 4 and inc < 1e-9 and inc <= increments[-2]:
            verdict = OsgoodVerdict.CONVERGENT
            break
    tail_q = None
    if verdict is None and len(increments) >= 32:
        ks = np.arange(1, len(increments) + 1, dtype=float)
        half = len(increments) // 2
        inc_arr = np.asarray(increments[half:])
        if np.all(inc_arr > 0):
            tail_q = float(-np.polyfit(np.log(ks[half:]), np.log(inc_arr), 1)[0])
            verdict = OsgoodVerdict.DIVERGENT if tail_q <= 1.5 else OsgoodVerdict.CONVERGENT
    return verdict or OsgoodVerdict.INCONCLUSIVE, total, np.array(rows, dtype=float), tail_q


GATE_GROWTHS = [
    GrowthFunction.constant(1.0, p0=1.0),
    GrowthFunction.constant(3.0, p0=2.0),
    GrowthFunction.power(0.25, p0=1.0),
    GrowthFunction.power(1.0, p0=2.0),
    GrowthFunction.power(2.0, p0=1.5),
    GrowthFunction.log_power(0.0, (1.0,), p0=2.0),
    GrowthFunction.log_power(1.0, (2.0,), p0=3.0),
    GrowthFunction.log_power(0.5, (1.0,), p0=2.0, shifted=True),
]
USER_SPECS = [
    OsgoodSpec(modulus=lambda r: r, epsilon_L=1.0),
    OsgoodSpec(modulus=np.sqrt, epsilon_L=1.0),
    OsgoodSpec(modulus=lambda r: r * np.log(1.0 / r), epsilon_L=0.3),
    OsgoodSpec(modulus=lambda r: r * np.log(1.0 / r) ** 2, epsilon_L=0.1),
    OsgoodSpec(modulus=lambda r: r * np.log(1.0 / r), epsilon_L=1e-30),
    OsgoodSpec(modulus=_nan_below(1e-12), epsilon_L=0.3),
    OsgoodSpec(modulus=np.sqrt, epsilon_L=1e-300),
    OsgoodSpec(modulus=np.log1p, orientation=OsgoodOrientation.INFINITY_END),
    OsgoodSpec(modulus=lambda r: np.log1p(r) ** 2, orientation=OsgoodOrientation.INFINITY_END),
]


# (spec, trace rows, exit): march stops at or next to a block edge
BLOCK_EDGE_SPECS = [
    (OsgoodSpec(modulus=lambda r: r / 100.0), 1, "divergence threshold"),  # decade 0
    (OsgoodSpec(modulus=np.sqrt, epsilon_L=1e-12), 8, "Cauchy stop"),  # decade 7
    (OsgoodSpec(modulus=np.sqrt, epsilon_L=1e-11), 9, "Cauchy stop"),  # decade 8
    (OsgoodSpec(modulus=np.sqrt, epsilon_L=1e-4), 16, "Cauchy stop"),  # decade 15
    (OsgoodSpec(modulus=np.sqrt, epsilon_L=1e-3), 17, "Cauchy stop"),  # decade 16
    (OsgoodSpec(modulus=lambda r: np.sqrt(r) / 1e-6, orientation=OsgoodOrientation.INFINITY_END),
     8, "Cauchy stop"),  # decade 7
    (OsgoodSpec(modulus=lambda r: np.sqrt(r) / 0.01, orientation=OsgoodOrientation.INFINITY_END),
     16, "Cauchy stop"),  # decade 15
    (OsgoodSpec(modulus=_nan_below(10.0 ** -8.5 * 0.3), epsilon_L=0.3), 8, "non-finite increment"),
    (OsgoodSpec(modulus=_nan_below(10.0 ** -15.5 * 0.3), epsilon_L=0.3), 15, "non-finite increment"),
    (OsgoodSpec(modulus=_nan_below(10.0 ** -16.5 * 0.3), epsilon_L=0.3), 16, "non-finite increment"),
    # 24 decades from 1e-280 to the x = -700 limit, three whole blocks
    (OsgoodSpec(modulus=_nan_below(0.0), epsilon_L=1e-280), 24, "decades exhausted"),
    (OsgoodSpec(modulus=_nan_below(10.0 ** -300.5), epsilon_L=1e-280), 20, "non-finite increment"),
    # 21 decades from 1e-283, the last block holding five
    (OsgoodSpec(modulus=_nan_below(0.0), epsilon_L=1e-283), 21, "decades exhausted"),
    (OsgoodSpec(modulus=_nan_below(1e-301), epsilon_L=1e-283), 18, "non-finite increment"),
]
BLOCK_EDGE_IDS = [
    "linear/100 k0", "sqrt k7", "sqrt k8", "sqrt k15", "sqrt k16", "inf sqrt k7", "inf sqrt k15",
    "nan k8", "nan k15", "nan k16", "1e-280 exhausted", "1e-280 nan k20", "1e-283 exhausted",
    "1e-283 nan k18",
]


def _assert_same_march(spec):
    out = osgood_test(spec)
    verdict, total, trace, tail_q = _two_branch_osgood(spec)
    assert out.verdict is verdict
    assert out.partial_integral == total
    assert out.tail_exponent == tail_q
    assert np.array_equal(out.trace, trace)


class TestOneMarchGate:
    """One decade loop over x = log r, stepping -ln 10 from log epsilon_L or
    +ln 10 from 0, takes the same decade ends, nodes and sums as the two
    branches it replaced, so every output agrees bit for bit."""

    @pytest.mark.parametrize("g", GATE_GROWTHS, ids=lambda g: f"{g.name}@{g.p0:g}")
    @pytest.mark.parametrize("lift", [False, True])
    def test_growth_specs(self, g, lift):
        spec = osgood_from_growth(g, OsgoodOrientation.ZERO_END, lift)
        for eps in (0.5, 0.9):
            _assert_same_march(replace(spec, epsilon_L=eps))
        _assert_same_march(osgood_from_growth(g, OsgoodOrientation.INFINITY_END, lift))

    @pytest.mark.parametrize("i", range(len(USER_SPECS)))
    def test_user_moduli(self, i):
        _assert_same_march(USER_SPECS[i])

    @pytest.mark.parametrize("spec, last, reason", BLOCK_EDGE_SPECS, ids=BLOCK_EDGE_IDS)
    def test_block_edges(self, spec, last, reason):
        # the march evaluates _BLOCK = 8 decades per modulus call; stops at
        # the first and last decade of a block, and in the last (partial)
        # block before x = -700, keep every output of the decade-by-decade march
        _assert_same_march(spec)
        out = osgood_test(spec)
        assert (len(out.trace), out.exit) == (last, reason)


class _CountingModulus:
    """A user modulus that records the r of every call."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, r):
        self.calls.append(np.array(r, dtype=float))
        return self.fn(r)


# (spec, decades the march evaluates): marches that no stop rule ends
FULL_MARCHES = [
    (OsgoodSpec(modulus=lambda r: np.log1p(r) ** 2, orientation=OsgoodOrientation.INFINITY_END), 280),
    (OsgoodSpec(modulus=lambda r: r * np.log(1.0 / r), epsilon_L=1e-30), 274),
    (OsgoodSpec(modulus=_nan_below(0.0), epsilon_L=1e-280), 24),
    (OsgoodSpec(modulus=_nan_below(0.0), epsilon_L=1e-283), 21),
]


class TestMarchBlocks:
    """One modulus call per block of _BLOCK decades: the call count, and how
    far past the deciding decade the modulus is evaluated."""

    @staticmethod
    def _run(spec):
        modulus = _CountingModulus(spec.modulus)
        return osgood_test(replace(spec, modulus=modulus)), modulus.calls

    @pytest.mark.parametrize("spec, decades", FULL_MARCHES, ids=["inf 280", "1e-30", "1e-280", "1e-283"])
    def test_full_march_calls_once_per_block(self, spec, decades):
        out, calls = self._run(spec)
        assert len(out.trace) == decades and out.exit in ("tail fit", "decades exhausted")
        # one call from validate, then one per block of eight decades
        assert len(calls) == 1 + math.ceil(decades / 8)
        assert [len(r) for r in calls[1:]] == [32 * min(8, decades - k) for k in range(0, decades, 8)]

    @pytest.mark.parametrize("spec, last, reason", BLOCK_EDGE_SPECS, ids=BLOCK_EDGE_IDS)
    def test_reach_ends_with_the_deciding_block(self, spec, last, reason):
        out, calls = self._run(spec)
        # the deciding decade is the last row, or the non-finite one after it
        k = last if reason == "non-finite increment" else last - 1
        edge = 8 * (k // 8) + 8  # the far end of the deciding block, in decades
        assert len(calls) == 1 + k // 8 + 1
        march = np.concatenate(calls[1:])
        if spec.orientation is OsgoodOrientation.INFINITY_END:
            assert march.max() < 10.0 ** edge
        else:
            assert march.min() > spec.epsilon_L * 10.0 ** -edge
            assert march.min() > math.exp(-700.0)

    def test_nodes_and_weights_are_leggauss(self):
        # built once, and bit for bit the rule the march used to rebuild per decade
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert growth_module._gauss_legendre() is growth_module._gauss_legendre()
        assert np.array_equal(growth_module._gauss_legendre()[0], nodes)
        assert np.array_equal(growth_module._gauss_legendre()[1], weights)


def _doubling_ratio_stable(f, p_lo, p_hi=2048.0, slack=1.05, settle_p=None):
    """The sampler's earlier form, kept as the reference: a Python loop over
    the quotients of consecutive per-doubling factors; returns (ok, first
    offending p)."""
    steps_per_doubling = 4
    if settle_p is None:
        settle_p = max(8.0 * p_lo, 16.0)
    n_doublings = max(4, int(math.ceil(math.log2(p_hi / p_lo))))
    m = n_doublings * steps_per_doubling + 1
    ps = p_lo * 2.0 ** (np.arange(m) / steps_per_doubling)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(ps), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
        bad = np.where(~np.isfinite(vals) | (vals <= 0))[0][0]
        return False, float(ps[bad])
    factors = vals[steps_per_doubling:] / vals[:-steps_per_doubling]
    quot = factors[steps_per_doubling:] / factors[:-steps_per_doubling]
    for i in range(len(quot)):
        if ps[i] >= settle_p and quot[i] > slack:
            return False, float(ps[i])
    return True, None


QD_GROWTHS = [
    GrowthFunction.constant(1.0, p0=1.0),
    GrowthFunction.constant(2.0, p0=0.6),
    GrowthFunction.power(0.5, p0=1.0),
    GrowthFunction.power(2.0, p0=2.0),
    GrowthFunction.power(1.0, p0=1.0, shift=1.0),
    GrowthFunction.log_power(1.0, (1.0,), p0=2.0),
    GrowthFunction.log_power(0.5, (2.0,), p0=1.0, shifted=True),
    GrowthFunction.log_power(1.0, (1.0, 1.0), p0=3.0, shifted=True),
    GrowthFunction.from_table([1.0, 10.0, 100.0, 1e4], [1.0, 2.0, 3.0, 5.0]),
    GrowthFunction.from_table([1.0, 50.0, 60.0, 1e4], [1.0, 1.5, 40.0, 50.0]),
    GrowthFunction.from_callable("e^p", np.exp),
    GrowthFunction.from_callable("e^sqrt(p)", lambda p: np.exp(np.sqrt(p))),
    GrowthFunction.from_callable("2^p", lambda p: 2.0**p, p0=2.0),
]


class TestQuasiDecreasingGate:
    """_quasi_decreasing_witness finds the first offender with one vectorised
    test and returns the same p as the loop it replaced, for both maps its
    callers sample: e^(p0/p) Theta from max(p0, 1/2) and e^(1/p) Pi from 1/2."""

    @pytest.mark.parametrize("g", QD_GROWTHS, ids=lambda g: f"{g.name}@{g.p0:g}")
    def test_same_witness_as_the_loop(self, g):
        for c, p_lo in ((g.p0, max(g.p0, 0.5)), (1.0, 0.5)):
            ok, ref = _doubling_ratio_stable(lambda p: np.exp(c / np.asarray(p, float)) * np.asarray(g(p), float), p_lo)
            assert _quasi_decreasing_witness(g, c, p_lo) == ref
            assert ok is (ref is None)

    def test_both_outcomes_are_covered(self):
        witnesses = [_quasi_decreasing_witness(g, 1.0, 0.5) for g in QD_GROWTHS]
        assert None in witnesses and any(w is not None for w in witnesses)

    def test_check_raises_at_the_witness(self):
        g = GrowthFunction.from_callable("e^p", np.exp)
        with pytest.raises(HypothesisViolated, match=f"near p={_quasi_decreasing_witness(g, 1.0, 1.0):g}$"):
            check_hyp_quasi_decreasing(g)


class TestPClass:
    def test_affine_passes(self):
        rep = pclass_check(GrowthFunction.power(1.0, p0=1.0, shift=1.0), kappa=1.0)
        assert rep.all_pass, rep.passes
        assert rep.tail_ratio is not None and rep.tail_ratio < 100.0

    def test_exponential_fails_tail(self):
        g = GrowthFunction.from_callable("2^p", lambda p: 2.0**p, p0=1.0)
        rep = pclass_check(g, kappa=1.0)
        assert not rep.passes["tail_sum"]
        # 2^p overflows at p = 1024, and the witness names that term
        assert rep.witness["tail_sum"] == "tail term 1024 is inf, not finite"

    def test_finite_tail_that_does_not_decay(self):
        # at kappa = 0 the terms Theta(j) = j + 1 stay finite and grow
        rep = pclass_check(GrowthFunction.power(1.0, p0=1.0, shift=1.0), kappa=0.0)
        assert not rep.passes["tail_sum"] and rep.tail_ratio is None
        assert rep.witness["tail_sum"] == "tail terms do not decay (sum diverges or overflows)"

    def test_affine_log_passes_with_recorded_tail(self):
        g = GrowthFunction.log_power(1.0, (1.0,), p0=1.0, shifted=True)
        rep = pclass_check(g, kappa=1.0)
        assert rep.all_pass, rep.passes
        # independent oracle: direct summation of the defining tail bound
        js = np.arange(10_000)
        terms = 2.0 ** (-js.astype(float)) * g(js.astype(float))
        worst = 0.0
        for N in range(0, 40):
            ratio = terms[N:].sum() / (2.0 ** (-float(N)) * float(g(float(N))))
            worst = max(worst, ratio)
        assert rep.tail_ratio == pytest.approx(worst, rel=1e-6)

    @pytest.mark.parametrize("log_alphas, p0, doubling", [((1.0,), 2.0, 4.0), ((1.0, 1.0), 3.0, 20.227050986243558)])
    def test_log_factors_report_without_warning(self, log_alphas, p0, doubling):
        # log 0 at p = 0 (the monotone sample, the tail sum's j = 0) and
        # log log 1 at p = 1 are report entries, not RuntimeWarnings
        rep = pclass_check(GrowthFunction.log_power(1.0, log_alphas, p0=p0), kappa=1.0)
        assert rep.passes == {"monotone": False, "doubling": True, "quasi_decreasing": False, "tail_sum": False}
        assert rep.witness["monotone"] == 0.0 and rep.witness["quasi_decreasing"] == 0.5
        # Pi(0) = 0 log 0 is nan: the witness names the term, not a divergence
        assert rep.witness["tail_sum"] == "tail term 0 is nan, not finite"
        assert rep.tail_ratio is None and rep.doubling_constant == doubling

    def test_nowhere_finite_growth_reports(self):
        # every doubling ratio is inf/inf: the constant is nan, with no
        # all-nan RuntimeWarning, and every condition fails with a witness
        rep = pclass_check(HULL_CASES["nowhere finite"], kappa=1.0)
        assert not any(rep.passes.values()) and math.isnan(rep.doubling_constant)
        assert rep.witness["monotone"] == 0.0 and rep.witness["tail_sum"] == "tail term 0 is inf, not finite"


class TestTable:
    def test_tabulated_roundtrip(self):
        ps = np.geomspace(1.0, 512.0, 40)
        g = GrowthFunction.from_table(ps, ps**1.5, p0=1.0)
        qs = np.geomspace(1.0, 512.0, 99)
        assert np.allclose(g(qs), qs**1.5, rtol=1e-3)
        ev = yudovich_eval(g, math.exp(8.0))
        oracle_val, _ = dense_grid_infimum(g, math.exp(8.0), p_hi=512.0)
        assert ev.value == pytest.approx(oracle_val, rel=1e-4)

    def test_clamped_table_window_reaches_the_infimum(self):
        # Theta = 40 p on [1, 300], clamped beyond: inf_p Theta(p) r^(1/p) is
        # 40 e log r while that is below 12000, and the p -> inf limit 12000
        # after; an interior local minimum must not hide that limit
        g = GrowthFunction.from_table([1.0, 300.0], [40.0, 12000.0])
        assert yudovich_eval(g, math.exp(120.0)).value == pytest.approx(12000.0, rel=1e-6)
        rs = np.exp(np.linspace(105.0, 130.0, 101))
        scalar = np.array([yudovich_eval(g, r).value for r in rs])
        vector = yudovich(g, rs)
        assert np.all(np.diff(scalar) >= 0.0) and np.all(np.diff(vector) >= 0.0)
        assert np.allclose(vector, scalar, rtol=1e-9, atol=0.0)
        def exact(r):
            return np.minimum(40.0 * math.e * np.log(r), 12000.0)

        assert np.allclose(scalar, exact(rs), rtol=1e-9, atol=0.0)
        # the vector call widens its window for its largest r, and that
        # window's coarse grid misses the interior minima of the smaller r
        # (by 8e-9, or 8e-5 near log r = 110.4, where the two nearly tie)
        # unless the first, finer window's candidates are kept
        dense = np.exp(np.linspace(105.0, 130.0, 1000))
        assert np.allclose(yudovich(g, dense), exact(dense), rtol=1e-9, atol=0.0)

    def test_bad_tables_rejected(self):
        with pytest.raises(ValueError):
            GrowthFunction.from_table([1.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            GrowthFunction.from_table([1.0, 2.0], [1.0, -2.0])


@pytest.mark.parametrize("call", [
    lambda: GrowthFunction.from_table([[1.0, 2.0]], [[1.0, 2.0]]),
    lambda: GrowthFunction.from_table([1.0, 1.0], [1.0, 2.0]),
    lambda: GrowthFunction.from_table([1.0, 2.0], [1.0, 0.0]),
    lambda: lemma1_ratio_scan(GrowthFunction.constant(1.0), []),
    lambda: lemma1_ratio_scan(GrowthFunction.constant(1.0), [1.5]),
    lambda: BandSequence(((0, -1.0),)),
    lambda: BandSequence(((1, 1.0), (0, 1.0))),
    lambda: modulus_envelope(GridField(np.zeros((8, 8))), 0.0, GrowthFunction.power(1.0), norm_choice="besov"),
], ids=["table shape", "table order", "table values", "empty r grid", "r below e^(2 p0)",
        "negative band norm", "band order", "norm choice"])
def test_rejected_arguments_raise_a_typed_value_error(call):
    # each of these raised a bare ValueError; the typed one still is one
    with pytest.raises(InvalidArgument) as err:
        call()
    assert isinstance(err.value, OsgoodError) and isinstance(err.value, ValueError)
