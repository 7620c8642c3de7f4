"""Growth functions, their Yudovich functions, and Osgood integral tests.

A growth function is a non-decreasing doubling map p -> Theta(p) > 0 together
with a lower integrability index p0 >= 1.  Its Yudovich function is

    y(r) = inf_{p > p0} Theta(p) * r**(1/p),

the quantity that controls modulus-of-continuity envelopes downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    HypothesisViolated,
    InvalidModulus,
    NonPositiveArgument,
    SearchDivergence,
)

_GRID, _P_TOP = 4096, 1e12  # the Yudovich search grid, geometric on [p0, _P_TOP]
# the Osgood march: at most _DECADES decades of _NODES Gauss-Legendre nodes;
# Divergent once the partial integral passes _DIVERGE_AT with an increment of at
# least _DIVERGE_INC, Convergent once an increment falls below _CAUCHY_TOL, and
# tail increments fitted to c * k^(-q) read as divergent for q <= _TAIL_CUT
_DECADES, _NODES = 280, 32
_DIVERGE_AT, _DIVERGE_INC, _CAUCHY_TOL, _TAIL_CUT = 50.0, 0.01, 1e-9, 1.5


@dataclass(frozen=True)
class GrowthFunction:
    """Non-decreasing doubling function on [0, inf) with index p0, positive
    at p0."""

    name: str
    p0: float
    fn: Callable[[np.ndarray], np.ndarray]
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.p0) and self.p0 > 0.0):
            raise NonPositiveArgument(f"p0 must be finite and > 0, got {self.p0}")
        # Theta(p0) = +inf passes: the search reports an objective finite nowhere
        with np.errstate(all="ignore"):
            theta0 = self(self.p0)
        if not theta0 > 0.0:
            raise NonPositiveArgument(f"Theta(p0) must be > 0, got {theta0} at p0 = {self.p0}")

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        out = np.asarray(self.fn(p), dtype=float)
        return out if out.shape else float(out)

    def log_value(self, p):
        """log Theta(p), taken under errstate and +inf wherever not finite (Theta
        overflowing, zero or negative): such p never attain the Yudovich infimum."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.log(np.asarray(self(p), dtype=float))
        out = np.where(np.isfinite(out), out, np.inf)
        return out if out.shape else float(out)

    @cached_property
    def _hull(self):
        """(grid p, log p, log Theta(p), grid indices of the lower convex hull of
        the points (1/p, log Theta(p)) in ascending 1/p, its edge slopes), built once
        into the instance dict; replace() and theta1 return new instances."""
        ps = np.geomspace(self.p0, _P_TOP, _GRID)
        xs, phi = np.log(ps), self.log_value(ps)
        s, f = (1.0 / ps).tolist(), phi.tolist()
        # monotone chain: pop the last vertex while it lies on or above the
        # chord from its predecessor to the new point
        hull: list[int] = []
        for i in range(_GRID - 1, -1, -1):
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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: float = 1.0, p0: float = 1.0) -> "GrowthFunction":
        return GrowthFunction(
            name=f"const({value:g})", p0=p0,
            fn=lambda p, c=float(value): np.full_like(np.asarray(p, float), c),
            family="constant", params={"value": float(value)},
        )

    @staticmethod
    def power(alpha: float, p0: float = 1.0, shift: float = 0.0) -> "GrowthFunction":
        """(p + shift)**alpha.  shift=1 keeps the value positive at p=0."""
        name = f"(p+{shift:g})^{alpha:g}" if shift else f"p^{alpha:g}"
        return GrowthFunction(
            name=name, p0=p0,
            fn=lambda p, a=float(alpha), s=float(shift): (np.asarray(p, float) + s) ** a,
            family="power", params={"alpha": float(alpha), "shift": float(shift)},
        )

    @staticmethod
    def log_power(
        alpha: float,
        log_alphas: Sequence[float] = (),
        p0: float = 2.0,
        shifted: bool = False,
    ) -> "GrowthFunction":
        """p^alpha * prod_m (log_m p)^alpha_m with iterated logs.

        With shifted=True uses (p+1)^alpha and log_m(p+e), which stays
        positive down to p=0 (the form needed for partial-sum growths).
        """
        las = tuple(float(a) for a in log_alphas)

        def fn(p, a=float(alpha), las=las, shifted=shifted):
            p = np.asarray(p, dtype=float)
            base = p + 1.0 if shifted else p
            out = base ** a
            arg = p + math.e if shifted else p
            for am in las:
                arg = np.log(arg)
                out = out * arg ** am
            return out

        tag = "shifted-logpower" if shifted else "logpower"
        return GrowthFunction(
            name=f"{tag}({alpha:g};{','.join(f'{a:g}' for a in las)})",
            p0=p0, fn=fn, family=tag,
            params={"alpha": float(alpha), "log_alphas": las, "shifted": shifted},
        )

    @staticmethod
    def from_callable(name: str, fn: Callable, p0: float = 1.0) -> "GrowthFunction":
        return GrowthFunction(name=name, p0=p0, fn=lambda p: np.asarray(fn(np.asarray(p, float))))

    @staticmethod
    def from_table(p_values, theta_values, p0: float | None = None) -> "GrowthFunction":
        """Tabulated growth, log-linear interpolation, clamped beyond the table."""
        pv = np.asarray(p_values, dtype=float)
        tv = np.asarray(theta_values, dtype=float)
        if pv.ndim != 1 or pv.shape != tv.shape or len(pv) < 2:
            raise ValueError("table needs two equal-length 1-d columns")
        if np.any(np.diff(pv) <= 0):
            raise ValueError("table p column must be strictly increasing")
        if np.any(tv <= 0):
            raise ValueError("table values must be positive")
        lp, lt = np.log(pv), np.log(tv)

        def fn(p):
            p = np.maximum(np.asarray(p, dtype=float), pv[0])
            return np.exp(np.interp(np.log(p), lp, lt))

        return GrowthFunction(
            name="tabulated", p0=float(p0 if p0 is not None else pv[0]),
            fn=fn, family="tabulated", params={"n_rows": len(pv)},
        )

    # -- diagnostics -------------------------------------------------------

    def doubling_constant(self, p_hi: float = 4096.0, samples: int = 64) -> float:
        """sup of Theta(2p)/Theta(p) on a log grid of [max(p0, 1/4), p_hi]."""
        lo = max(self.p0, 0.25)
        ps = np.geomspace(lo, p_hi, samples)
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = self(2.0 * ps) / self(ps)
        return float(np.nanmax(ratios))


_PATHS = ("closed form", "p0 boundary", "grid vertex", "vertex step")


@dataclass(frozen=True)
class YudovichEvaluation:
    """y(r), the p attaining it, the _PATHS entry that found it, and whether that
    p is the grid top _P_TOP, where an objective still falling is cut off."""

    r: float
    value: float
    argmin_p: float
    path: str
    at_grid_top: bool


def _with_p0(g: GrowthFunction, p0: float) -> GrowthFunction:
    """g re-indexed to p0 (g itself when it already has that index)."""
    return g if g.p0 == p0 else replace(g, p0=float(p0))


def theta1(g: GrowthFunction) -> GrowthFunction:
    """The lifted growth p -> p * Theta(p) (doubling constant at most doubles)."""
    return GrowthFunction(
        name=f"p*{g.name}", p0=g.p0,
        fn=lambda p, base=g.fn: np.asarray(p, float) * np.asarray(base(np.asarray(p, float)), float),
        family="lifted", params={"base": g.name},
    )


def _legendre(g: GrowthFunction, log_r: np.ndarray):
    """log y(r), the p attaining it and the index into _PATHS of how it was
    found, for an array of log r > 0.

    With s = 1/p and phi(s) = log Theta(1/s), log y(r) = min_s phi(s) + s log r
    is the Legendre transform of phi at -log r.  On a finite point set a linear
    function is least at a vertex of the lower convex hull, convex phi or not
    (a point above the hull lies above an edge, least at one of its ends): the
    vertex whose edge slopes bracket -log r, found by one binary search.  It and
    its two hull neighbours each take one parabolic vertex step through their
    grid neighbours, kept where convex and lower, so each value is attained.
    """
    ps, xs, phi, v, slopes = g._hull
    if not len(v):
        raise SearchDivergence(f"objective not finite anywhere in [{g.p0}, {_P_TOP:g}]")

    def objective(k):
        return phi[k] + log_r / ps[k]

    j = np.searchsorted(slopes, -log_r)
    k = v[j]
    best = objective(k)
    # where the minimising vertex jumps across a non-convex stretch of phi a
    # neighbour's step can be the lower one; without it y can fall as r grows
    c = np.clip(v[np.clip(j + np.array([[-1], [0], [1]]), 0, len(v) - 1)], 1, _GRID - 2)
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


def _yudovich(g: GrowthFunction, r):
    """y(r), the p attaining it and the _PATHS index, shaped like r; for r <= 1
    the objective increases in p, so y(r) is the p0 boundary value in closed form."""
    rs = np.asarray(r, dtype=float)
    if np.any(~(rs > 0.0) | (rs == np.inf)):
        raise NonPositiveArgument(f"r must be finite and > 0, got {r}")
    values, argmins, path = np.empty_like(rs), np.full_like(rs, g.p0), np.zeros(rs.shape, dtype=int)
    big = rs > 1.0
    values[~big] = float(g(g.p0)) * rs[~big] ** (1.0 / g.p0)
    if big.any():
        log_y, argmins[big], path[big] = _legendre(g, np.log(rs[big]))
        values[big] = np.exp(log_y)
    return values, argmins, path


def yudovich_eval(g: GrowthFunction, r: float) -> YudovichEvaluation:
    """y(r) for one r, with the p attaining it and how it was found."""
    values, argmins, path = _yudovich(g, float(r))
    return YudovichEvaluation(r, float(values), float(argmins), _PATHS[int(path)], bool(argmins == _P_TOP))


def yudovich(g: GrowthFunction, r):
    """y(r) elementwise: a float for scalar r, an array shaped like r otherwise."""
    values = _yudovich(g, r)[0]
    return values if values.ndim else float(values)


# -- quasi-decreasing sampling check ---------------------------------------

def doubling_ratio_stable(
    f: Callable[[np.ndarray], np.ndarray],
    p_lo: float,
    p_hi: float = 2048.0,
    slack: float = 1.05,
    settle_p: float | None = None,
) -> tuple[bool, float | None]:
    """Sampled acceptance test for 'quasi-decreasing up to constants'.

    Genuinely quasi-decreasing maps and maps that grow at a stable power
    rate both have per-doubling factors f(2p)/f(p) that settle; exponential
    growths have factors that keep inflating.  We accept when, beyond the
    settle point, consecutive per-doubling factors never inflate by more
    than `slack`.  Returns (ok, first offending p).
    """
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


def check_hyp_quasi_decreasing(g: GrowthFunction, slack: float = 1.05) -> None:
    """Validate that p -> e**(p0/p) Theta(p) is quasi-decreasing (sampled).

    Raises HypothesisViolated when the per-doubling growth of that map keeps
    inflating (the exponential-growth signature that breaks the log-argument
    characterization of y).
    """
    p0 = g.p0

    def f(p):
        return np.exp(p0 / np.asarray(p, float)) * np.asarray(g(p), float)

    ok, witness = doubling_ratio_stable(f, p_lo=max(p0, 0.5), slack=slack)
    if not ok:
        raise HypothesisViolated(
            f"e^(p0/p)*{g.name} fails the quasi-decreasing sampling check near p={witness:g}"
        )


def lemma1_ratio_scan(
    g: GrowthFunction,
    r_grid: Sequence[float],
    slack: float = 1.05,
) -> dict:
    """Ratios y(r) / Theta(log r) over r_grid, plus the band they occupy.

    Requires every r > e**(2 p0) and the sampled quasi-decreasing hypothesis.
    """
    check_hyp_quasi_decreasing(g, slack=slack)
    r_grid = np.asarray(list(r_grid), dtype=float)
    floor = math.exp(2.0 * g.p0)
    if np.any(r_grid <= floor):
        raise ValueError(f"all r must exceed e^(2 p0) = {floor:g}")
    ys = yudovich(g, r_grid)
    ref = np.asarray(g(np.log(r_grid)), dtype=float)
    ratios = ys / ref
    c1, c2 = float(ratios.min()), float(ratios.max())
    return {
        "r": r_grid,
        "ratios": ratios,
        "band": (c1, c2),
        "band_width": c2 / c1,
    }


# -- growth-class membership ------------------------------------------------

@dataclass(frozen=True)
class GrowthClassReport:
    kappa: float
    passes: dict
    witness: dict
    doubling_constant: float
    tail_ratio: float | None

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())


def pclass_check(
    g: GrowthFunction,
    kappa: float,
    n_max: int = 64,
    tail_terms: int = 4000,
    doubling_cap: float = 1e6,
    slack: float = 1.05,
) -> GrowthClassReport:
    """Check the four partial-sum-growth conditions at index kappa.

    (i) positive and non-decreasing on [0, inf); (ii) doubling with a finite
    reported constant; (iii) e**(1/p) Pi(p) quasi-decreasing (sampled);
    (iv) sum_{j>=N} 2^(-j kappa) Pi(j) <= C 2^(-N kappa) Pi(N) for all N.
    Failures are report entries with witnesses, never exceptions.
    """
    passes: dict = {}
    witness: dict = {}

    ps = np.concatenate([np.linspace(0.0, 4.0, 33), np.geomspace(4.0, 4096.0, 64)])
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(g(ps), dtype=float)
        pos = np.isfinite(vals) & (vals > 0)
        mono = np.all(np.diff(vals) >= -1e-9 * np.maximum(np.abs(vals[:-1]), 1e-300))
    passes["monotone"] = bool(pos.all() and mono)
    if not passes["monotone"]:
        bad = np.where(~pos)[0]
        witness["monotone"] = float(ps[bad[0]]) if len(bad) else float(ps[np.argmin(np.diff(vals))])

    c_dbl = g.doubling_constant()
    passes["doubling"] = bool(np.isfinite(c_dbl) and c_dbl <= doubling_cap)
    if not passes["doubling"]:
        witness["doubling"] = c_dbl

    def f3(p):
        return np.exp(1.0 / np.maximum(np.asarray(p, float), 1e-9)) * np.asarray(g(p), float)

    ok3, w3 = doubling_ratio_stable(f3, p_lo=0.5, slack=slack)
    passes["quasi_decreasing"] = ok3
    if not ok3:
        witness["quasi_decreasing"] = w3

    # condition (iv): geometric-tail domination, checked by direct summation
    js = np.arange(tail_terms, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = 2.0 ** (-js * kappa) * np.asarray(g(js), dtype=float)
    tail_ratio: float | None = None
    finite_terms = bool(np.all(np.isfinite(terms)))
    if not finite_terms or terms[-1] > 1e-12 * max(float(np.nanmax(terms)), 1.0):
        passes["tail_sum"] = False
        witness["tail_sum"] = "tail terms do not decay (sum diverges or overflows)"
    else:
        tails = np.cumsum(terms[::-1])[::-1]
        heads = 2.0 ** (-np.arange(n_max) * kappa) * np.asarray(g(np.arange(n_max)), dtype=float)
        ratios = tails[:n_max] / heads
        tail_ratio = float(ratios.max())
        passes["tail_sum"] = bool(np.isfinite(tail_ratio))
        if not passes["tail_sum"]:
            witness["tail_sum"] = int(np.argmax(~np.isfinite(ratios)))

    return GrowthClassReport(
        kappa=kappa, passes=passes, witness=witness,
        doubling_constant=c_dbl, tail_ratio=tail_ratio,
    )


# -- Osgood integral test ----------------------------------------------------

class OsgoodOrientation(Enum):
    ZERO_END = "zero"        # integral of dr / L(r) toward r -> 0+
    INFINITY_END = "infinity"  # integral of dr / (r y(r)) toward r -> inf


class OsgoodVerdict(Enum):
    DIVERGENT = "Divergent"
    CONVERGENT = "Convergent"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class OsgoodSpec:
    """Modulus L on (0, epsilon_L) and the end toward which to integrate.

    For INFINITY_END the modulus plays the role of y in dr/(r y(r)) over
    (1, inf); epsilon_L is ignored there.
    """
    modulus: Callable[[np.ndarray], np.ndarray]
    epsilon_L: float = 1.0
    orientation: OsgoodOrientation = OsgoodOrientation.ZERO_END

    def validate(self) -> None:
        if self.orientation is OsgoodOrientation.ZERO_END:
            rs = np.geomspace(self.epsilon_L * 1e-8, self.epsilon_L, 64)
        else:
            rs = np.geomspace(1.0, 1e8, 64)
        vals = np.asarray(self.modulus(rs), dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals <= 0):
            raise InvalidModulus("modulus must be finite and positive on samples")
        if np.any(np.diff(vals) < -1e-9 * np.abs(vals[:-1])):
            raise InvalidModulus("modulus must be non-decreasing on samples")


_EXITS = ("divergence threshold", "Cauchy stop", "tail fit", "non-finite increment", "decades exhausted")


@dataclass(frozen=True)
class OsgoodResult:
    """The verdict, the partial integral, and the _EXITS entry naming the rule
    that decided it; an Inconclusive march names why it stopped."""

    verdict: OsgoodVerdict
    partial_integral: float
    trace: np.ndarray          # rows (decade index, left endpoint, increment, partial sum)
    exit: str
    tail_exponent: float | None = None


def osgood_test(spec: OsgoodSpec) -> OsgoodResult:
    """Integrate the Osgood integrand decade by decade toward the singular end.

    One march serves both ends: with r = e^x it integrates r / L(r) dx down
    from x = log epsilon_L toward zero, or dx / y(r) up from x = 0 toward
    infinity, one modulus call per decade, for at most _DECADES decades and
    none past x = -700, where e^x would underflow.
    Divergent when the partial integral passes the divergence threshold while
    still growing, Convergent when per-decade increments Cauchy-stabilize.
    When neither fast exit fires within the march, the tail increments are
    fitted to c * k^(-q); q <= _TAIL_CUT reads as a divergent tail, q above
    it as a summable one.  The verdict is a documented heuristic: quadrature
    alone cannot decide divergence.
    """
    spec.validate()
    nodes, weights = np.polynomial.legendre.leggauss(_NODES)
    ln10 = math.log(10.0)
    zero = spec.orientation is OsgoodOrientation.ZERO_END
    x0, step = (math.log(spec.epsilon_L), -ln10) if zero else (0.0, ln10)

    rows, increments, total = [], [], 0.0
    verdict, stop = None, _EXITS[4]
    for k in range(min(_DECADES, int((x0 + 700.0) / ln10))):
        a = x0 + k * step
        b = a + step
        w = 0.5 * abs(b - a)  # the decade from x = a to x = b, half-width w
        r = np.exp(w * nodes + 0.5 * (a + b))
        vals = np.asarray(spec.modulus(r), dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inc = float(w * np.sum(weights * ((r if zero else 1.0) / vals)))
        if not math.isfinite(inc):
            stop = _EXITS[3]
            break
        total += inc
        increments.append(inc)
        rows.append((k, math.exp(x0 + (k + 1) * step), inc, total))
        if total > _DIVERGE_AT and inc >= _DIVERGE_INC:
            verdict, stop = OsgoodVerdict.DIVERGENT, _EXITS[0]
            break
        if k >= 4 and inc < _CAUCHY_TOL and inc <= increments[-2]:
            verdict, stop = OsgoodVerdict.CONVERGENT, _EXITS[1]
            break

    trace = np.array(rows, dtype=float)
    tail_q: float | None = None
    if verdict is None and len(increments) >= 32:
        ks = np.arange(1, len(increments) + 1, dtype=float)
        half = len(increments) // 2
        inc_arr = np.asarray(increments[half:])
        if np.all(inc_arr > 0):
            coef = np.polyfit(np.log(ks[half:]), np.log(inc_arr), 1)
            tail_q = float(-coef[0])
            if tail_q <= _TAIL_CUT:
                verdict = OsgoodVerdict.DIVERGENT
            else:
                verdict = OsgoodVerdict.CONVERGENT
            stop = _EXITS[2]
    if verdict is None:
        verdict = OsgoodVerdict.INCONCLUSIVE
    return OsgoodResult(verdict=verdict, partial_integral=total, trace=trace, exit=stop, tail_exponent=tail_q)


def osgood_from_growth(
    g: GrowthFunction,
    orientation: OsgoodOrientation = OsgoodOrientation.ZERO_END,
    lift: bool = False,
    epsilon_L: float = 0.5,
) -> OsgoodSpec:
    """Build the modulus induced by a growth: L(r) = r * y(1/r) toward zero,
    or y itself on (1, inf) for the infinity-end test.  lift=True replaces
    the growth by p * Theta(p) first.
    """
    gg = theta1(g) if lift else g
    if orientation is OsgoodOrientation.ZERO_END:
        def modulus(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            return r * yudovich(gg, 1.0 / r)
    else:
        def modulus(r):
            return yudovich(gg, r)
    return OsgoodSpec(modulus=modulus, epsilon_L=epsilon_L, orientation=orientation)
