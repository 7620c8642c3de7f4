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
from typing import Callable, Sequence

import numpy as np

from .errors import (
    HypothesisViolated,
    InvalidModulus,
    NonPositiveArgument,
    SearchDivergence,
)

@dataclass(frozen=True)
class GrowthFunction:
    """Non-decreasing doubling function on [0, inf) with index p0."""

    name: str
    p0: float
    fn: Callable[[np.ndarray], np.ndarray]
    family: str = "custom"
    params: dict = field(default_factory=dict)

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        out = np.asarray(self.fn(p), dtype=float)
        return out if out.shape else float(out)

    def log_value(self, p):
        """log Theta(p); overflow-safe route used by the infimum search."""
        v = np.asarray(self(p), dtype=float)
        with np.errstate(divide="ignore"):
            out = np.log(v)
        return out if out.shape else float(out)

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


@dataclass(frozen=True)
class YudovichEvaluation:
    r: float
    value: float
    argmin_p: float


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


_GRID = 1024


def _yudovich(g: GrowthFunction, r, p_max: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """inf over p > p0 of Theta(p) * r**(1/p), and the p attaining it, shaped like r.

    For r <= 1 the map increases in p: the p0 boundary value, in closed form.
    For r > 1 all entries share one log grid of p on (p0, P], P = max(1e3,
    10 max log r) unless given, widened tenfold (up to 1e12) while some
    entry's minimum sits at the edge and still falls, or exceeds Theta(P).
    The grid minima of the first and the last window, each lowered by one
    vertex step, and the p0 boundary are the candidates.  The objective is
    taken in logs, which keeps r up to 1e308 out of the exponent; non-finite
    values count as +inf.
    """
    rs = np.asarray(r, dtype=float)
    if np.any(~(rs > 0.0)):
        raise NonPositiveArgument(f"r must be > 0, got {r}")
    p0 = g.p0
    values = np.empty_like(rs)
    argmins = np.full_like(rs, p0)
    big = rs > 1.0
    values[~big] = float(g(p0)) * rs[~big] ** (1.0 / p0)
    if not big.any():
        return values, argmins

    log_r = np.log(rs[big])
    if p_max is None:
        p_max = max(1e3, 10.0 * float(log_r.max()))
    cols = np.arange(len(log_r))

    def objective(p):
        out = g.log_value(p) + log_r / p
        return np.where(np.isfinite(out), out, np.inf)

    def window(p_max):
        xs = np.linspace(math.log(p0 * (1.0 + 1e-12)), math.log(p_max), _GRID)
        mat = objective(np.exp(xs)[:, None])
        return xs, mat, np.argmin(mat, axis=0)

    def vertex(xs, mat, k):
        """Each entry's grid minimum and its log p, moved to the vertex of the parabola
        through it and its neighbours where they are convex and the vertex is lower."""
        best, best_x = mat[k, cols], xs[k]
        # the three points are one-sided at the grid ends, so the step is clipped to a cell
        c = np.clip(k, 1, _GRID - 2)
        fl, fc, fr = mat[c - 1, cols], mat[c, cols], mat[c + 1, cols]
        h = xs[1] - xs[0]
        with np.errstate(invalid="ignore", divide="ignore"):
            curv = fl - 2.0 * fc + fr
            vx = xs[c] + np.clip(0.5 * h * (fl - fr) / curv, -h, h)
            fv = objective(np.exp(vx))
        better = (curv > 0.0) & (fv < best)
        return np.where(better, fv, best), np.where(better, vx, best_x)

    first = xs, mat, k = window(p_max)
    low = first_min = mat[k, cols]
    while p_max < 1e12:
        with np.errstate(invalid="ignore"):
            still_falling = (k == _GRID - 1) & (mat[-1] - mat[_GRID // 2] < -1e-13)
        # past the edge P the objective exceeds log Theta(P), read off any entry
        if not (still_falling.any() or mat[-1, 0] - log_r[0] / p_max < low.max()):
            break
        p_max *= 10.0
        xs, mat, k = window(p_max)
        low = np.minimum(low, mat[k, cols])
    best, best_x = vertex(xs, mat, k)
    if xs is not first[0] and (first_min < best).any():
        # the widest window's coarse grid missed what the first, finer one found
        f, x = vertex(*first)
        better = f < best
        best, best_x = np.where(better, f, best), np.where(better, x, best_x)
    if not np.all(np.isfinite(best)):
        raise SearchDivergence(f"objective not finite anywhere in ({p0}, {p_max:g}]")

    boundary = objective(p0)
    at_p0 = boundary <= best
    values[big] = np.exp(np.where(at_p0, boundary, best))
    argmins[big] = np.where(at_p0, p0, np.exp(best_x))
    return values, argmins


def yudovich_eval(g: GrowthFunction, r: float, p_max: float | None = None) -> YudovichEvaluation:
    """y(r) for one r, with the p attaining it; p_max sets the first window."""
    values, argmins = _yudovich(g, float(r), p_max)
    return YudovichEvaluation(r=r, value=float(values), argmin_p=float(argmins))


def yudovich(g: GrowthFunction, r):
    """y(r) elementwise: a float for scalar r, an array shaped like r otherwise."""
    values, _ = _yudovich(g, r)
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


@dataclass(frozen=True)
class QuadratureBudget:
    max_decades: int = 280
    points_per_decade: int = 32
    divergence_threshold: float = 50.0
    divergence_increment: float = 0.01
    convergence_tol: float = 1e-9
    # tail increments fitted to c * k^(-q): q below this reads as divergent
    tail_exponent_cut: float = 1.5


@dataclass(frozen=True)
class OsgoodResult:
    verdict: OsgoodVerdict
    partial_integral: float
    trace: np.ndarray          # rows (decade index, left endpoint, increment, partial sum)
    tail_exponent: float | None = None


def osgood_test(spec: OsgoodSpec, budget: QuadratureBudget = QuadratureBudget()) -> OsgoodResult:
    """Integrate the Osgood integrand decade by decade toward the singular end.

    Divergent when the partial integral passes the divergence threshold while
    still growing, Convergent when per-decade increments Cauchy-stabilize.
    When neither fast exit fires within the float-representable decades, the
    tail increments are fitted to c * k^(-q); q <= 1 means a divergent tail
    (harmonic or slower decay), q safely above 1 a summable one.  The verdict
    is a documented heuristic: quadrature alone cannot decide divergence.
    """
    spec.validate()
    nodes, weights = np.polynomial.legendre.leggauss(budget.points_per_decade)
    ln10 = math.log(10.0)

    if spec.orientation is OsgoodOrientation.ZERO_END:
        # substitute r = e^x: integral of e^x / L(e^x) dx, decades marching down
        x_start = math.log(spec.epsilon_L)

        def decade_increment(k: int) -> float:
            b = x_start - k * ln10
            a = b - ln10
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            r = np.exp(x)
            vals = r / np.asarray(spec.modulus(r), dtype=float)
            return float(0.5 * (b - a) * np.sum(weights * vals))

        left_endpoint = lambda k: math.exp(x_start - (k + 1) * ln10)
        max_decades = min(budget.max_decades, int((x_start + 700.0) / ln10))
    else:
        # integral of dr / (r y(r)) = integral of dx / y(e^x) upward from r=1
        def decade_increment(k: int) -> float:
            a = k * ln10
            b = a + ln10
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            vals = 1.0 / np.asarray(spec.modulus(np.exp(x)), dtype=float)
            return float(0.5 * (b - a) * np.sum(weights * vals))

        left_endpoint = lambda k: math.exp((k + 1) * ln10)
        max_decades = min(budget.max_decades, 300)

    rows = []
    total = 0.0
    increments = []
    verdict = None
    for k in range(max_decades):
        inc = decade_increment(k)
        if not math.isfinite(inc):
            break
        total += inc
        increments.append(inc)
        rows.append((k, left_endpoint(k), inc, total))
        if total > budget.divergence_threshold and inc >= budget.divergence_increment:
            verdict = OsgoodVerdict.DIVERGENT
            break
        if k >= 4 and inc < budget.convergence_tol and inc <= increments[-2]:
            verdict = OsgoodVerdict.CONVERGENT
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
            if tail_q <= budget.tail_exponent_cut:
                verdict = OsgoodVerdict.DIVERGENT
            else:
                verdict = OsgoodVerdict.CONVERGENT
    if verdict is None:
        verdict = OsgoodVerdict.INCONCLUSIVE
    return OsgoodResult(verdict=verdict, partial_integral=total, trace=trace, tail_exponent=tail_q)


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
