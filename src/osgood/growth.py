"""Growth functions, their Yudovich functions, and Osgood integral tests.

A growth function is a non-decreasing doubling map p -> Theta(p) > 0 together
with a lower integrability index p0 >= 1.  Its Yudovich function is

    y(r) = inf_{p > p0} Theta(p) * r**(1/p),

the quantity that controls modulus-of-continuity envelopes downstream.  A
growth is given by log Theta, in closed form per family: y is its Legendre
transform, the hypothesis checks read differences of it, and Theta is its exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    HypothesisViolated,
    InvalidArgument,
    InvalidModulus,
    NonPositiveArgument,
    SearchDivergence,
)

_GRID, _P_TOP = 4096, 1e12  # the Yudovich search grid, geometric on [p0, _P_TOP]
# the Osgood march: at most _DECADES decades of _NODES Gauss-Legendre nodes,
# evaluated _BLOCK decades per modulus call (a stop wastes at most _BLOCK - 1);
# Divergent once the partial integral passes _DIVERGE_AT with an increment of at
# least _DIVERGE_INC, Convergent once an increment falls below _CAUCHY_TOL, and
# tail increments fitted to c * k^(-q) read as divergent for q <= _TAIL_CUT
_DECADES, _NODES, _BLOCK = 280, 32, 8
_DIVERGE_AT, _DIVERGE_INC, _CAUCHY_TOL, _TAIL_CUT = 50.0, 0.01, 1e-9, 1.5
# the hypothesis checks: the doubling constant sampled at _DOUBLING_SAMPLES
# points up to p = _DOUBLING_P_HI and capped at _DOUBLING_CAP; the quasi-
# decreasing sampler at 4 points per doubling up to p = _QD_P_HI, failing where
# a per-doubling factor inflates by more than _SLACK; the tail sum over
# _TAIL_TERMS terms, compared at its first _HEADS indices
_DOUBLING_P_HI, _DOUBLING_SAMPLES, _DOUBLING_CAP = 4096.0, 64, 1e6
_QD_P_HI, _SLACK = 2048.0, 1.05
_TAIL_TERMS, _HEADS = 4000, 64
_NEIGHBOURS = np.array([[-1], [0], [1]])  # a hull vertex and its two neighbours
_R_MIN = 2.0 ** -1024  # 1/r is finite exactly for r > _R_MIN = 1/float max, rounded


def _require_positive(name: str, value: float) -> None:
    """Raise NonPositiveArgument unless value is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise NonPositiveArgument(f"{name} must be finite and > 0, got {value}")


def _positive_theta(g: GrowthFunction, ps: np.ndarray, symbol: str, form: str) -> np.ndarray:
    """g(ps) for a form that divides by it; NonPositiveArgument names the
    first p where it is not > 0, as symbol(p)."""
    thetas = g(ps)
    bad = np.flatnonzero(~(thetas > 0.0))
    if len(bad):
        raise NonPositiveArgument(
            f"growth {g.name} has {symbol}({ps[bad[0]]:g}) = {thetas[bad[0]]:g}; {form} divides by it")
    return thetas


def _log_power(x: np.ndarray, a: float) -> np.ndarray:
    """log(x**a) = a log x, and 0 for a = 0, as x**0 = 1 at every x."""
    return a * np.log(x) if a else np.zeros_like(x)


@dataclass(frozen=True)
class GrowthFunction:
    """Non-decreasing doubling function on [0, inf) with index p0, positive
    at p0, given by log_fn: a float array p -> log Theta(p)."""

    name: str
    p0: float
    log_fn: Callable[[np.ndarray], np.ndarray]
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_positive("p0", self.p0)
        # Theta(p0) = +inf passes: the search reports an objective finite nowhere
        log_theta0 = float(self._eval(self.p0, None))
        if not log_theta0 > -math.inf:
            raise NonPositiveArgument(f"Theta(p0) must be > 0, got log Theta = {log_theta0} at p0 = {self.p0}")

    def _eval(self, p, log_factor):
        """log Theta(p) for log_factor None, else e**(log Theta(p) + log_factor):
        the one errstate around log_fn, so log 0, the log of a negative and an
        overflowing exp give -inf, nan and +inf, never warnings."""
        with np.errstate(all="ignore"):
            out = np.asarray(self.log_fn(np.asarray(p, dtype=float)), dtype=float)
            return out if log_factor is None else np.exp(out + log_factor)

    def __call__(self, p):
        """Theta(p) = exp(log Theta(p)), +inf where that overflows."""
        out = self._eval(p, 0.0)
        return out if out.shape else float(out)

    def log_value(self, p):
        """log Theta(p), +inf wherever it is not finite (Theta overflowing in
        its own log, zero or negative): such p never attain the Yudovich infimum."""
        out = self._eval(p, None)
        if not out.shape:
            return float(out) if math.isfinite(out) else math.inf
        out[~np.isfinite(out)] = np.inf
        return out

    @cached_property
    def _hull(self):
        """(grid p, log p, log Theta(p), grid indices of the lower convex hull of
        the points (1/p, log Theta(p)) in ascending 1/p, its edge slopes), built once
        into the instance dict; replace() and theta1 return new instances.

        The hull is a monotone chain over the finite points in descending index:
        the last vertex is popped while it lies on or above the chord from its
        predecessor to the new point.  Until the first point that pops, the two
        last vertices are always the two points before the new one, so the
        chain's comparisons up to there are its predicate on each triple of
        consecutive points: one numpy pass evaluates them all, with the same
        float operations, and the loop runs only from the first failing triple.
        Every point of a convex phi passes; collinear points, as for a
        constant, fail at the first triple and leave the whole loop to run.
        """
        ps = np.geomspace(self.p0, _P_TOP, _GRID)
        xs, phi = np.log(ps), self.log_value(ps)
        s = 1.0 / ps
        order = np.flatnonzero(phi < np.inf)[::-1]
        sa, sb, si = s[order[:-2]], s[order[1:-1]], s[order[2:]]
        fa, fb, fi = phi[order[:-2]], phi[order[1:-1]], phi[order[2:]]
        kept = (sb - sa) * (fi - fa) > (fb - fa) * (si - sa)
        first = len(kept) if kept.all() else int(np.argmin(kept))
        v = order[:first + 2]
        if first + 2 < len(order):
            s, f, hull = s.tolist(), phi.tolist(), v.tolist()
            for i in order[first + 2:].tolist():
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
        c = float(value)
        return GrowthFunction(
            name=f"const({value:g})", p0=p0,
            log_fn=lambda p: np.full_like(p, np.log(c)), params={"value": c},
        )

    @staticmethod
    def power(alpha: float, p0: float = 1.0, shift: float = 0.0) -> "GrowthFunction":
        """(p + shift)**alpha, given as alpha log(p + shift).  shift=1 keeps the
        value positive at p=0."""
        name = f"(p+{shift:g})^{alpha:g}" if shift else f"p^{alpha:g}"
        a, s = float(alpha), float(shift)
        return GrowthFunction(
            name=name, p0=p0, log_fn=lambda p: _log_power(p + s, a),
            params={"alpha": a, "shift": s},
        )

    @staticmethod
    def log_power(
        alpha: float,
        log_alphas: Sequence[float] = (),
        p0: float = 2.0,
        shifted: bool = False,
    ) -> "GrowthFunction":
        """p^alpha * prod_m (log_m p)^alpha_m with iterated logs, given as
        alpha log p + sum_m alpha_m log(log_m p); where an iterated log with a
        nonzero exponent is not positive, log Theta is nan.

        With shifted=True uses (p+1)^alpha and log_m(p+e), which stays
        positive down to p=0 (the form needed for partial-sum growths).
        """
        a, las = float(alpha), tuple(float(am) for am in log_alphas)

        def log_fn(p):
            out = _log_power(p + 1.0 if shifted else p, a)
            arg = p + math.e if shifted else p
            for am in las:
                arg = np.log(arg)
                out = out + _log_power(arg, am)
            return out

        tag = "shifted-logpower" if shifted else "logpower"
        return GrowthFunction(
            name=f"{tag}({alpha:g};{','.join(f'{am:g}' for am in las)})",
            p0=p0, log_fn=log_fn, params={"alpha": a, "log_alphas": las, "shifted": shifted},
        )

    @staticmethod
    def from_callable(name: str, fn: Callable, p0: float = 1.0) -> "GrowthFunction":
        """The growth fn, given as log(fn)."""
        return GrowthFunction(name=name, p0=p0, log_fn=lambda p: np.log(np.asarray(fn(p), dtype=float)))

    @staticmethod
    def from_table(p_values, theta_values, p0: float | None = None) -> "GrowthFunction":
        """Tabulated growth: log Theta interpolated linearly in log p, clamped
        beyond the table."""
        pv = np.asarray(p_values, dtype=float)
        tv = np.asarray(theta_values, dtype=float)
        if pv.ndim != 1 or pv.shape != tv.shape or len(pv) < 2:
            raise InvalidArgument("table needs two equal-length 1-d columns")
        if np.any(np.diff(pv) <= 0):
            raise InvalidArgument("table p column must be strictly increasing")
        if np.any(tv <= 0):
            raise InvalidArgument("table values must be positive")
        lp, lt = np.log(pv), np.log(tv)

        def log_fn(p):
            return np.interp(np.log(np.maximum(p, pv[0])), lp, lt)

        return GrowthFunction(
            name="tabulated", p0=float(p0 if p0 is not None else pv[0]),
            log_fn=log_fn, params={"n_rows": len(pv)},
        )

    # -- diagnostics -------------------------------------------------------

    def doubling_constant(self) -> float:
        """sup of Theta(2p)/Theta(p) = exp(log Theta(2p) - log Theta(p)) on the
        _DOUBLING_SAMPLES-point log grid of [max(p0, 1/4), _DOUBLING_P_HI]: 64
        points up to 4096, skipping inf/inf and 0/0 (nan if all are)."""
        ps = np.geomspace(max(self.p0, 0.25), _DOUBLING_P_HI, _DOUBLING_SAMPLES)
        return float(np.fmax.reduce(self._eval(2.0 * ps, -self._eval(ps, None))))


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
        name=f"p*{g.name}", p0=g.p0, log_fn=lambda p: np.log(p) + g.log_fn(p), params={"base": g.name},
    )


def _legendre(g: GrowthFunction, log_r: np.ndarray):
    """log y(r), the p attaining it and the index into _PATHS of how it was
    found, for a 1-d array of log r > 0.

    With s = 1/p and phi(s) = log Theta(1/s), log y(r) = min_s phi(s) + s log r
    is the Legendre transform of phi at -log r.  On a finite point set a linear
    function is least at a vertex of the lower convex hull, convex phi or not
    (a point above the hull lies above an edge, least at one of its ends): the
    vertex whose edge slopes bracket -log r, found by one binary search.  It and
    its two hull neighbours each take one parabolic vertex step through their
    grid neighbours, kept where convex and lower, so each value is attained.
    Clamps are np.minimum of np.maximum, which is np.clip bit for bit (nan
    included), and masks are applied in place.
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
    c = np.minimum(np.maximum(v[np.minimum(np.maximum(j + _NEIGHBOURS, 0), len(v) - 1)], 1), _GRID - 2)
    fl, fc, fr = objective(c - 1), objective(c), objective(c + 1)
    h = xs[1] - xs[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        curv = fl - 2.0 * fc + fr
        vx = np.minimum(np.maximum(xs[c] + 0.5 * h * (fl - fr) / curv, xs[c - 1]), xs[c + 1])
        fv = g.log_value(np.exp(vx)) + log_r * np.exp(-vx)
    fv[~((curv > 0.0) & (fv < np.inf))] = np.inf
    i, cols = np.argmin(fv, axis=0), np.arange(len(log_r))
    fv, vx = fv[i, cols], vx[i, cols]
    step = fv < best
    argmin, path = ps[k], np.where(k == 0, 1, 2)
    best[step], argmin[step], path[step] = fv[step], np.exp(vx)[step], 3
    return best, argmin, path


def _yudovich(g: GrowthFunction, r):
    """y(r), the p attaining it and the _PATHS index, shaped like r; for r <= 1
    the objective increases in p, so y(r) is the p0 boundary value in closed form.
    When every r > 1, as in every call of the Osgood march, all of them go to
    _legendre at once."""
    rs = np.asarray(r, dtype=float)
    lo, hi = (rs.min(), rs.max()) if rs.size else (1.0, 1.0)
    if not (lo > 0.0 and hi < np.inf):
        raise NonPositiveArgument(f"r must be finite and > 0, got {r}")
    if lo > 1.0:
        log_y, argmins, path = _legendre(g, np.log(rs.ravel()))
        return np.exp(log_y).reshape(rs.shape), argmins.reshape(rs.shape), path.reshape(rs.shape)
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

def _quasi_decreasing_witness(g: GrowthFunction, c: float, p_lo: float) -> float | None:
    """Sampled acceptance test for 'p -> e**(c/p) Theta(p) is quasi-decreasing
    up to constants'; None when it passes, else the first offending p.

    Genuinely quasi-decreasing maps and maps that grow at a stable power
    rate both have per-doubling factors f(2p)/f(p) that settle; exponential
    growths have factors that keep inflating.  The map is sampled at 4 points
    per doubling from p_lo to _QD_P_HI (at least 4 doublings), and it passes
    when, from p = max(8 p_lo, 16) on, consecutive per-doubling factors never
    inflate by more than _SLACK, compared in log.  A value that is not
    finite and > 0 fails at its own p.
    """
    steps_per_doubling = 4
    settle_p = max(8.0 * p_lo, 16.0)
    n_doublings = max(4, int(math.ceil(math.log2(_QD_P_HI / p_lo))))
    m = n_doublings * steps_per_doubling + 1
    ps = p_lo * 2.0 ** (np.arange(m) / steps_per_doubling)
    log_vals = c / ps + g.log_value(ps)
    bad = np.flatnonzero(log_vals == np.inf)
    if not len(bad):
        log_factors = log_vals[steps_per_doubling:] - log_vals[:-steps_per_doubling]
        log_quot = log_factors[steps_per_doubling:] - log_factors[:-steps_per_doubling]
        bad = np.flatnonzero((ps[:len(log_quot)] >= settle_p) & (log_quot > math.log(_SLACK)))
    return float(ps[bad[0]]) if len(bad) else None


def check_hyp_quasi_decreasing(g: GrowthFunction) -> None:
    """Validate that p -> e**(p0/p) Theta(p) is quasi-decreasing, sampled by
    _quasi_decreasing_witness from max(p0, 1/2) with slack _SLACK = 1.05.

    Raises HypothesisViolated when the per-doubling growth of that map keeps
    inflating (the exponential-growth signature that breaks the log-argument
    characterization of y).
    """
    witness = _quasi_decreasing_witness(g, g.p0, max(g.p0, 0.5))
    if witness is not None:
        raise HypothesisViolated(
            f"e^(p0/p)*{g.name} fails the quasi-decreasing sampling check near p={witness:g}"
        )


def lemma1_ratio_scan(g: GrowthFunction, r_grid: Sequence[float]) -> dict:
    """Ratios y(r) / Theta(log r) over r_grid, plus the band they occupy.

    Requires a nonempty r_grid, every r > e**(2 p0) and the sampled
    quasi-decreasing hypothesis (check_hyp_quasi_decreasing).
    """
    r_grid = np.asarray(list(r_grid), dtype=float)
    if not r_grid.size:
        raise InvalidArgument("r_grid must not be empty")
    check_hyp_quasi_decreasing(g)
    floor = math.exp(2.0 * g.p0)
    if np.any(r_grid <= floor):
        raise InvalidArgument(f"all r must exceed e^(2 p0) = {floor:g}")
    ratios = yudovich(g, r_grid) / g(np.log(r_grid))
    c1, c2 = float(ratios.min()), float(ratios.max())
    return {"r": r_grid, "ratios": ratios, "band": (c1, c2), "band_width": c2 / c1}


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


def pclass_check(g: GrowthFunction, kappa: float) -> GrowthClassReport:
    """Check the four partial-sum-growth conditions at index kappa.

    (i) positive and non-decreasing on [0, inf), log Pi falling by at most
    1e-9 per sample; (ii) doubling with a constant at most _DOUBLING_CAP =
    1e6; (iii) e**(1/p) Pi(p) quasi-decreasing, sampled by
    _quasi_decreasing_witness from p = 1/2; (iv) sum_{j>=N} 2^(-j kappa) Pi(j)
    <= C 2^(-N kappa) Pi(N) for the first _HEADS = 64 indices N, the tails
    summed over _TAIL_TERMS = 4000 terms.  Failures are report entries with
    witnesses, never exceptions.
    """
    passes, witness = {}, {}
    ps = np.concatenate([np.linspace(0.0, 4.0, 33), np.geomspace(4.0, 4096.0, 64)])
    log_vals = g.log_value(ps)
    bad = np.flatnonzero(log_vals == np.inf)
    log_steps = np.diff(log_vals) if not len(bad) else None
    passes["monotone"] = bool(log_steps is not None and np.all(log_steps >= -1e-9))
    if not passes["monotone"]:
        witness["monotone"] = float(ps[bad[0]]) if len(bad) else float(ps[np.argmin(log_steps)])

    c_dbl = g.doubling_constant()
    passes["doubling"] = bool(np.isfinite(c_dbl) and c_dbl <= _DOUBLING_CAP)
    if not passes["doubling"]:
        witness["doubling"] = c_dbl

    w3 = _quasi_decreasing_witness(g, 1.0, 0.5)
    passes["quasi_decreasing"] = w3 is None
    if w3 is not None:
        witness["quasi_decreasing"] = w3

    # condition (iv): geometric-tail domination, checked by direct summation
    js = np.arange(_TAIL_TERMS, dtype=float)
    terms = g._eval(js, -js * kappa * math.log(2.0))
    tail_ratio: float | None = None
    nonfinite = np.flatnonzero(~np.isfinite(terms))
    if len(nonfinite):
        passes["tail_sum"] = False
        witness["tail_sum"] = f"tail term {nonfinite[0]} is {terms[nonfinite[0]]:g}, not finite"
    elif terms[-1] > 1e-12 * max(float(terms.max()), 1.0):
        passes["tail_sum"] = False
        witness["tail_sum"] = "tail terms do not decay (sum diverges or overflows)"
    else:
        tails, heads = np.cumsum(terms[::-1])[::-1][:_HEADS], terms[:_HEADS]
        # tails >= heads >= 0: +inf where a head is 0 or the ratio overflows
        ratios = np.divide(tails, heads, out=np.full(_HEADS, np.inf), where=heads > tails / np.finfo(float).max)
        tail_ratio = float(ratios.max())
        passes["tail_sum"] = bool(np.isfinite(tail_ratio))
        if not passes["tail_sum"]:
            witness["tail_sum"] = int(np.argmax(~np.isfinite(ratios)))

    return GrowthClassReport(kappa, passes, witness, c_dbl, tail_ratio)


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
    (1, inf); epsilon_L is ignored there.  osgood_test calls the modulus on
    whole blocks of decades, so it may be evaluated up to _BLOCK - 1 = 7
    decades past the one that decides the verdict, though never past
    x = log r = -700.
    """
    modulus: Callable[[np.ndarray], np.ndarray]
    epsilon_L: float = 1.0
    orientation: OsgoodOrientation = OsgoodOrientation.ZERO_END

    def validate(self) -> None:
        if self.orientation is OsgoodOrientation.ZERO_END:
            _require_positive("epsilon_L", self.epsilon_L)
            if not self.epsilon_L * 1e-8 > _R_MIN:
                # a growth's modulus forms 1/r at each sample
                raise NonPositiveArgument(
                    f"1e-8 epsilon_L must exceed 2^-1024, where 1/r is finite, got epsilon_L = {self.epsilon_L}")
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


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The _NODES Gauss-Legendre nodes and weights on [-1, 1], built on the
    first march rather than at import, which would pay for importing
    numpy.polynomial (about 4 ms)."""
    return np.polynomial.legendre.leggauss(_NODES)


def _decade_increments(modulus, x0: float, step: float, n_decades: int, zero: bool):
    """Yield (k, increment of decade k) for k < n_decades, the decade from
    x = x0 + k step to x0 + (k + 1) step, one modulus call per _BLOCK decades;
    a block is built only once the march asks for its first decade."""
    nodes, weights = _gauss_legendre()
    for k0 in range(0, n_decades, _BLOCK):
        ks = np.arange(k0, min(k0 + _BLOCK, n_decades))
        a = x0 + ks * step
        b = a + step
        w = 0.5 * np.abs(b - a)  # half-widths, one per decade
        r = np.exp(w[:, None] * nodes + 0.5 * (a + b)[:, None])
        vals = np.asarray(modulus(r.ravel()), dtype=float).reshape(r.shape)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            incs = w * np.sum(weights * ((r if zero else 1.0) / vals), axis=1)
        yield from zip(ks.tolist(), incs.tolist())


def osgood_test(spec: OsgoodSpec) -> OsgoodResult:
    """Integrate the Osgood integrand decade by decade toward the singular end.

    One march serves both ends: with r = e^x it integrates r / L(r) dx down
    from x = log epsilon_L toward zero, or dx / y(r) up from x = 0 toward
    infinity, one modulus call per block of _BLOCK decades, for at most
    _DECADES decades and none past x = -700, where e^x would underflow.
    Divergent when the partial integral passes the divergence threshold while
    still growing, Convergent when per-decade increments Cauchy-stabilize.
    When neither fast exit fires within the march, the tail increments are
    fitted to c * k^(-q); q <= _TAIL_CUT reads as a divergent tail, q above
    it as a summable one.  The verdict is a documented heuristic: quadrature
    alone cannot decide divergence.
    """
    spec.validate()
    ln10 = math.log(10.0)
    zero = spec.orientation is OsgoodOrientation.ZERO_END
    x0, step = (math.log(spec.epsilon_L), -ln10) if zero else (0.0, ln10)
    n_decades = min(_DECADES, int((x0 + 700.0) / ln10))

    rows, increments, total = [], [], 0.0
    verdict, stop = None, _EXITS[4]
    for k, inc in _decade_increments(spec.modulus, x0, step, n_decades, zero):
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
) -> OsgoodSpec:
    """Build the modulus induced by a growth: L(r) = r * y(1/r) on (0, 1/2),
    whose Osgood verdict does not depend on that end, or y itself on (1, inf)
    for the infinity-end test.  lift=True replaces Theta by p * Theta(p) first.
    """
    gg = theta1(g) if lift else g
    if orientation is OsgoodOrientation.ZERO_END:
        def modulus(r):
            r = np.atleast_1d(np.asarray(r, dtype=float))
            return r * yudovich(gg, 1.0 / r)
    else:
        def modulus(r):
            return yudovich(gg, r)
    return OsgoodSpec(modulus=modulus, epsilon_L=0.5, orientation=orientation)
