"""Sampled K-functionals for the concrete pairs the norms are built from.

Each curve samples t -> K(t, f; A0, A1) = inf over splittings f = f0 + f1 of
||f0||_0 + t ||f1||_1.  Only the sequence pair admits an exact formula; the
others are computed through their standard surrogates (rearrangement prefix
integrals, trimmed-oscillation maximal function, grid modulus of continuity)
and are equivalences up to absorbed constants, never equalities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import EmptySequence, InvalidArgument, InvalidExponent, InvalidField, NonPositiveArgument
from .field import GridField, RearrangementProfile, rearrange, sharp_maximal
from .growth import _LOG_MAX, GrowthFunction, _legendre, _require_positive, _with_p0

_H_POINTS = 48  # the h grid of the modulus of continuity
_T_GRID = np.geomspace(1e-6, 1e3, 64)  # the field K curves' t samples
_T_GRID.setflags(write=False)  # curves share it as their t_samples


@dataclass(frozen=True)
class KCurve:
    pair: str
    t_samples: np.ndarray
    k_values: np.ndarray


@dataclass(frozen=True)
class BandSequence:
    """Frequency-band sup-norms (j, ||f_j||_inf), indices strictly increasing."""

    entries: tuple

    def __post_init__(self):
        ent = tuple((int(j), float(v)) for j, v in self.entries)
        if any(v < 0 for _, v in ent):
            raise InvalidArgument("band norms must be nonnegative")
        js = [j for j, _ in ent]
        if any(b <= a for a, b in zip(js, js[1:])):
            raise InvalidArgument("band indices must be strictly increasing")
        object.__setattr__(self, "entries", ent)

    @property
    def js(self) -> np.ndarray:
        return np.array([j for j, _ in self.entries], dtype=float)

    @property
    def norms(self) -> np.ndarray:
        return np.array([v for _, v in self.entries], dtype=float)


# -- (L^p0, L^inf) ------------------------------------------------------------

def k_lp_linf_profile(prof: RearrangementProfile, p0: float, t_grid) -> KCurve:
    """K(t) = (integral of (f*)^p0 over (0, t^p0))^(1/p0) on prof, t >= 0 (else
    NonPositiveArgument).  The measure t^p0 is capped at 2 |Omega|, t = inf
    too: every measure past |Omega| reads the whole integral.  For p0 >= 1, t
    is capped at (2 |Omega|)^(1/p0) before the power, which then cannot
    overflow (for p0 < 1 that cap could).  Where t^p0 has underflowed below the
    smallest normal float, and only there, K is t f*(0), exact while t^p0 lies
    in the first cell."""
    _require_positive("p0", p0)
    t = np.asarray(t_grid, dtype=float)
    if not np.all(t >= 0.0):
        raise NonPositiveArgument(f"t must be >= 0, got {t[~(t >= 0.0)][0]}")
    limit = 2.0 * prof.total_measure
    cap = limit ** (1.0 / p0) if p0 >= 1.0 else np.inf
    measure = np.minimum(np.minimum(t, cap) ** p0, limit)
    k = np.asarray(prof.power_integral(measure, p0) ** (1.0 / p0))
    under = measure < np.finfo(float).tiny
    k[under] = t[under] * prof.values[0]
    return KCurve(pair=f"Lp_Linf(p0={p0:g})", t_samples=t, k_values=k)


def k_lp_linf(f: GridField, p0: float) -> KCurve:
    """K(t) = (integral of (f*)^p0 over (0, t^p0))^(1/p0) on _T_GRID (64 points
    geometric on [1e-6, 1e3]), exact for p0 = 1; k_lp_linf_profile takes any t."""
    return k_lp_linf_profile(rearrange(f), p0, _T_GRID)


# -- (L^p0, BMO) ---------------------------------------------------------------

def k_lp_bmo(f: GridField, p0: float) -> KCurve:
    """Oscillation-pair surrogate on _T_GRID built from the trimmed-oscillation
    maximal function at the fixed lambda = _LAMBDA = 1/4; constants are
    absorbed, so the curve is an equivalent of the true K, not an equality."""
    return replace(k_lp_linf_profile(rearrange(sharp_maximal(f)), p0, _T_GRID), pair=f"Lp_BMO(p0={p0:g})")


# -- (L^inf, Lip) ---------------------------------------------------------------

def _chords(h: float, spacing: float, half: int) -> np.ndarray:
    """Chord half-widths bx(dy), dy = 0..a, of the offset disc |d| <= h:
    a = floor(h/spacing) and bx(dy) = floor(sqrt((h/spacing)^2 - dy^2)), each
    with a 1e-12 allowance and capped at half = n//2; empty for h < 0.  h is
    capped first at 2 half spacings, where every chord is capped already.

    The offsets of the disc are (dy, dx) with |dy| <= a and |dx| <= bx(|dy|),
    wrapped periodically, so a wrapped offset (oy, ox) is in it exactly when
    its shortest representative is: min(oy, n - oy) <= a and
    min(ox, n - ox) <= bx(min(oy, n - oy)), bx never growing with |dy|.
    """
    ratio = min(h, 2.0 * half * float(spacing)) / spacing
    a = min(int(np.floor(ratio + 1e-12)), half)
    dy = np.arange(a + 1)
    chord2 = ratio ** 2 - dy * dy
    return np.minimum(np.floor(np.sqrt(np.maximum(chord2, 0.0)) + 1e-12), half).astype(int)


_GATHER = 2 ** 13  # the most row windows one chunk of exact disc minima reads


class _DiscSearch:
    """The pruned search for the largest v - lower of one component, disc
    after disc in ascending h, each disc of a = len(bx) - 1 >= 1.

    The floor it is given is raised to max(v - min of the four axis
    neighbours), which every such disc holds.  The bound: the disc lies in
    the wrapped box of side W = min(2a + 1, n) about each sample x, so U(x)
    = v(x) - (min of v over that box) is at least x's v - lower, exactly in
    floats since fl(p - q) is monotone in q.  The box minimum is four reads
    of one square-min level (the min over 2^k x 2^k, 2^k <= W, advanced in
    place as a grows), one box per distinct a.  Only the samples with U
    above the floor are live; they are visited in descending U, in chunks
    that double up to _GATHER row windows, and each one's exact disc
    minimum is two reads per row offset of the row-min pyramid, whose level
    k is the min over 2^k columns: a row window of width min(2 bx + 1, n)
    is two overlapping power-of-two windows.  The search stops once the
    next U is at most the best value.  The pyramid holds the levels 0..top,
    top the level of the widest chord the search can be asked for, and is
    built when a disc first has a live sample.  A disc with the chords of
    the one before it returns that one's value.
    """

    def __init__(self, v: np.ndarray, top: int):
        self.v, self.n, self.top = np.ascontiguousarray(v), v.shape[0], top
        low = np.roll(self.v, 1, 0)
        for shift, axis in ((-1, 0), (1, 1), (-1, 1)):
            np.minimum(low, np.roll(self.v, shift, axis), out=low)
        self.neighbours = float(np.subtract(self.v, low, out=low).max())
        self.square, self.side = self.v, 1  # square[r, c] = min of v over [r, r + side) x [c, c + side)
        self.box_a, self.bound = -1, None  # U, flat, for the wrapped box of half-width box_a
        self.rows = None  # the row-min pyramid, level k flat in rows[k]
        self.last = (), 0.0  # the chords searched last and their value

    def _bound(self, a: int) -> np.ndarray:
        if a != self.box_a:
            self.bound = None  # released before the next one is formed
            w = min(2 * a + 1, self.n)
            while 2 * self.side <= w:
                self.square = np.minimum(self.square, np.roll(self.square, -self.side, 1))
                np.minimum(self.square, np.roll(self.square, -self.side, 0), out=self.square)
                self.side *= 2
            d = w - self.side
            box = np.minimum(self.square, np.roll(self.square, -d, 1))
            np.minimum(box, np.roll(box, -d, 0), out=box)
            box = np.roll(box, (a, a), (0, 1))
            self.box_a, self.bound = a, np.subtract(self.v, box, out=box).ravel()
        return self.bound

    def _pyramid(self) -> np.ndarray:
        if self.rows is None:
            n = self.n
            self.rows = np.empty((self.top + 1, n * n))
            self.rows[0] = self.v.ravel()
            for k in range(1, self.top + 1):
                below = self.rows[k - 1].reshape(n, n)
                np.minimum(below, np.roll(below, -(1 << (k - 1)), 1), out=self.rows[k].reshape(n, n))
        return self.rows

    def largest(self, bx: np.ndarray, floor: float) -> float:
        """max(floor, largest v - lower over the disc of chords bx), for a
        floor no larger than the modulus at bx's h."""
        if np.array_equal(bx, self.last[0]):
            return max(floor, self.last[1])
        n, a = self.n, len(bx) - 1
        best = max(floor, self.neighbours)
        bound = self._bound(a)
        live = np.flatnonzero(bound > best)
        if len(live):
            live = live[np.argsort(-bound[live], kind="stable")]
            dy = np.arange(-a, a + 1)
            b = bx[np.abs(dy)]
            w = np.minimum(2 * b + 1, n)
            k = np.frexp(w)[1].astype(np.intp) - 1  # 2^k <= w < 2^(k + 1)
            rows, level = self._pyramid(), k * (n * n)
            first, second = -b, w - (1 << k) - b
            start, size, cap = 0, 1, max(1, _GATHER // len(dy))
            while start < len(live) and bound[live[start]] > best:
                chunk = live[start:start + size]
                r, c = np.divmod(chunk[:, None], n)
                at = level + (r + dy) % n * n
                lower = np.minimum(rows.take(at + (c + first) % n), rows.take(at + (c + second) % n)).min(1)
                best = max(best, float((self.v.ravel()[chunk] - lower).max()))
                start, size = start + size, min(2 * size, cap)
        self.last = bx, best
        return best


def modulus_of_continuity(fields: Sequence[np.ndarray], spacing: float, h_values) -> np.ndarray:
    """Exact grid modulus sup over |x-y| <= h of |v(x)-v(y)|, per h.

    The offsets (dy, dx) visited are those of `_chords`' disc, wrapped
    periodically, one chord table for all components; the modulus is the
    largest v - lower, lower the minimum of v over the disc about each
    sample.  For vector data the maximum over components is taken,
    components running in order of decreasing oscillation max - min, which
    bounds their modulus.  Each component walks the h in ascending order
    (a stable argsort) with a running floor: the largest value written for
    a smaller or equal h and the components done already, each at most the
    final modulus at h, which never falls as h grows.  Per component and h:

    - h is skipped when the floor reaches the oscillation, and a disc of
      a = 0 reads v - v = 0, below any floor;
    - when the disc holds the shortest wrapped offset from v.argmax() to
      v.argmin(), the modulus is max - min, the difference the envelope
      would give; a tied pair nearer than that one is left to the search;
    - otherwise `_DiscSearch.largest` takes the exact disc minimum only at
      the samples whose box bound is above the floor.

    min and max are exact and fl(a - b) is monotone in b, so each route and
    each floor gives the same bits.  Work per searched disc is O(n^2) for
    its box bound plus O(a) per sample visited.  Memory is a few n^2
    arrays and the row pyramid, which has up to floor(log2 n) + 1 levels of
    n^2 doubles, one per power of two up to the widest searched chord.
    Components that are not square 2-d arrays of one shape (one spacing
    measures them all) and of finite samples raise InvalidField; a spacing
    not finite and > 0, or an h not finite, NonPositiveArgument (h < 0 is an
    empty disc, read as 0).
    """
    hs = np.atleast_1d(np.asarray(h_values, dtype=float))
    _require_positive("spacing", spacing)
    if not np.isfinite(hs).all():
        raise NonPositiveArgument(f"h must be finite, got {hs[~np.isfinite(hs)][0]}")
    out = np.zeros(len(hs))
    comps = [np.asarray(c, dtype=float) for c in fields]
    if len({v.shape for v in comps}) != 1 or comps[0].ndim != 2 or comps[0].shape[0] != comps[0].shape[1]:
        # one n = shape[0] wraps both axes of every component, with one chord table
        raise InvalidField("the components must be one or more square 2-d arrays of one shape")
    if not all(np.isfinite(v).all() for v in comps):
        # a nan, or inf - inf, in v - lower would read as a zero modulus
        raise InvalidField("component samples must be finite")
    n = comps[0].shape[0]
    chords = [_chords(h, spacing, n // 2) for h in hs]
    ascending = np.argsort(hs, kind="stable")
    osc = [float(v.max() - v.min()) for v in comps]
    for k in sorted(range(len(comps)), key=lambda k: -osc[k]):
        v = comps[k]
        (py, px), (qy, qx) = divmod(int(v.argmax()), n), divmod(int(v.argmin()), n)
        ey, ex = (min(d % n, -d % n) for d in (qy - py, qx - px))
        reach = [ey < len(bx) and ex <= bx[ey] for bx in chords]
        widest = max((int(bx[0]) for bx, r in zip(chords, reach) if len(bx) > 1 and not r), default=0)
        search, floor = None, 0.0
        for i in ascending:
            floor = out[i] = max(floor, out[i])
            if len(chords[i]) < 2 or floor >= osc[k]:
                continue
            if not reach[i] and search is None:
                search = _DiscSearch(v, min(2 * widest + 1, n).bit_length() - 1)
            floor = out[i] = osc[k] if reach[i] else search.largest(chords[i], floor)
    return out if np.ndim(h_values) else float(out[0])


def _h_grid(f: GridField) -> np.ndarray:
    """The _H_POINTS = 48-point h grid, geometric from the grid spacing to half
    the side of the field's domain."""
    return np.geomspace(f.spacing, f.domain.side / 2.0, _H_POINTS)


def k_linf_lip(v: GridField | Sequence[GridField]) -> KCurve:
    """K(t) realized as the exact grid modulus of continuity at separation t,
    sampled on the 48-point h grid of the first component (InvalidField if none)."""
    comps = [v] if isinstance(v, GridField) else list(v)
    if not comps:
        raise InvalidField("k_linf_lip needs one or more components")
    t = _h_grid(comps[0])
    k = modulus_of_continuity([c.data for c in comps], comps[0].spacing, t)
    return KCurve(pair="Linf_W1inf", t_samples=t, k_values=k)


# -- sequence pair (exact) ------------------------------------------------------

def _band_weights(js: np.ndarray, norms: np.ndarray, s, name: str) -> np.ndarray:
    """2^(j s) for each band index j of js (last axis) and each exponent s
    (leading axes).  An s not finite, or one that takes some j s, some weight
    or the sum of 2^(j s) norms_j past the float range, raises
    InvalidExponent naming it (zero norms check the weights alone).  Each
    is largest at the least or the greatest s, a sum of exponentials being
    convex, and is checked there first in Python floats, where an overflow
    is a silent inf, with a margin of 2^-40 for the order of numpy's sum:
    numpy then forms no product, power or sum that overflows."""
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise InvalidExponent(f"{name} must be finite, got {s[~np.isfinite(s)][0]}")
    for e in (float(s.min()), float(s.max())) if s.size else ():
        total = 0.0
        for j, v in zip(js.tolist(), norms.tolist()):
            x = j * e
            total += 2.0 ** x * v if -np.inf < x < 1024.0 else np.inf
        if not total * (1.0 + 2.0 ** -40) < np.inf:
            raise InvalidExponent(
                f"{name} = {e:g} takes the band weights 2^(j {name}) or their sum past the float range")
    return 2.0 ** (js * s[..., None])


def k_seq(seq: BandSequence, s0: float, s1: float, t):
    """Exact K for weighted little-l1 direct sums:
    sum_j min(2^(j s0), t 2^(j s1)) ||f_j||; a float for scalar t, an array
    shaped like t otherwise.  Each t must be >= 0 (t = inf is the L^s0 end);
    a nan or negative t raises NonPositiveArgument, and exponents other than
    finite s0 < s1, or with a weight past the float range, raise
    InvalidExponent.  K(0) = 0 and K(inf) take no weight 2^(j s1), so they
    are answered whatever s1 is, and a product t 2^(j s1) past the floats,
    or inf * 0 (an underflowed weight at t = inf), reads as the 2^(j s0) term."""
    if not seq.entries:
        raise EmptySequence("band sequence has no entries")
    if not -np.inf < s0 < s1 < np.inf:
        raise InvalidExponent(f"need finite s0 < s1, got s0 = {s0}, s1 = {s1}")
    js, norms = seq.js, seq.norms
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise NonPositiveArgument(f"t must be >= 0, got {t[~(t >= 0.0)][0]}")
    low = _band_weights(js, norms, s0, "s0")
    finite = np.any((t > 0.0) & (t < np.inf))
    high = _band_weights(js, np.zeros_like(norms), s1, "s1") if finite else np.ones_like(js)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan products: fmin takes the s0 term
        out = np.sum(np.fmin(low, t[..., None] * high) * norms, axis=-1)
    return out if out.ndim else float(out)


# -- extrapolation supremum -------------------------------------------------------

def extrapolation_sup(curve: KCurve, g: GrowthFunction, p0: float) -> float:
    """sup over samples s of K(s) / (s * y(s^(-p0))): the norm of the
    growth-indexed extrapolation space in its universal K-functional form
    (curve samples are read as the K argument s = t^(1/p0)).

    The Yudovich function is taken with the pair's index p0 (the growth is
    re-indexed if needed); otherwise the large-s plateau picks up a spurious
    power of s.  y is read from log r = -p0 log s alone, so r is never formed
    and no p0 overflows it: y is the p0 boundary value Theta(p0) r^(1/p0) =
    Theta(p0) / s where log r <= 0, and the Legendre transform of log r
    elsewhere.  Samples must be finite and > 0, and a p0 for which some
    log r or some y passes the float range raises InvalidExponent, checked
    before y is formed: Theta(p0) / s <= Theta(p0) where s >= 1, and log y
    <= log of the float max where the exp is taken.
    """
    s = curve.t_samples
    if not np.all((s > 0.0) & (s < np.inf)):
        raise NonPositiveArgument("K samples must be finite and > 0")
    gp = _with_p0(g, p0)
    log_s = np.log(s)
    if not float(p0) * float(np.abs(log_s).max()) < np.inf:
        raise InvalidExponent(f"p0 = {p0:g} takes log r = -p0 log s past the float range")
    log_r = -p0 * log_s
    big = log_r > 0.0
    y = np.zeros_like(s)
    y[~big] = gp(p0) / s[~big]
    log_y = _legendre(gp, log_r[big])[0] if big.any() else np.empty(0)
    if not (y.max() < np.inf and np.all(log_y <= _LOG_MAX)):
        raise InvalidExponent(f"p0 = {p0:g} takes y(s^-p0) past the float range")
    y[big] = np.exp(log_y)
    return _sup_finite_ratio(curve.k_values, s * y)


def _sup_finite_ratio(num, den) -> float:
    """max of the finite entries of num / den, 0 when there are none: every
    sampled sup of a norm form (over p, t, N or alpha) is taken by this one
    rule, so a 0 / 0 or x / 0 sample never decides a form.  A finite ratio
    that overflows raises InvalidArgument: the form passes the float range."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        vals = num / den
    if np.any(np.isinf(vals) & np.isfinite(num) & (den != 0)):
        raise InvalidArgument("a sampled norm form passes the float range: a finite ratio overflows")
    vals = vals[np.isfinite(vals)]
    return float(vals.max()) if len(vals) else 0.0


def _ratio(x: float, y: float) -> float:
    """x / y, with x / 0 = inf for x > 0 and 0 / 0 = 1: two vanishing forms agree."""
    return x / y if y > 0 else np.inf if x > 0 else 1.0
