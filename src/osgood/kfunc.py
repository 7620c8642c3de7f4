"""Sampled K-functionals for the concrete pairs the norms are built from.

Each curve samples t -> K(t, f; A0, A1) = inf over splittings f = f0 + f1 of
||f0||_0 + t ||f1||_1.  Only the sequence pair admits an exact formula; the
others are computed through their standard surrogates (rearrangement prefix
integrals, trimmed-oscillation maximal function, grid modulus of continuity)
and are equivalences up to absorbed constants, never equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptySequence, InvalidArgument, InvalidExponent, InvalidField, NonPositiveArgument
from .field import _LAMBDA, GridField, RearrangementProfile, rearrange, sharp_maximal
from .growth import GrowthFunction, _legendre, _require_positive, _with_p0

_RTOL = 1e-9  # check_shape's relative round-off allowance
_H_POINTS = 48  # the h grid of the modulus of continuity
_ENVELOPE_BYTES = 512 * 1024  # lower envelopes one modulus sweep fills at once
_T_GRID = np.geomspace(1e-6, 1e3, 64)  # the K curves' t samples unless a caller gives its own
_T_GRID.setflags(write=False)  # curves share it as their t_samples


@dataclass(frozen=True)
class KCurve:
    pair: str
    t_samples: np.ndarray
    k_values: np.ndarray
    params: dict | None = None

    def check_shape(self, concave_slack: float = 0.35) -> None:
        """K nondecreasing and K/t nonincreasing hold exactly for every pair,
        up to a round-off of _RTOL = 1e-9 relative to the largest value;
        concavity is exact only for the true-K pairs (p0=1 prefix integral,
        sequence sums), so surrogate curves get a relative slack against the
        chord.  Pass concave_slack=0 for the exact pairs."""
        t, k = self.t_samples, self.k_values
        scale = max(float(k.max()), 1e-300)
        if np.any(np.diff(k) < -_RTOL * scale):
            raise AssertionError(f"{self.pair}: K not nondecreasing")
        slopes = k / t
        if np.any(np.diff(slopes) > _RTOL * max(float(slopes.max()), 1e-300)):
            raise AssertionError(f"{self.pair}: K/t not nonincreasing")
        chord = k[:-2] + (k[2:] - k[:-2]) * ((t[1:-1] - t[:-2]) / (t[2:] - t[:-2]))
        floor = chord * (1.0 - concave_slack) - 64 * _RTOL * scale
        if np.any(k[1:-1] < floor):
            raise AssertionError(f"{self.pair}: K dips below the concave chord envelope")


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
    """K(t) = (integral of (f*)^p0 over (0, t^p0))^(1/p0) on prof.  For
    p0 >= 1, t is clamped at (2 |Omega|)^(1/p0) before the power, so t^p0
    cannot overflow: every measure past |Omega| reads the whole integral.
    For p0 < 1 a finite t^p0 cannot overflow, but the cap could, so none.
    Where t^p0 is below the smallest normal float it has underflowed, and K
    reads t f*(0), exact while t^p0 lies in the first cell."""
    _require_positive("p0", p0)
    t = np.asarray(t_grid, dtype=float)
    cap = (2.0 * prof.total_measure) ** (1.0 / p0) if p0 >= 1.0 else np.inf
    measure = np.minimum(t, cap) ** p0
    k = prof.power_integral(measure, p0) ** (1.0 / p0)
    k = np.where(measure < np.finfo(float).tiny, t * prof.values[0], k)
    return KCurve(pair=f"Lp_Linf(p0={p0:g})", t_samples=t, k_values=k)


def k_lp_linf(f: GridField, p0: float, t_grid=_T_GRID) -> KCurve:
    """K(t) = (integral of (f*)^p0 over (0, t^p0))^(1/p0) on t_grid, by default
    _T_GRID (64 points geometric on [1e-6, 1e3]); exact for p0 = 1."""
    return k_lp_linf_profile(rearrange(f), p0, t_grid)


# -- (L^p0, BMO) ---------------------------------------------------------------

def k_lp_bmo(f: GridField, p0: float, t_grid=_T_GRID) -> KCurve:
    """Oscillation-pair surrogate built from the trimmed-oscillation maximal
    function at the fixed lambda = _LAMBDA = 1/4 (in params); constants are
    absorbed, so the curve is an equivalent of the true K, not an equality."""
    curve = k_lp_linf_profile(rearrange(sharp_maximal(f)), p0, t_grid)
    return KCurve(
        pair=f"Lp_BMO(p0={p0:g})", t_samples=curve.t_samples, k_values=curve.k_values,
        params={"lambda": _LAMBDA, "surrogate": "trimmed-oscillation"},
    )


# -- (L^inf, Lip) ---------------------------------------------------------------

def _chords(h: float, spacing: float, half: int) -> np.ndarray:
    """Chord half-widths bx(dy), dy = 0..a, of the offset disc |d| <= h:
    a = floor(h/spacing) and bx(dy) = floor(sqrt((h/spacing)^2 - dy^2)), each
    with a 1e-12 allowance and capped at half = n//2; empty for h < 0.

    The offsets of the disc are (dy, dx) with |dy| <= a and |dx| <= bx(|dy|),
    wrapped periodically, so a wrapped offset (oy, ox) is in it exactly when
    its shortest representative is: min(oy, n - oy) <= a and
    min(ox, n - ox) <= bx(min(oy, n - oy)), bx never growing with |dy|.
    """
    a = min(int(np.floor(h / spacing + 1e-12)), half)
    dy = np.arange(a + 1)
    chord2 = (h / spacing) ** 2 - dy * dy
    return np.minimum(np.floor(np.sqrt(np.maximum(chord2, 0.0)) + 1e-12), half).astype(int)


def _sweep(v: np.ndarray, padded: np.ndarray, chords: list) -> list:
    """max of v - lower for each disc of chords, from one widening sweep.

    One running row-minimum widens a column offset at a time, against slices
    of v padded by n//2 columns on each side, up to the widest chord; at
    width w it is folded into the lower envelope of every disc whose chord
    at row dy is w, as slice minima against the rows +dy and -dy, wrapped.
    Each disc's envelope then holds the minimum over exactly its offsets.
    """
    n = v.shape[0]
    half = n // 2
    lowers = np.full((len(chords),) + v.shape, np.inf)
    folds = [[] for _ in range(max(int(bx[0]) for bx in chords) + 1)]
    for lower, bx in zip(lowers, chords):
        for dy, w in enumerate(bx):
            folds[w].append((lower, dy))
    rowmin = v.copy()
    for w, fold in enumerate(folds):
        if w:
            np.minimum(rowmin, padded[:, half + w:half + w + n], out=rowmin)
            np.minimum(rowmin, padded[:, half - w:half - w + n], out=rowmin)
        for lower, dy in fold:
            # lower[r] against rowmin[r + dy] and rowmin[r - dy], wrapped
            for s in {dy, (n - dy) % n}:
                np.minimum(lower[:n - s], rowmin[s:], out=lower[:n - s])
                np.minimum(lower[n - s:], rowmin[:s], out=lower[n - s:])
    return [float(np.subtract(v, lower, out=lower).max()) for lower in lowers]


def modulus_of_continuity(fields: Sequence[np.ndarray], spacing: float, h_values) -> np.ndarray:
    """Exact grid modulus sup over |x-y| <= h of |v(x)-v(y)|, per h.

    The offsets (dy, dx) visited are those of `_chords`' disc, wrapped
    periodically, one chord table for all components; the modulus is the
    largest v - lower, lower the minimum of v over the disc about each
    sample.  For vector data the maximum over components is taken,
    components running in order of decreasing oscillation max - min, which
    bounds their modulus.  Per component and h:

    - h is skipped when the components done already reach the oscillation;
    - when the disc holds the shortest wrapped offset from v.argmax() to
      v.argmin(), the modulus is max - min, the difference the envelope
      would give; a tied pair nearer than that one is left to the sweep;
    - otherwise h joins a batch of ascending radii that `_sweep` serves with
      one widening sweep, holding _ENVELOPE_BYTES of envelopes.

    min and max are exact and fl(a - b) is monotone in b, so each route gives
    the same bits.  Work is O(n^2 a) per swept h.  Components that are not
    square 2-d arrays of one shape (one spacing measures them all) and of
    finite samples raise InvalidField; a spacing not finite and > 0, or an h
    not finite, NonPositiveArgument (h < 0 is an empty disc).
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
    half = n // 2
    chords = [_chords(h, spacing, half) for h in hs]
    osc = [float(v.max() - v.min()) for v in comps]
    for k in sorted(range(len(comps)), key=lambda k: -osc[k]):
        v = comps[k]
        (py, px), (qy, qx) = divmod(int(v.argmax()), n), divmod(int(v.argmin()), n)
        ey, ex = (min(d % n, -d % n) for d in (qy - py, qx - px))
        swept = []
        for i, bx in enumerate(chords):
            if len(bx) == 0 or out[i] >= osc[k]:
                continue
            if ey < len(bx) and ex <= bx[ey]:
                out[i] = osc[k]
            else:
                swept.append(i)
        swept.sort(key=lambda i: hs[i])
        batch = max(1, _ENVELOPE_BYTES // v.nbytes)
        padded = np.pad(v, ((0, 0), (half, half)), mode="wrap")
        for b in range(0, len(swept), batch):
            ids = swept[b:b + batch]
            for i, m in zip(ids, _sweep(v, padded, [chords[i] for i in ids])):
                out[i] = max(out[i], m)
    return out if np.ndim(h_values) else float(out[0])


def _h_grid(f: GridField) -> np.ndarray:
    """The _H_POINTS = 48-point h grid, geometric from the grid spacing to half
    the side of the field's domain."""
    return np.geomspace(f.spacing, f.domain.side / 2.0, _H_POINTS)


def k_linf_lip(v: GridField | Sequence[GridField]) -> KCurve:
    """K(t) realized as the exact grid modulus of continuity at separation t,
    sampled on the 48-point h grid of the first component."""
    comps = [v] if isinstance(v, GridField) else list(v)
    t = _h_grid(comps[0])
    k = modulus_of_continuity([c.data for c in comps], comps[0].spacing, t)
    return KCurve(pair="Linf_W1inf", t_samples=t, k_values=k)


# -- sequence pair (exact) ------------------------------------------------------

def k_seq(seq: BandSequence, s0: float, s1: float, t):
    """Exact K for weighted little-l1 direct sums:
    sum_j min(2^(j s0), t 2^(j s1)) ||f_j||; a float for scalar t, an array
    shaped like t otherwise.  Each t must be >= 0 (t = inf is the L^s0 end);
    a nan or negative t raises NonPositiveArgument, and exponents other than
    finite s0 < s1 raise InvalidExponent."""
    if not seq.entries:
        raise EmptySequence("band sequence has no entries")
    if not -np.inf < s0 < s1 < np.inf:
        raise InvalidExponent(f"need finite s0 < s1, got s0 = {s0}, s1 = {s1}")
    js, norms = seq.js, seq.norms
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise NonPositiveArgument(f"t must be >= 0, got {t[~(t >= 0.0)][0]}")
    t = t[..., None]
    out = np.sum(np.minimum(2.0 ** (js * s0), t * 2.0 ** (js * s1)) * norms, axis=-1)
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
    elsewhere.  Samples must be finite and > 0.
    """
    s = curve.t_samples
    if not np.all((s > 0.0) & (s < np.inf)):
        raise NonPositiveArgument("K samples must be finite and > 0")
    gp = _with_p0(g, p0)
    log_r = -p0 * np.log(s)
    big = log_r > 0.0
    y = gp(p0) / s
    if big.any():
        y[big] = np.exp(_legendre(gp, log_r[big])[0])
    return _sup_finite_ratio(curve.k_values, s * y)


def _sup_finite_ratio(num, den) -> float:
    """max of the finite entries of num / den, 0 when there are none: every
    sampled sup of a norm form (over p, t, N or alpha) is taken by this one
    rule, so a 0 / 0 or x / 0 sample never decides a form."""
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = num / den
    vals = vals[np.isfinite(vals)]
    return float(vals.max()) if len(vals) else 0.0


def _ratio(x: float, y: float) -> float:
    """x / y, with x / 0 = inf for x > 0 and 0 / 0 = 1: two vanishing forms agree."""
    return x / y if y > 0 else np.inf if x > 0 else 1.0
