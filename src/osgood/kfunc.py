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

from .errors import EmptySequence
from .field import GridField, RearrangementProfile, rearrange, sharp_maximal
from .growth import GrowthFunction, _with_p0, yudovich


def default_t_grid(lo: float = 1e-6, hi: float = 1e3, m: int = 64) -> np.ndarray:
    return np.geomspace(lo, hi, m)


@dataclass(frozen=True)
class KCurve:
    pair: str
    t_samples: np.ndarray
    k_values: np.ndarray
    params: dict | None = None

    def check_shape(self, rtol: float = 1e-9, concave_slack: float = 0.35) -> None:
        """K nondecreasing and K/t nonincreasing hold exactly for every pair;
        concavity is exact only for the true-K pairs (p0=1 prefix integral,
        sequence sums), so surrogate curves get a relative slack against the
        chord.  Pass concave_slack=0 for the exact pairs."""
        t, k = self.t_samples, self.k_values
        scale = max(float(k.max()), 1e-300)
        if np.any(np.diff(k) < -rtol * scale):
            raise AssertionError(f"{self.pair}: K not nondecreasing")
        slopes = k / t
        if np.any(np.diff(slopes) > rtol * max(float(slopes.max()), 1e-300)):
            raise AssertionError(f"{self.pair}: K/t not nonincreasing")
        chord = k[:-2] + (k[2:] - k[:-2]) * ((t[1:-1] - t[:-2]) / (t[2:] - t[:-2]))
        floor = chord * (1.0 - concave_slack) - 64 * rtol * scale
        if np.any(k[1:-1] < floor):
            raise AssertionError(f"{self.pair}: K dips below the concave chord envelope")


@dataclass(frozen=True)
class BandSequence:
    """Frequency-band sup-norms (j, ||f_j||_inf), indices strictly increasing."""

    entries: tuple

    def __post_init__(self):
        ent = tuple((int(j), float(v)) for j, v in self.entries)
        if any(v < 0 for _, v in ent):
            raise ValueError("band norms must be nonnegative")
        js = [j for j, _ in ent]
        if any(b <= a for a, b in zip(js, js[1:])):
            raise ValueError("band indices must be strictly increasing")
        object.__setattr__(self, "entries", ent)

    @property
    def js(self) -> np.ndarray:
        return np.array([j for j, _ in self.entries], dtype=float)

    @property
    def norms(self) -> np.ndarray:
        return np.array([v for _, v in self.entries], dtype=float)


# -- (L^p0, L^inf) ------------------------------------------------------------

def k_lp_linf_profile(prof: RearrangementProfile, p0: float, t_grid) -> KCurve:
    t = np.asarray(t_grid, dtype=float)
    k = prof.power_integral(t ** p0, p0) ** (1.0 / p0)
    return KCurve(pair=f"Lp_Linf(p0={p0:g})", t_samples=t, k_values=k)


def k_lp_linf(f: GridField, p0: float, t_grid=None) -> KCurve:
    """K(t) = (integral of (f*)^p0 over (0, t^p0))^(1/p0); exact for p0 = 1."""
    if t_grid is None:
        t_grid = default_t_grid()
    return k_lp_linf_profile(rearrange(f), p0, t_grid)


# -- (L^p0, BMO) ---------------------------------------------------------------

def k_lp_bmo(f: GridField, p0: float, lam: float = 0.25, t_grid=None) -> KCurve:
    """Oscillation-pair surrogate built from the trimmed-oscillation maximal
    function; constants are absorbed, so the curve is an equivalent of the
    true K, not an equality."""
    if t_grid is None:
        t_grid = default_t_grid()
    sm = sharp_maximal(f, lam)
    curve = k_lp_linf_profile(rearrange(sm.result), p0, np.asarray(t_grid, float))
    return KCurve(
        pair=f"Lp_BMO(p0={p0:g})", t_samples=curve.t_samples, k_values=curve.k_values,
        params={"lambda": lam, "surrogate": "trimmed-oscillation"},
    )


# -- (L^inf, Lip) ---------------------------------------------------------------

def modulus_of_continuity(fields: Sequence[np.ndarray], spacing: float, h_values) -> np.ndarray:
    """Exact grid modulus sup over |x-y| <= h of |v(x)-v(y)|, per h.

    The offsets (dy, dx) visited are those with |dy| <= a = floor(h/spacing)
    and |dx| <= bx(dy), the chord half-width of the Euclidean ball, both
    capped at n//2; wrapping is periodic throughout.  The chord never widens
    as |dy| grows, so each h walks dy from a down to 0 while one running
    row-minimum widens a column offset at a time, taken against slices of
    the field padded once by n//2 columns on each side; the rows +dy and -dy
    are folded in as slice minima.  Work is O(n^2 a) per h, memory four
    n x n arrays per component.  For vector data the maximum over components
    is taken.
    """
    hs = np.atleast_1d(np.asarray(h_values, dtype=float))
    out = np.zeros(len(hs))
    for comp in fields:
        v = np.asarray(comp, dtype=float)
        n = v.shape[0]
        half = n // 2
        padded = np.pad(v, ((0, 0), (half, half)), mode="wrap")
        rowmin = np.empty_like(v)
        lower = np.empty_like(v)
        for i, h in enumerate(hs):
            a = min(int(np.floor(h / spacing + 1e-12)), half)
            rowmin[:] = v
            lower.fill(np.inf)
            width = 0
            for dy in range(a, -1, -1):
                chord2 = (h / spacing) ** 2 - dy * dy
                bx = min(int(np.floor(np.sqrt(max(chord2, 0.0)) + 1e-12)), half)
                for dx in range(width + 1, bx + 1):
                    np.minimum(rowmin, padded[:, half + dx:half + dx + n], out=rowmin)
                    np.minimum(rowmin, padded[:, half - dx:half - dx + n], out=rowmin)
                width = bx
                # lower[r] against rowmin[r + dy] and rowmin[r - dy], wrapped
                for s in {dy, (n - dy) % n}:
                    np.minimum(lower[:n - s], rowmin[s:], out=lower[:n - s])
                    np.minimum(lower[n - s:], rowmin[:s], out=lower[n - s:])
            out[i] = max(out[i], float((v - lower).max()))
    return out if np.ndim(h_values) else float(out[0])


def k_linf_lip(v: GridField | Sequence[GridField], t_grid=None) -> KCurve:
    """K(t) realized as the exact grid modulus of continuity at separation t."""
    comps = [v] if isinstance(v, GridField) else list(v)
    spacing = comps[0].spacing
    if t_grid is None:
        t_grid = np.geomspace(spacing, comps[0].domain.side / 2.0, 48)
    t = np.asarray(t_grid, dtype=float)
    k = modulus_of_continuity([c.data for c in comps], spacing, t)
    return KCurve(pair="Linf_W1inf", t_samples=t, k_values=k)


# -- sequence pair (exact) ------------------------------------------------------

def k_seq(seq: BandSequence, s0: float, s1: float, t):
    """Exact K for weighted little-l1 direct sums:
    sum_j min(2^(j s0), t 2^(j s1)) ||f_j||; a float for scalar t, an array
    shaped like t otherwise."""
    if not seq.entries:
        raise EmptySequence("band sequence has no entries")
    if not s0 < s1:
        raise ValueError("need s0 < s1")
    js, norms = seq.js, seq.norms
    t = np.asarray(t, dtype=float)[..., None]
    out = np.sum(np.minimum(2.0 ** (js * s0), t * 2.0 ** (js * s1)) * norms, axis=-1)
    return out if out.ndim else float(out)


def k_seq_kappa(seq: BandSequence, beta: float, kappa: float, t):
    """k_seq in its (beta, kappa) form, s0 = beta - kappa, s1 = beta:
    sum_j min(1, 2^(j kappa) t) 2^(j (beta-kappa)) ||f_j||; needs kappa > 0."""
    return k_seq(seq, beta - kappa, beta, t)


def k_seq_curve(seq: BandSequence, s0: float, s1: float, t_grid) -> KCurve:
    t = np.asarray(t_grid, dtype=float)
    return KCurve(pair=f"Seq(s0={s0:g},s1={s1:g})", t_samples=t, k_values=k_seq(seq, s0, s1, t))


# -- extrapolation supremum -------------------------------------------------------

def extrapolation_sup(curve: KCurve, g: GrowthFunction, p0: float) -> float:
    """sup over samples s of K(s) / (s * y(s^(-p0))): the norm of the
    growth-indexed extrapolation space in its universal K-functional form
    (curve samples are read as the K argument s = t^(1/p0)).

    The Yudovich function is taken with the pair's index p0 (the growth is
    re-indexed if needed); otherwise the large-s plateau picks up a spurious
    power of s.
    """
    s = curve.t_samples
    denom = s * yudovich(_with_p0(g, p0), s ** (-p0))
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = curve.k_values / denom
    vals = vals[np.isfinite(vals)]
    return float(vals.max()) if len(vals) else 0.0
