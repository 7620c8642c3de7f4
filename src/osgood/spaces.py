"""Growth-indexed function-space norms and their cross-characterizations.

Each norm is computed three ways: the defining supremum over Lebesgue
exponents, the rearrangement form, and the universal K-functional form.
The three agree only up to absorbed constants, so reports carry all values
and their pairwise ratios rather than asserting equality.  Every sup over
samples is the largest finite ratio, 0.0 if none is (kfunc._sup_finite_ratio).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import _LAMBDA, GridField, RearrangementProfile, rearrange, sharp_maximal
from .growth import GrowthFunction, _positive_theta, _require_positive, _with_p0, yudovich
from .kfunc import _T_GRID, _ratio, _sup_finite_ratio, extrapolation_sup, k_lp_linf_profile

_P_HI, _P_POINTS = 512.0, 24  # the direct sup's exponent grid


def default_p_grid(p0: float) -> np.ndarray:
    """The direct sup's exponents: _P_POINTS = 24 points, geometric from
    1.02 p0 up to _P_HI = 512, or up to 2.04 p0 where 1.02 p0 >= _P_HI, so
    the grid always rises above p0; p0 must be finite and > 0."""
    _require_positive("p0", p0)
    lo = p0 * 1.02
    return np.geomspace(lo, _P_HI if lo < _P_HI else 2.0 * lo, _P_POINTS)


@dataclass(frozen=True)
class NormReport:
    space: str
    direct_value: float
    char_k: float
    char_rearr: float
    char_rearr_star: float
    char_small_t: float
    params: dict

    @property
    def ratios(self) -> dict:
        vals = {
            "direct": self.direct_value,
            "k": self.char_k,
            "rearr": self.char_rearr,
        }
        return {f"{a}/{b}": _ratio(vals[a], vals[b]) for a in vals for b in vals if a < b}


def _direct_and_k(prof: RearrangementProfile, g: GrowthFunction, p0: float) -> tuple[float, float]:
    """The two forms both reports take from prof, the rearrangement of the
    field or of its maximal function: the direct sup of ||.||_p / Theta(p)
    over default_p_grid(p0), and the K form over kfunc._T_GRID (64 points
    on [1e-6, 1e3])."""
    ps = default_p_grid(p0)
    direct = _sup_finite_ratio(np.array([prof.lp(p) for p in ps.tolist()]), g(ps))
    return direct, extrapolation_sup(k_lp_linf_profile(prof, p0, _T_GRID), g, p0)


def yudovich_norm(f: GridField, g: GrowthFunction, p0: float = 1.0) -> NormReport:
    """Growth-capped Lebesgue norm sup_p ||f||_p / Theta(p), with its
    rearrangement form sup_{t in (0,1)} f**(t) / y(1/t) on 160 points and
    K-functional form; char_small_t restricts the rearrangement sup to
    t < 1/e, the window where resolution growth is visible above the L^p0
    plateau.
    """
    prof = rearrange(f)
    direct, char_k = _direct_and_k(prof, g, p0)
    ts = np.geomspace(max(prof.cell_measure / 4.0, 1e-14), 1.0 - 1e-9, 160)
    ys = yudovich(_with_p0(g, p0), 1.0 / ts)
    dd = prof.double_star(ts)
    char_rearr = _sup_finite_ratio(dd, ys)
    char_rearr_star = _sup_finite_ratio(prof.star(ts), ys)
    small = ts <= math.exp(-1.0)
    char_small = _sup_finite_ratio(dd[small], ys[small]) if small.any() else char_rearr
    return NormReport(
        space="yudovich", direct_value=direct, char_k=char_k,
        char_rearr=char_rearr, char_rearr_star=char_rearr_star,
        char_small_t=char_small, params={"growth": g.name, "p0": p0},
    )


def sharp_yudovich_norm(f: GridField, g: GrowthFunction, p0: float = 4.0) -> NormReport:
    """Oscillation-side norm sup_p ||M f||_p / Theta(p), p0 = 4 unless given,
    built on the trimmed local-oscillation maximal function M at the fixed
    lambda = _LAMBDA = 1/4, with the p0-free rearrangement form
    sup_{t < 1/e} (M f)*(t) / Theta(-log t) on 80 points and the
    K-functional form over the oscillation pair.  Raises NonPositiveArgument
    if Theta(-log t) <= 0 at a sample, as for an unshifted log power at p = 1.
    """
    ts = np.geomspace(max(f.cell_measure / 4.0, 1e-14), math.exp(-1.0), 80)
    thetas = _positive_theta(g, -np.log(ts), "Theta", "the rearrangement form")
    prof = rearrange(sharp_maximal(f))
    direct, char_k = _direct_and_k(prof, g, p0)
    char_rearr = _sup_finite_ratio(prof.star(ts), thetas)
    return NormReport(
        space="sharp_yudovich", direct_value=direct, char_k=char_k,
        char_rearr=char_rearr, char_rearr_star=char_rearr, char_small_t=char_rearr,
        params={"growth": g.name, "p0": p0, "lambda": _LAMBDA},
    )


@dataclass(frozen=True)
class EmbeddingGapReport:
    plain: NormReport
    sharp: NormReport
    ratio_sharp_over_plain: float

    @property
    def embedding_holds(self) -> bool:
        return math.isfinite(self.ratio_sharp_over_plain)


def embedding_gap_report(f: GridField, g: GrowthFunction) -> EmbeddingGapReport:
    """Both norms of the same field at the fixed index p0 = 1, ordered (plain,
    sharp), the sharp one at the fixed lambda = _LAMBDA = 1/4, with the
    oscillation-over-Lebesgue ratio recorded (the embedding direction says
    the sharp side is controlled by the plain side up to a constant)."""
    plain, sharp = yudovich_norm(f, g), sharp_yudovich_norm(f, g, p0=1.0)
    ratio = _ratio(sharp.char_small_t, plain.char_small_t)
    return EmbeddingGapReport(plain=plain, sharp=sharp, ratio_sharp_over_plain=float(ratio))
