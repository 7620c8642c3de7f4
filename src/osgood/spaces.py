"""Growth-indexed function-space norms and their cross-characterizations.

Each norm is computed three ways: the defining supremum over Lebesgue
exponents, the rearrangement form, and the universal K-functional form.
The three agree only up to absorbed constants, so reports carry all values
and their pairwise ratios rather than asserting equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import GridField, lp_norm, rearrange, sharp_maximal
from .growth import GrowthFunction, _with_p0, yudovich
from .kfunc import default_t_grid, extrapolation_sup, k_lp_linf_profile


def default_p_grid(p0: float, p_hi: float = 512.0, m: int = 24) -> np.ndarray:
    return np.geomspace(p0 * 1.02, p_hi, m)


def _small_t_grid(cell_measure: float, cap: float = math.exp(-1.0), m: int = 80) -> np.ndarray:
    lo = max(cell_measure / 4.0, 1e-14)
    return np.geomspace(lo, cap, m)


@dataclass(frozen=True)
class NormReport:
    space: str
    direct_value: float
    char_k: float
    char_rearr: float
    char_rearr_star: float
    char_small_t: float
    resolution: int
    params: dict

    @property
    def ratios(self) -> dict:
        vals = {
            "direct": self.direct_value,
            "k": self.char_k,
            "rearr": self.char_rearr,
        }
        out = {}
        for a in vals:
            for b in vals:
                if a < b:
                    out[f"{a}/{b}"] = vals[a] / vals[b] if vals[b] > 0 else (
                        np.inf if vals[a] > 0 else 1.0
                    )
        return out

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "direct_value": self.direct_value,
            "char_k": self.char_k,
            "char_rearr": self.char_rearr,
            "char_rearr_star": self.char_rearr_star,
            "char_small_t": self.char_small_t,
            "resolution": self.resolution,
            "ratios": self.ratios,
            **{k: v for k, v in self.params.items()},
        }


def yudovich_norm(
    f: GridField,
    g: GrowthFunction,
    p0: float = 1.0,
    p_grid=None,
    t_grid=None,
) -> NormReport:
    """Growth-capped Lebesgue norm sup_p ||f||_p / Theta(p), with its
    rearrangement form sup_{t in (0,1)} f**(t) / y(1/t) and K-functional
    form; char_small_t restricts the rearrangement sup to t < 1/e, the
    window where resolution growth is visible above the L^p0 plateau.
    """
    if p_grid is None:
        p_grid = default_p_grid(p0)
    prof = rearrange(f)
    direct = max(
        (lp_norm(f, float(p)) / float(g(float(p))) for p in p_grid), default=0.0
    )

    ts = np.geomspace(max(prof.cell_measure / 4.0, 1e-14), 1.0 - 1e-9, 160)
    ys = yudovich(_with_p0(g, p0), 1.0 / ts)
    dd = prof.double_star(ts)
    char_rearr = float(np.max(dd / ys))
    char_rearr_star = float(np.max(prof.star(ts) / ys))
    small = ts <= math.exp(-1.0)
    char_small = float(np.max((dd / ys)[small])) if small.any() else char_rearr

    if t_grid is None:
        t_grid = default_t_grid(1e-6, 1e3, 64)
    curve = k_lp_linf_profile(prof, p0, np.asarray(t_grid, float))
    char_k = extrapolation_sup(curve, g, p0)

    return NormReport(
        space="yudovich", direct_value=float(direct), char_k=char_k,
        char_rearr=char_rearr, char_rearr_star=char_rearr_star,
        char_small_t=char_small, resolution=f.n,
        params={"growth": g.name, "p0": p0},
    )


def sharp_yudovich_norm(
    f: GridField,
    g: GrowthFunction,
    p0: float = 4.0,
    lam: float = 0.25,
    p_grid=None,
    t_grid=None,
) -> NormReport:
    """Oscillation-side norm sup_p ||M f||_p / Theta(p) built on the trimmed
    local-oscillation maximal function M, with the p0-free rearrangement form
    sup_{t < 1/e} (M f)*(t) / Theta(-log t) and the K-functional form over
    the oscillation pair.
    """
    if p_grid is None:
        p_grid = default_p_grid(p0)
    sm = sharp_maximal(f, lam).result
    prof = rearrange(sm)
    direct = max(
        (lp_norm(sm, float(p)) / float(g(float(p))) for p in p_grid), default=0.0
    )

    ts = _small_t_grid(prof.cell_measure)
    ref = np.asarray(g(-np.log(ts)), dtype=float)
    star_ratios = prof.star(ts) / ref
    char_rearr = float(np.max(star_ratios))
    char_rearr_star = char_rearr
    char_small = char_rearr

    if t_grid is None:
        t_grid = default_t_grid(1e-6, 1e3, 64)
    curve = k_lp_linf_profile(prof, p0, np.asarray(t_grid, float))
    char_k = extrapolation_sup(curve, g, p0)

    return NormReport(
        space="sharp_yudovich", direct_value=float(direct), char_k=char_k,
        char_rearr=char_rearr, char_rearr_star=char_rearr_star,
        char_small_t=char_small, resolution=f.n,
        params={"growth": g.name, "p0": p0, "lambda": lam},
    )


@dataclass(frozen=True)
class EmbeddingGapReport:
    plain: NormReport
    sharp: NormReport
    ratio_sharp_over_plain: float

    @property
    def embedding_holds(self) -> bool:
        return math.isfinite(self.ratio_sharp_over_plain)


def embedding_gap_report(
    f: GridField,
    g: GrowthFunction,
    p0: float = 1.0,
    lam: float = 0.25,
) -> EmbeddingGapReport:
    """Both norms of the same field, ordered (plain, sharp), with the
    oscillation-over-Lebesgue ratio recorded (the embedding direction says
    the sharp side is controlled by the plain side up to a constant)."""
    plain = yudovich_norm(f, g, p0=p0)
    sharp = sharp_yudovich_norm(f, g, p0=max(p0, 1.0), lam=lam)
    ratio = (
        sharp.char_small_t / plain.char_small_t
        if plain.char_small_t > 0
        else np.inf if sharp.char_small_t > 0 else 1.0
    )
    return EmbeddingGapReport(plain=plain, sharp=sharp, ratio_sharp_over_plain=float(ratio))
