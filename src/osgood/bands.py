"""FFT-based dyadic frequency decomposition and the norms built on it.

The band filter is a radial smooth bump supported in the annulus
3/4 < |xi| < 7/4 with value 1 on 7/8 < |xi| < 9/8, normalized so that its
dyadic dilates sum to exactly 1 at every nonzero frequency.  The support is
narrower than one doubling, so where the bump is nonzero only its two
neighbouring dilates, at 2|xi| and |xi|/2, can be too: the normalization
sums those three.  The bands act on the integer wavenumber k of the grid on
either domain; nonzero ones have |k| >= 1, so only bands j >= 0 carry
content once the mean is split off.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AliasRisk, HypothesisViolated, InvalidExponent
from .field import Domain, GridField, _fourier_grid, lp_norm
from .growth import GrowthFunction, _positive_theta, pclass_check, yudovich
from .kfunc import BandSequence, _band_weights, _ratio, _sup_finite_ratio, k_seq

_SUPP_LO, _PLATEAU_LO, _PLATEAU_HI, _SUPP_HI = 0.75, 0.875, 1.125, 1.75
_ALPHA_POINTS = 32  # the intermediate exponents of the equivalence report's alpha form


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1.  exp(-1 / max(., 1e-300))
    can only underflow, which numpy does not report, never a and b at once."""
    x = np.clip(x, 0.0, 1.0)
    a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    b = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return a / (a + b)


def _raw_bump(rho: np.ndarray) -> np.ndarray:
    """The unnormalized bump: 0 off (3/4, 7/4), 1 on [7/8, 9/8]."""
    up = _smooth_step((rho - _SUPP_LO) / (_PLATEAU_LO - _SUPP_LO))
    down = 1.0 - _smooth_step((rho - _PLATEAU_HI) / (_SUPP_HI - _PLATEAU_HI))
    return up * down


def band_profile(rho) -> np.ndarray:
    """Normalized radial cutoff raw(rho) / (raw(2 rho) + raw(rho) + raw(rho/2))
    where raw(rho) > 0, and 0 elsewhere: its dilates sum to 1 at every
    finite rho > 0.  rho = 2^(j0 + f) meets the support (3/4, 7/4) only at
    the dilates 2^-j0 and 2^-(j0 + 1), so no other dilate can add to the
    sum.  rho is first capped at 4, past every support: inf and nan read
    0, and 2 rho stays finite."""
    rho = np.fmin(np.atleast_1d(np.asarray(rho, dtype=float)), 4.0)
    raw = _raw_bump(rho)
    total = _raw_bump(2.0 * rho) + raw + _raw_bump(rho / 2.0)
    return np.divide(raw, total, out=np.zeros_like(raw), where=raw > 0.0)


def _band_range(n: int) -> range:
    """All j whose annulus meets some nonzero frequency of an n-point grid.
    Each band has a nonzero multiplier on the grid: |k| = 1 lies in band 0,
    and the corner |k| = n / sqrt 2 at rho = sqrt 2 of the top band."""
    return range(0, int(np.floor(np.log2(n / np.sqrt(2.0) / _SUPP_LO))) + 1)


@lru_cache(maxsize=8)
def _multipliers(n: int) -> np.ndarray:
    """phi(2^-j |k|) for every j of _band_range(n), stacked, on an n-point
    grid's rfft2 half-plane, k integer, Nyquist kept; band_profile runs once
    per distinct |k| and is gathered back (bit-identical).  Built once per n
    and shared: callers must not write to it."""
    k1, k2, _, _ = _fourier_grid(n, Domain.TORUS_2PI.side)
    rho = np.hypot(k1, k2)
    distinct, inverse = np.unique(rho.ravel(), return_inverse=True)
    return np.stack([band_profile(distinct / 2.0 ** j)[inverse].reshape(rho.shape)
                     for j in _band_range(n)])


def _partition_defect(n: int) -> float:
    """max over nonzero frequencies of an n-point grid of |sum_j phi_j - 1|:
    every entry of the half-plane but the first, k = 0."""
    return float(np.abs(_multipliers(n).sum(axis=0).ravel()[1:] - 1.0).max())


@dataclass(frozen=True)
class DyadicDecomposition:
    bands: tuple            # of (j, GridField)
    mean: float
    sups: BandSequence      # (j, max |band_j|), taken once by decompose

    def band_norms(self) -> BandSequence:
        return self.sups


def decompose(f: GridField, warn_nyquist: bool = True) -> DyadicDecomposition:
    """Split f into dyadic frequency bands (mean extracted separately).

    Bands whose annulus crosses the Nyquist frequency still reconstruct
    exactly on the grid but their sup-norms carry aliasing risk, flagged
    with a warning.
    """
    n = f.n
    mean = float(f.data.mean())
    spec = np.fft.rfft2(f.data - mean)
    # one band at a time, so temporaries stay at about one band's size
    bands = [(j, GridField(np.fft.irfft2(spec * mult, s=f.data.shape), f.domain))
             for j, mult in zip(_band_range(n), _multipliers(n))]
    # max |b| as max(max b, -min b), exact with no full-size temporary; abs turns -0.0 into 0.0
    sups = BandSequence(tuple((j, abs(max(float(b.data.max()), -float(b.data.min())))) for j, b in bands))
    if warn_nyquist:
        scale = max(float(np.abs(f.data).max()), 1e-300)
        risky = [j for j, sup in sups.entries if _SUPP_HI * 2.0 ** j > n / 2 and sup > 1e-12 * scale]
        if risky:
            warnings.warn(f"bands j in {risky} extend beyond the Nyquist circle |k| = {n // 2}", AliasRisk)
    return DyadicDecomposition(bands=tuple(bands), mean=mean, sups=sups)


def besov_norm_seq(seq: BandSequence, beta):
    """sum over bands of 2^(j beta) sup |band|; a float for scalar beta, an
    array shaped like beta otherwise.  A beta not finite, or taking a weight
    2^(j beta) or the sum past the float range, raises InvalidExponent."""
    norms = seq.norms
    out = np.sum(_band_weights(seq.js, norms, beta, "beta") * norms, axis=-1)
    return out if out.ndim else float(out)


def besov_norm(d: DyadicDecomposition, beta: float) -> float:
    return besov_norm_seq(d.band_norms(), beta)


def vishik_norm(d: DyadicDecomposition | BandSequence, g: GrowthFunction, beta: float = 0.0) -> float:
    """sup over N >= 0 of (1/Pi(N)) * sum_{j <= N} 2^(j beta) sup |band_j|.

    The grid realization truncates to j >= 0: integer frequencies have
    |xi| >= 1 once the mean is removed, so negative bands are empty.
    The sup is the largest finite ratio, 0.0 if none is.  Raises
    NonPositiveArgument if Pi(N) <= 0 for some N in that range, and
    InvalidExponent for a beta not finite or taking a weight 2^(j beta) or
    the sum past the float range.
    """
    seq = d.band_norms() if isinstance(d, DyadicDecomposition) else d
    js, norms = seq.js, seq.norms
    weights = _band_weights(js, norms, beta, "beta")
    if not seq.entries:
        return 0.0
    pis = _positive_theta(g, np.arange(int(js.max()) + 1, dtype=float), "Pi", "the band norm")
    terms = weights * norms
    # each partial summed afresh, not as a cumsum, whose order can move the last bit
    partials = np.array([terms[js <= N].sum() for N in range(len(pis))])
    return _sup_finite_ratio(partials, pis)


@dataclass(frozen=True)
class EquivalenceReport:
    """Three computations of the same growth-indexed band norm."""

    partial_sum_form: float     # Vishik sum + low-exponent band sum
    k_form: float               # sup_t K_seq(t) / (t y(1/t))
    alpha_sup_form: float       # sup over intermediate exponents
    ratios: dict


def thmve_equivalence_report(source: BandSequence, g: GrowthFunction,
                             beta: float, kappa: float) -> EquivalenceReport:
    """Compare the three equivalent forms of the growth-indexed band norm of
    a band sequence, decompose(f).band_norms() for a field f.

    (a) partial-sum form plus the (beta - kappa) band sum; (b) universal
    K-functional form over the exact sequence K on 96 t; (c) supremum over
    _ALPHA_POINTS = 32 intermediate Besov exponents alpha with weight
    Pi(1/(beta - alpha)).  Each sup is the largest finite ratio, 0.0 if none
    is.  The growth must pass pclass_check at kappa, and InvalidExponent names
    a kappa taking the last crossover of K, 2^(-j_max kappa), below the normal
    floats; the t grid starts three bands below it, or at the least normal.
    """
    rep = pclass_check(g, kappa)
    if not rep.all_pass:
        raise HypothesisViolated(f"growth {g.name} fails the partial-sum class check: {rep.passes}")
    j_max = int(source.js.max()) if len(source.entries) else 0
    if j_max * kappa > 1022.0:
        raise InvalidExponent(f"kappa = {kappa:g} takes the last crossover 2^(-{j_max} kappa) below the normal floats")

    a_val = vishik_norm(source, g, beta) + besov_norm_seq(source, beta - kappa)

    ts = np.geomspace(max(2.0 ** (-(j_max + 3) * kappa), np.finfo(float).tiny), 8.0, 96)
    b_val = _sup_finite_ratio(k_seq(source, beta - kappa, beta, ts), ts * yudovich(g, 1.0 / ts))

    pad = 0.02 * kappa
    alphas = np.linspace(beta - kappa + pad, beta - pad, _ALPHA_POINTS)
    c_val = _sup_finite_ratio(besov_norm_seq(source, alphas), g(1.0 / (beta - alphas)))

    return EquivalenceReport(
        partial_sum_form=a_val, k_form=b_val, alpha_sup_form=c_val,
        ratios={
            "partial_over_k": _ratio(a_val, b_val),
            "partial_over_alpha": _ratio(a_val, c_val),
            "k_over_alpha": _ratio(b_val, c_val),
        },
    )


# -- per-band inequalities -----------------------------------------------------

def spectral_gradient(f: GridField) -> tuple[GridField, GridField]:
    """(d/dx1 f, d/dx2 f) by Fourier differentiation with the derivative
    wavenumbers 2 pi k / side of the field's domain."""
    _, _, xi1, xi2 = _fourier_grid(f.n, f.domain.side)
    spec = np.fft.rfft2(f.data)
    gx = np.fft.irfft2(1j * xi1 * spec, s=f.data.shape)
    gy = np.fft.irfft2(1j * xi2 * spec, s=f.data.shape)
    return GridField(gx, f.domain), GridField(gy, f.domain)


def band_inequality_checks(d: DyadicDecomposition, p0: float) -> dict:
    """Per-band sup-vs-Lp and gradient-vs-frequency constants.

    Records C_nik(j) = sup|b_j| / (2^(2 j / p0) ||b_j||_p0) and
    C_bern(j) = sup|grad b_j| / (2^j sup|b_j|), gradients spectral.
    """
    rows = []
    for (j, b), (_, sup) in zip(d.bands, d.sups.entries):
        if sup == 0.0:
            continue
        lp = lp_norm(b, p0)
        gx, gy = spectral_gradient(b)
        grad_sup = float(np.hypot(gx.data, gy.data).max())
        rows.append({
            "j": j,
            "sup_norm": sup,
            "p0_norm": lp,
            "nikolskii_const": sup / (2.0 ** (2.0 * j / p0) * lp),
            "bernstein_const": grad_sup / (2.0 ** j * sup),
        })
    return {"p0": p0, "bands": rows}
