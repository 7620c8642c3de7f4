"""FFT-based dyadic frequency decomposition and the norms built on it.

The band filter is a radial smooth bump supported in the annulus
3/4 < |xi| < 7/4 with value 1 on 7/8 < |xi| < 9/8, normalized so that its
dyadic dilates sum to exactly 1 at every nonzero frequency.  The bands act
on the integer wavenumber k of the grid on either domain; nonzero ones have
|k| >= 1, so only bands j >= 0 carry content once the mean is split off.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AliasRisk, NonPositiveArgument
from .field import Domain, GridField, _fourier_grid, lp_norm
from .growth import GrowthFunction, pclass_check, yudovich
from .kfunc import BandSequence, k_seq

_SUPP_LO, _PLATEAU_LO, _PLATEAU_HI, _SUPP_HI = 0.75, 0.875, 1.125, 1.75


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.clip(x, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        b = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return a / (a + b)


def _raw_bump(rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=float)
    up = _smooth_step((rho - _SUPP_LO) / (_PLATEAU_LO - _SUPP_LO))
    down = 1.0 - _smooth_step((rho - _PLATEAU_HI) / (_SUPP_HI - _PLATEAU_HI))
    return up * down


def band_profile(rho) -> np.ndarray:
    """Normalized radial cutoff: dilates sum to 1 for every rho > 0."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.zeros_like(rho)
    pos = rho > 0
    if pos.any():
        r = rho[pos]
        total = np.zeros_like(r)
        # only dilates within a factor 7/3 can overlap: +-2 around log2(rho)
        j0 = np.floor(np.log2(r)).astype(int)
        for dj in range(-2, 3):
            total += _raw_bump(r / 2.0 ** (j0 + dj))
        out[pos] = _raw_bump(r) / total
    return out


@dataclass(frozen=True)
class BandFilter:
    """Band multipliers phi(2^-j |k|) on an n-point grid's rfft2 half-plane, k integer."""

    n: int

    @property
    def frequencies(self) -> np.ndarray:
        """|k| on the half-plane, shape (n, n//2 + 1), Nyquist kept."""
        k1, k2, _, _ = _fourier_grid(self.n, Domain.TORUS_2PI.side)
        return np.hypot(k1, k2)

    def band_range(self) -> range:
        """All j whose annulus meets some nonzero grid frequency."""
        max_freq = self.n / np.sqrt(2.0)
        j_hi = int(np.floor(np.log2(max_freq / _SUPP_LO)))
        return range(0, j_hi + 1)

    def multipliers(self) -> np.ndarray:
        """phi_j on the half-plane for every j of band_range, stacked; band_profile
        runs once per distinct |k| and is gathered back (bit-identical)."""
        rho = self.frequencies
        distinct, inverse = np.unique(rho.ravel(), return_inverse=True)
        return np.stack([band_profile(distinct / 2.0 ** j)[inverse].reshape(rho.shape)
                         for j in self.band_range()])

    def partition_defect(self) -> float:
        """max over nonzero grid frequencies of |sum_j phi_j - 1|."""
        total = self.multipliers().sum(axis=0)
        return float(np.abs(total[self.frequencies > 0] - 1.0).max())


@lru_cache(maxsize=8)
def _cached_multipliers(n: int):
    filt = BandFilter(n)
    return list(filt.band_range()), filt.multipliers()


@dataclass(frozen=True)
class DyadicDecomposition:
    bands: tuple            # of (j, GridField)
    mean: float
    source: GridField
    inhomogeneous_zero_band: GridField | None = None

    def band_norms(self) -> BandSequence:
        return BandSequence(tuple((j, float(np.abs(b.data).max())) for j, b in self.bands))

    def reconstruct(self) -> np.ndarray:
        total = np.full_like(self.source.data, self.mean)
        for _, b in self.bands:
            total = total + b.data
        return total


def decompose(f: GridField, warn_nyquist: bool = True, inhomogeneous: bool = False) -> DyadicDecomposition:
    """Split f into dyadic frequency bands (mean extracted separately).

    Bands whose annulus crosses the Nyquist frequency still reconstruct
    exactly on the grid but their sup-norms carry aliasing risk, flagged
    with a warning.
    """
    n = f.n
    js, mults = _cached_multipliers(n)
    mean = float(f.data.mean())
    spec = np.fft.rfft2(f.data - mean)
    # one band at a time, so temporaries stay at about one band's size
    bands = [(j, GridField(np.fft.irfft2(spec * mult, s=f.data.shape), f.domain))
             for j, mult in zip(js, mults) if mult.any()]
    if warn_nyquist and bands:
        scale = max(float(np.abs(f.data).max()), 1e-300)
        risky = [j for j, b in bands
                 if _SUPP_HI * 2.0 ** j > n / 2 and np.abs(b.data).max() > 1e-12 * scale]
        if risky:
            warnings.warn(f"bands j in {risky} extend beyond the Nyquist circle |k| = {n // 2}", AliasRisk)
    zero_band = None
    if inhomogeneous:
        # identity minus the strictly positive bands: mean + band 0 tails
        high = np.zeros_like(f.data)
        for j, b in bands:
            if j > 0:
                high += b.data
        zero_band = GridField(f.data - high, f.domain)
    return DyadicDecomposition(
        bands=tuple(bands), mean=mean, source=f, inhomogeneous_zero_band=zero_band
    )


def besov_norm_seq(seq: BandSequence, beta: float) -> float:
    """sum over bands of 2^(j beta) sup |band|."""
    return float(np.sum(2.0 ** (seq.js * beta) * seq.norms))


def besov_norm(d: DyadicDecomposition, beta: float) -> float:
    return besov_norm_seq(d.band_norms(), beta)


def vishik_norm(d: DyadicDecomposition | BandSequence, g: GrowthFunction, beta: float = 0.0) -> float:
    """sup over N >= 0 of (1/Pi(N)) * sum_{j <= N} 2^(j beta) sup |band_j|.

    The grid realization truncates to j >= 0: integer frequencies have
    |xi| >= 1 once the mean is removed, so negative bands are empty.
    Raises NonPositiveArgument if Pi(N) <= 0 for some N in that range.
    """
    seq = d.band_norms() if isinstance(d, DyadicDecomposition) else d
    if not seq.entries:
        return 0.0
    js, norms = seq.js, seq.norms
    n_max = int(js.max())
    best = 0.0
    terms = 2.0 ** (js * beta) * norms
    for N in range(0, n_max + 1):
        pi_n = float(g(float(N)))
        if not pi_n > 0.0:
            raise NonPositiveArgument(
                f"growth {g.name} has Pi({N}) = {pi_n:g}; the band norm divides by it"
            )
        partial = float(terms[js <= N].sum())
        best = max(best, partial / pi_n)
    return best


@dataclass(frozen=True)
class EquivalenceReport:
    """Three computations of the same growth-indexed band norm."""

    partial_sum_form: float     # Vishik sum + low-exponent band sum
    k_form: float               # sup_t K_seq(t) / (t y(1/t))
    alpha_sup_form: float       # sup over intermediate exponents
    ratios: dict


def thmve_equivalence_report(
    source: GridField | BandSequence,
    g: GrowthFunction,
    beta: float,
    kappa: float,
    alpha_points: int = 32,
    validate_class: bool = True,
) -> EquivalenceReport:
    """Compare the three equivalent forms of the growth-indexed band norm.

    (a) partial-sum form plus the (beta - kappa) band sum; (b) universal
    K-functional form over the exact sequence K; (c) supremum over
    intermediate Besov exponents alpha with weight Pi(1/(beta - alpha)).
    """
    if validate_class:
        rep = pclass_check(g, kappa)
        if not rep.all_pass:
            raise ValueError(f"growth {g.name} fails the partial-sum class check: {rep.passes}")
    if isinstance(source, GridField):
        seq = decompose(source).band_norms()
    else:
        seq = source

    a_val = vishik_norm(seq, g, beta) + besov_norm_seq(seq, beta - kappa)

    j_max = int(seq.js.max()) if len(seq.entries) else 0
    t_lo = 2.0 ** (-(j_max + 3) * kappa)
    ts = np.geomspace(t_lo, 8.0, 96)
    ys = yudovich(g, 1.0 / ts)
    ks = k_seq(seq, beta - kappa, beta, ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = ks / (ts * ys)
    vals = vals[np.isfinite(vals)]
    b_val = float(vals.max()) if len(vals) else 0.0

    pad = 0.02 * kappa
    alphas = np.linspace(beta - kappa + pad, beta - pad, alpha_points)
    c_vals = [
        besov_norm_seq(seq, float(a)) / float(g(1.0 / (beta - a))) for a in alphas
    ]
    c_val = float(np.max(c_vals)) if c_vals else 0.0

    def ratio(x, y):
        return x / y if y > 0 else np.inf if x > 0 else 1.0

    return EquivalenceReport(
        partial_sum_form=a_val, k_form=b_val, alpha_sup_form=c_val,
        ratios={
            "partial_over_k": ratio(a_val, b_val),
            "partial_over_alpha": ratio(a_val, c_val),
            "k_over_alpha": ratio(b_val, c_val),
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
    for j, b in d.bands:
        sup = float(np.abs(b.data).max())
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


def band_bmo_comparison(f: GridField, lam: float = 0.25) -> dict:
    """Empirical surrogate for the oscillation-space embedding: compares
    sup_j sup|band_j| against the dyadic mean-oscillation norm."""
    from .field import dyadic_bmo_norm

    seq = decompose(f).band_norms()
    sup_band = float(seq.norms.max()) if len(seq.entries) else 0.0
    bmo = dyadic_bmo_norm(f)
    return {
        "sup_band": sup_band,
        "bmo_norm": bmo,
        "ratio": sup_band / bmo if bmo > 0 else np.inf if sup_band > 0 else 1.0,
    }
