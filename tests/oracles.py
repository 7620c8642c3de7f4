"""Identities of the paper's objects that only the tests check: the shape of
a sampled K-functional, the pairwise ratios of a norm report's forms, and
the sum of a dyadic decomposition's bands; the |log rho| vorticity that
both the velocity envelope and the Vishik norm are measured on; and the
package's former widening table sweep of the velocity modulus."""

import numpy as np

from osgood.field import Domain, GridField
from osgood.kfunc import _ratio

RTOL = 1e-9  # check_shape's relative round-off allowance


def check_shape(curve, concave_slack: float = 0.35) -> None:
    """K nondecreasing and K/t nonincreasing hold exactly for every pair,
    up to a round-off of RTOL = 1e-9 relative to the largest value;
    concavity is exact only for the true-K pairs (p0=1 prefix integral,
    sequence sums), so surrogate curves get a relative slack against the
    chord.  Pass concave_slack=0 for the exact pairs (C. Bennett,
    R. Sharpley, Interpolation of Operators, 1988, ch. 5)."""
    t, k = curve.t_samples, curve.k_values
    scale = max(float(k.max()), 1e-300)
    if np.any(np.diff(k) < -RTOL * scale):
        raise AssertionError(f"{curve.pair}: K not nondecreasing")
    slopes = k / t
    if np.any(np.diff(slopes) > RTOL * max(float(slopes.max()), 1e-300)):
        raise AssertionError(f"{curve.pair}: K/t not nonincreasing")
    chord = k[:-2] + (k[2:] - k[:-2]) * ((t[1:-1] - t[:-2]) / (t[2:] - t[:-2]))
    floor = chord * (1.0 - concave_slack) - 64 * RTOL * scale
    if np.any(k[1:-1] < floor):
        raise AssertionError(f"{curve.pair}: K dips below the concave chord envelope")


def ratios(report) -> dict:
    """The pairwise ratios of a NormReport's direct, K and rearrangement
    forms, keyed "a/b" with a < b: equivalent norms keep them bounded."""
    vals = {
        "direct": report.direct_value,
        "k": report.char_k,
        "rearr": report.char_rearr,
    }
    return {f"{a}/{b}": _ratio(vals[a], vals[b]) for a in vals for b in vals if a < b}


def reconstruct(decomp) -> np.ndarray:
    """The mean plus every band of a DyadicDecomposition, summed in band order."""
    total = np.full_like(decomp.bands[0][1].data, decomp.mean)
    for _, b in decomp.bands:
        total = total + b.data
    return total


def log_patch(n, alpha):
    """|log rho|^(1 + alpha) about the centre of the 2 pi torus, rho floored at
    half a cell (the centre is a grid point), mean removed."""
    x = np.arange(n) * (2.0 * np.pi / n)
    rho = np.hypot(x[:, None] - np.pi, x[None, :] - np.pi)
    w = np.abs(np.log(np.maximum(rho, np.pi / n))) ** (1.0 + alpha)
    return GridField(w - w.mean(), Domain.TORUS_2PI)


def _sweep(v: np.ndarray, padded: np.ndarray, chords: list) -> list:
    """max of v - lower for each disc of chords, from one widening sweep:
    one running row-minimum widens a column offset at a time, against slices
    of v padded by n//2 columns on each side, up to the widest chord.  At
    width w it fills the entries [dy, w] the discs read of one (n/2 + 1)^2
    table, max of v - min(rowmin at +dy, rowmin at -dy), wrapped, in one
    n x n scratch array.  A disc's result is the largest of its [dy, bx(dy)].
    """
    n = v.shape[0]
    half = n // 2
    reads = np.zeros((half + 1, half + 1), bool)  # the entries [dy, w] some disc reads
    for bx in chords:
        reads[np.arange(len(bx)), bx] = True
    table = np.full(reads.shape, np.nan)
    rowmin, low = v.copy(), np.empty_like(v)
    for w in range(max((int(bx[0]) for bx in chords), default=-1) + 1):
        if w:
            np.minimum(rowmin, padded[:, half + w:half + w + n], out=rowmin)
            np.minimum(rowmin, padded[:, half - w:half - w + n], out=rowmin)
        for dy in np.flatnonzero(reads[:, w]):
            # low[r] = min(rowmin[r + dy], rowmin[r - dy]) where neither, r - dy or r + dy wraps
            np.minimum(rowmin[2 * dy:], rowmin[:n - 2 * dy], out=low[dy:n - dy])
            np.minimum(rowmin[dy:2 * dy], rowmin[n - dy:], out=low[:dy])
            np.minimum(rowmin[:dy], rowmin[n - 2 * dy:n - dy], out=low[n - dy:])
            table[dy, w] = np.subtract(v, low, out=low).max()
    return [float(table[np.arange(len(bx)), bx].max()) for bx in chords]
