"""Periodic scalar fields, decreasing rearrangements, and maximal operators.

Fields live on an n-by-n grid over a periodic square: the side-2*pi torus
(the default) or the unit torus (|Omega| = 1, so that t ranges over (0, 1)).
Every quantity reads lengths from the field's domain: cell measure, modulus
separations h and derivative wavenumbers 2 pi k / side; only the dyadic
bands are indexed by the integer wavenumber k on either domain.  Changing
the domain rescales lengths and measures, never the samples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidExponent, InvalidField, InvalidFieldFile, NonPositiveArgument

_MIN_SIDE = 4  # the smallest dyadic cube side, in cells
_LAMBDA = 0.25  # the trimmed fraction of the sharp maximal function
_MEAN_ROUNDING = 2.0 ** -50  # 8 x 2^-53: the mean oscillation's allowance per sample, see _cube_sweep


class Domain(Enum):
    TORUS_2PI = "torus2pi"
    UNIT_TORUS = "unit"

    @property
    def side(self) -> float:
        return 2.0 * np.pi if self is Domain.TORUS_2PI else 1.0

    @property
    def tag(self) -> int:
        return 0 if self is Domain.TORUS_2PI else 1


def _fourier_grid(n: int, side: float):
    """rfft2 half-plane wavenumbers of an n-point grid on a square of this side:
    integer k1 (n, 1) and k2 (1, n//2 + 1), Nyquist kept, and derivative
    wavenumbers xi = 2 pi k / side with the Nyquist one 0 (a real
    interpolant's derivative has none, and odd symbols stay Hermitian)."""
    k1 = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    k2 = np.fft.rfftfreq(n, d=1.0 / n)[None, :]
    xi1, xi2 = k1 * (2.0 * np.pi / side), k2 * (2.0 * np.pi / side)
    xi1[n // 2] = xi2[0, n // 2] = 0.0
    return k1, k2, xi1, xi2


def _is_grid_size(n: int) -> bool:
    """n is a power of two, at least 4."""
    return n >= 4 and not n & (n - 1)


@dataclass(frozen=True)
class GridField:
    data: np.ndarray
    domain: Domain = Domain.TORUS_2PI

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidField("field must be a square 2-d array")
        if not _is_grid_size(arr.shape[0]):
            raise InvalidField("grid size must be a power of two, at least 4")
        if not np.all(np.isfinite(arr)):
            raise InvalidField("field samples must be finite")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def cell_measure(self) -> float:
        return (self.domain.side / self.n) ** 2

    @property
    def total_measure(self) -> float:
        return self.domain.side ** 2

    @property
    def spacing(self) -> float:
        return self.domain.side / self.n


# -- rearrangements ----------------------------------------------------------

@dataclass(frozen=True)
class RearrangementProfile:
    """Step-function realization of the decreasing rearrangement of |f|."""

    values: np.ndarray      # nonincreasing
    cell_measure: float
    total_measure: float

    def star(self, t):
        """f*(t): right-continuous step value at measure t >= 0."""
        idx, v = self._cells(_measures(t)), self.values
        out = np.where(idx < len(v), v[np.minimum(idx, len(v) - 1)], 0.0)
        return out if out.shape else float(out)

    def double_star(self, t):
        """f**(t) = (1/t) integral of f* over (0, t), for t > 0."""
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0.0):
            raise NonPositiveArgument(f"measure t must be > 0, got {t[~(t > 0.0)][0]}")
        out = self.power_integral(t, 1.0) / t
        return out if out.shape else float(out)

    def power_integral(self, t, p: float):
        """integral of (f*)^p over (0, t), exact on partial cells, for p
        finite and > 0.  A request passing the float range, at any t when
        f*(0)^p does, raises InvalidExponent; later prefix sums may overflow."""
        if not 0.0 < p < np.inf:
            raise InvalidExponent(f"p must be finite and > 0, got {p}")
        t = _measures(t)
        idx = self._cells(t)
        with np.errstate(over="ignore", invalid="ignore"):
            powered = self.values ** p
            prefix = np.concatenate([[0.0], np.cumsum(powered) * self.cell_measure])
            at = np.where(idx < len(powered), powered[np.minimum(idx, len(powered) - 1)], 0.0)
            out = prefix[idx] + (t - idx * self.cell_measure) * at
        if not np.isfinite(out).all():
            raise InvalidExponent(f"the integral of (f*)^{p:g} up to t = {t.max():g} passes the float range")
        return out if out.shape else float(out)

    def _cells(self, t: np.ndarray) -> np.ndarray:
        """floor(t / cell_measure), clamped to the sample count before the cast
        to int, so a t past the profile, even past int64, reads as its end;
        capping t at twice the profile's measure first keeps the ratio finite."""
        cap = 2.0 * len(self.values) * self.cell_measure
        return np.minimum(np.floor(np.minimum(t, cap) / self.cell_measure), len(self.values)).astype(int)

    def lp(self, p: float) -> float:
        """L^p norm of f*, p in [1, inf], as m (sum (v/m)^p cell)^(1/p) with
        m = v[0]: each term lies in [0, 1] and the first is 1, so nothing
        overflows or underflows at any p.  Only the head of v is summed, the
        values at or above m (2^-53 / N)^(1/p) for N samples: each term left
        out is below 2^-53 / N, so together they are under half an ulp of a
        sum that is at least 1.  At high p the head is a few cells.
        """
        if not p >= 1.0:
            raise InvalidExponent(f"p must be in [1, inf], got {p}")
        v = self.values
        m = float(v[0]) if len(v) else 0.0
        if p == np.inf or m == 0.0:
            return m
        cut = m * (2.0 ** -53 / len(v)) ** (1.0 / p)
        k = len(v) - int(np.searchsorted(v[::-1], cut, side="left"))
        scaled = v[:k] / m
        np.power(scaled, p, out=scaled)
        return float(m * (scaled.sum() * self.cell_measure) ** (1.0 / p))


def _measures(t) -> np.ndarray:
    """t as a float array of measures, each finite and >= 0."""
    t = np.asarray(t, dtype=float)
    ok = (t >= 0.0) & (t < np.inf)
    if not ok.all():
        raise NonPositiveArgument(f"measure t must be finite and >= 0, got {t[~ok][0]}")
    return t


def rearrange(f: GridField) -> RearrangementProfile:
    """The decreasing rearrangement of |f|: -|f| sorted in place and negated
    back, so the values are contiguous (powers of a reversed view are slow)."""
    vals = np.empty(f.data.size)
    np.abs(f.data, out=vals.reshape(f.data.shape))
    np.negative(vals, out=vals)
    vals.sort()
    np.negative(vals, out=vals)
    return RearrangementProfile(values=vals, cell_measure=f.cell_measure, total_measure=f.total_measure)


def lp_norm(f: GridField, p: float) -> float:
    """Cell-measure-weighted L^p norm, rearrange(f).lp(p): its power sum
    of |f| / max|f| leaves out the terms below 2^-53 / N, under half an ulp
    in all.  p = inf gives max |f|.
    """
    return rearrange(f).lp(p)


# -- dyadic cube hierarchy ---------------------------------------------------

def cube_levels(n: int):
    """Cube side lengths (in cells): the powers of two from _MIN_SIDE = 4 up to n."""
    return [_MIN_SIDE << k for k in range(n.bit_length() - 2)]


def _wrapped_pairs(a: np.ndarray, op, step: int) -> np.ndarray:
    """op over the wrapped 2 x 2 block of entries (i, j), (i + step, j),
    (i, j + step), (i + step, j + step) of a, for every (i, j)."""
    rows = op(a, np.roll(a, -step, axis=0))
    return op(rows, np.roll(rows, -step, axis=1))


def _half_ranges(data: np.ndarray, rounding: float):
    """(side, bound) over the cube levels, coarse to fine: bound[a, b] is at
    least the statistic of the cube anchored at half-side cell (a, b), a
    (2n/side)-square array below the top level and 1 x 1 at side n.

    Every cube is a wrapped 2 x 2 block of its level's half-side cells;
    anchor (a, b) is the cube of the family shifted by (a % 2, b % 2) half
    sides.  The cell maxima and minima are one pyramid of strided 2 x 2
    maxima and minima, built from the finest level up.  The bound is half
    the cube's range plus rounding * m * (max(|max|, |min|) + 2^-1022) for m
    samples; the 2^-1022 covers rounding among subnormals.  A field whose
    max - min passes the float range raises InvalidField before any level.
    """
    n = data.shape[0]
    hi = lo = data
    levels = []
    for side in cube_levels(n):
        rows = np.maximum(hi[0::2], hi[1::2])
        hi = np.maximum(rows[:, 0::2], rows[:, 1::2])
        rows = np.minimum(lo[0::2], lo[1::2])
        lo = np.minimum(rows[:, 0::2], rows[:, 1::2])
        if side == n:
            levels.append((side, hi.max(keepdims=True), lo.min(keepdims=True)))
        else:
            levels.append((side, _wrapped_pairs(hi, np.maximum, 1), _wrapped_pairs(lo, np.minimum, 1)))
    if not float(hi.max()) - float(lo.min()) < np.inf:
        raise InvalidField("the field's range max - min passes the float range")
    for side, top, bottom in reversed(levels):
        magnitude = np.maximum(np.abs(top), np.abs(bottom)) + 2.0 ** -1022
        yield side, 0.5 * (top - bottom) + rounding * (side * side) * magnitude


def _cube_stats(wrapped: np.ndarray, n: int, side: int, a: np.ndarray, b: np.ndarray, stat) -> np.ndarray:
    """stat of the cubes anchored at half-side cells (a[i], b[i]), each a
    row-major window of the field wrapped periodically by n/4 down and right
    (a cube below the top level wraps by at most a half side of n/4),
    gathered in chunks of at most n^2 samples, which stat may overwrite."""
    h = side // 2
    windows = np.lib.stride_tricks.sliding_window_view(wrapped, (side, side))
    step = (n // side) ** 2
    return np.concatenate([
        stat(windows[a[i:i + step] * h, b[i:i + step] * h].reshape(-1, side * side))
        for i in range(0, len(a), step)
    ])


def _spread(a: np.ndarray, m: int) -> np.ndarray:
    """The k x k array a on an m x m grid, each entry over an (m/k)-square."""
    k = a.shape[0]
    r = m // k
    if r == 1:
        return a
    out = np.empty((m, m))
    out.reshape(k, r, k, r)[...] = a[:, None, :, None]
    return out


def _cube_sweep(f: GridField, stat, rounding: float) -> GridField:
    """For each cell, the max of stat(samples of Q) over the dyadic cubes Q
    containing it; stat maps (L, side*side) samples to L values >= 0.

    The running maximum lives on each level's grid of half-side cells, where
    every cube, aligned or shifted by half a side, is a wrapped 2 x 2 block;
    it is spread 2x to each finer level, and the n x n output is written
    once, from the finest grid.  Only live cubes are gathered and given
    their statistic: those whose bound from `_half_ranges` exceeds the
    floor, the least running maximum over their cells.  A pruned cube could
    not raise the maximum of any cell it covers, and keeps 0; only maxima
    are taken, so no bit depends on the pruning or the order.

    The trimmed oscillation takes rounding 0.  Each of its values is
    0.5 fl(s_i - s_j) for samples lo <= s_j <= s_i <= hi, at most
    0.5 fl(hi - lo) since rounding is monotone: half the range bounds it
    exactly in floats, and a constant field prunes every cube.  The mean
    oscillation takes _MEAN_ROUNDING.  Its computed block mean can sit off
    the true mean and its sums round, so for m samples of largest magnitude
    M it can pass the computed half range by about (2m + 3) 2^-53 M, which
    the allowance 8 m 2^-53 (M + 2^-1022) covers.  The allowance is not
    proportional to the range: a constant block's computed mean oscillation
    need not be 0.
    """
    n = f.n
    wrapped = np.pad(f.data, (0, n // 4), mode="wrap")
    acc = np.zeros((1, 1))
    for side, bound in _half_ranges(f.data, rounding):
        k = bound.shape[0]
        acc = _spread(acc, k)
        a, b = np.nonzero(bound > _wrapped_pairs(acc, np.minimum, 1))
        if len(a):
            values = np.zeros((k, k))
            values[a, b] = _cube_stats(wrapped, n, side, a, b, stat)
            # cell (i, j) is covered by the cubes anchored at (i or i - 1, j or j - 1)
            np.maximum(acc, _wrapped_pairs(values, np.maximum, -1), out=acc)
    return GridField(_spread(acc, n), f.domain)


def _trimmed_oscillation(blocks: np.ndarray) -> np.ndarray:
    """Half-length of the shortest interval containing ceil((1 - _LAMBDA) m)
    of a block's m >= 16 samples, so 4 or more are trimmed; sorts in place."""
    blocks.sort(axis=-1)
    m = blocks.shape[-1]
    keep = m - int(np.floor(_LAMBDA * m))
    window = blocks[..., keep - 1:] - blocks[..., : m - keep + 1]
    return 0.5 * np.min(window, axis=-1)


def _mean_oscillation(blocks: np.ndarray) -> np.ndarray:
    """avg |x - avg x| over each block's samples; overwrites blocks."""
    blocks -= blocks.mean(axis=-1, keepdims=True)
    return np.abs(blocks, out=blocks).mean(axis=-1)


def sharp_maximal(f: GridField) -> GridField:
    """Local-oscillation maximal function: for each dyadic cube Q of side at
    least _MIN_SIDE = 4 cells and x in Q, the best-constant trimmed
    oscillation inf_c ((f-c) chi_Q)*(lam |Q|) at lam = _LAMBDA = 1/4,
    maximized over all cubes containing x.  Every lam in (0, 1/2] gives an
    equivalent norm (Jawerth-Torchinsky), so the fraction is fixed.

    On samples the inner infimum is half the length of the shortest interval
    containing ceil((1-lam) m) of the cube's m sorted samples.
    """
    return _cube_sweep(f, _trimmed_oscillation, 0.0)


def fefferman_stein_sharp(f: GridField) -> GridField:
    """Mean-oscillation maximal function sup_{Q: x in Q} avg_Q |f - avg_Q f|
    over dyadic cubes of side at least _MIN_SIDE = 4 cells.

    Its global maximum is the (dyadic) BMO norm of the field.  2 sum |f|
    bounds every sum and difference the mean oscillation forms; a field of
    finite range for which it passes the float range raises InvalidField
    before any level.  It is taken as 2 M sum(|f| / M), M = max |f|, which
    does not overflow, once 2 M n^2 does.
    """
    hi, lo = float(f.data.max()), float(f.data.min())
    m = max(hi, -lo)
    if hi - lo < np.inf and not 2.0 * m * f.data.size < np.inf:
        if not 2.0 * m * float(np.sum(np.abs(f.data) / m)) < np.inf:
            raise InvalidField("the field's cube sums pass the float range: 2 sum |f| is not finite")
    return _cube_sweep(f, _mean_oscillation, _MEAN_ROUNDING)


def dyadic_bmo_norm(f: GridField) -> float:
    """The (dyadic) BMO norm: the largest mean oscillation avg_Q |f - avg_Q f|
    over the cube family, the maximum of fefferman_stein_sharp."""
    return float(fefferman_stein_sharp(f).data.max())


# -- field I/O ----------------------------------------------------------------

_MAGIC = b"OSGF"
_DOMAINS_BY_TAG = {d.tag: d for d in Domain}


def write_field_binary(f: GridField, path) -> None:
    """16-byte header (magic, u32 n, u32 domain tag, u32 0: a retired flag
    word, ignored on read) then row-major little-endian float64 samples."""
    header = _MAGIC + struct.pack("<III", f.n, f.domain.tag, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.data.astype("<f8").tobytes())


def read_field_binary(path) -> GridField:
    """Read a file written by write_field_binary; the header (magic, n a power
    of two >= 4, a known domain tag) and a payload of exactly 8 n^2 bytes are
    checked before any array is built."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != _MAGIC:
            raise InvalidFieldFile("not a field file (bad magic)")
        n, tag, _ = struct.unpack("<III", header[4:])
        if not _is_grid_size(n):
            raise InvalidFieldFile(f"grid size must be a power of two, at least 4, got {n}")
        if tag not in _DOMAINS_BY_TAG:
            raise InvalidFieldFile(f"unknown domain tag {tag}")
        payload = fh.read()
    if len(payload) != 8 * n * n:
        raise InvalidFieldFile(f"payload has {len(payload)} bytes, expected 8 n^2 = {8 * n * n} for n = {n}")
    data = np.frombuffer(payload, dtype="<f8").reshape(n, n).copy()
    return GridField(data, _DOMAINS_BY_TAG[tag])
