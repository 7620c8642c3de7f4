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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InvalidExponent, InvalidFieldFile, InvalidLambda, NonPositiveArgument

_MIN_SIDE = 4  # the smallest dyadic cube side, in cells
_LAMBDA = 0.25  # the trimmed fraction of the sharp maximal function


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
    mean_removed: bool = False

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("field must be a square 2-d array")
        if not _is_grid_size(arr.shape[0]):
            raise ValueError("grid size must be a power of two, at least 4")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "data", arr)
        if self.mean_removed:
            scale = max(float(np.abs(arr).max()), 1e-300)
            if abs(float(arr.mean())) > 1e-12 * scale:
                raise ValueError("mean_removed flag set but mean is not ~0")

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

    def remove_mean(self) -> "GridField":
        return GridField(self.data - self.data.mean(), self.domain, mean_removed=True)

    def as_domain(self, domain: Domain) -> "GridField":
        return replace(self, domain=domain)


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

    def integral(self, t):
        """integral of f* over (0, t), exact on partial cells."""
        return self.power_integral(t, 1.0)

    def double_star(self, t):
        """f**(t) = (1/t) integral of f* over (0, t), for t > 0."""
        t = np.asarray(t, dtype=float)
        if not np.all(t > 0.0):
            raise NonPositiveArgument(f"measure t must be > 0, got {t[~(t > 0.0)][0]}")
        out = self.integral(t) / t
        return out if out.shape else float(out)

    def power_integral(self, t, p: float):
        """integral of (f*)^p over (0, t), exact on partial cells, for p
        finite and > 0."""
        if not 0.0 < p < np.inf:
            raise InvalidExponent(f"p must be finite and > 0, got {p}")
        t = _measures(t)
        powered = self.values ** p
        prefix = np.concatenate([[0.0], np.cumsum(powered) * self.cell_measure])
        idx = self._cells(t)
        at = np.where(idx < len(powered), powered[np.minimum(idx, len(powered) - 1)], 0.0)
        out = prefix[idx] + (t - idx * self.cell_measure) * at
        return out if out.shape else float(out)

    def _cells(self, t: np.ndarray) -> np.ndarray:
        """floor(t / cell_measure), clamped to the sample count before the cast
        to int, so a t past the profile, even past int64, reads as its end."""
        return np.minimum(np.floor(t / self.cell_measure), len(self.values)).astype(int)

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
    vals = np.sort(np.abs(f.data), axis=None)[::-1]
    return RearrangementProfile(values=vals, cell_measure=f.cell_measure, total_measure=f.total_measure)


def lp_norm(f: GridField, p: float) -> float:
    """Cell-measure-weighted L^p norm, rearrange(f).lp(p): its power sum
    of |f| / max|f| leaves out the terms below 2^-53 / N, under half an ulp
    in all.  p = inf gives max |f|.
    """
    return rearrange(f).lp(p)


# -- dyadic cube hierarchy ---------------------------------------------------

def cube_levels(n: int):
    """Cube side lengths (in cells) from _MIN_SIDE = 4 up to n."""
    sides = []
    s = _MIN_SIDE
    while s <= n:
        sides.append(s)
        s *= 2
    return sides


def _block_view(data: np.ndarray, side: int) -> np.ndarray:
    """(n/side, n/side, side*side) view of aligned blocks."""
    n = data.shape[0]
    b = n // side
    return data.reshape(b, side, b, side).transpose(0, 2, 1, 3).reshape(b, b, side * side)


def _cube_shifts(n: int, side: int):
    """Anchor shifts making the family translation-fair on the torus.

    Aligned cubes plus the three half-side-shifted (periodically wrapped)
    families at every level below the full square.
    """
    if side >= n:
        return [(0, 0)]
    h = side // 2
    return [(0, 0), (h, 0), (0, h), (h, h)]


def _cubes(f: GridField, stat):
    """(side, shift, stat of every cube of that family) over the cube family,
    coarse to fine, sides _MIN_SIDE = 4 cells to n; entry (i, j) is the cube
    anchored at shift + side (i, j)."""
    n = f.n
    for side in reversed(cube_levels(n)):
        for shift in _cube_shifts(n, side):
            rolled = f.data if shift == (0, 0) else np.roll(f.data, (-shift[0], -shift[1]), axis=(0, 1))
            yield side, shift, stat(_block_view(rolled, side))


def _spread(a: np.ndarray, m: int) -> np.ndarray:
    """The k x k array a on an m x m grid, each entry over an (m/k)-square."""
    k = a.shape[0]
    r = m // k
    if r == 1:
        return a
    out = np.empty((m, m))
    out.reshape(k, r, k, r)[...] = a[:, None, :, None]
    return out


def _cube_sweep(f: GridField, stat) -> GridField:
    """For each cell, the max of stat(samples of Q) over the dyadic cubes Q
    containing it; stat maps (b, b, side*side) blocks to (b, b) values.

    Each level is accumulated on its grid of half-side cells, where every
    cube, aligned or shifted by half a side, is a 2 x 2 block: a 2x spread
    and a one-cell roll of a small array.  The running maximum is spread 2x
    to each finer level, and the n x n output is written once, from the
    finest grid.  Only maxima are taken, so no bit depends on the order.
    """
    n = f.n
    acc = np.zeros((1, 1))
    for side, shift, values in _cubes(f, stat):
        cell = max(side // 2, 1)
        acc = _spread(acc, n // cell)
        cubes = _spread(values, n // cell)
        if shift != (0, 0):
            cubes = np.roll(cubes, (shift[0] // cell, shift[1] // cell), axis=(0, 1))
        np.maximum(acc, cubes, out=acc)
    return GridField(_spread(acc, n), f.domain)


def _trimmed_oscillation(blocks: np.ndarray, lam: float) -> np.ndarray:
    """Half-length of the shortest interval containing ceil((1-lam) m) of a
    block's m samples."""
    s = np.sort(blocks, axis=-1)
    m = s.shape[-1]
    keep = m - int(np.floor(lam * m))
    if keep >= m:
        return 0.5 * (s[..., -1] - s[..., 0])
    window = s[..., keep - 1:] - s[..., : m - keep + 1]
    return 0.5 * np.min(window, axis=-1)


def _mean_oscillation(blocks: np.ndarray) -> np.ndarray:
    return np.abs(blocks - blocks.mean(axis=-1, keepdims=True)).mean(axis=-1)


def sharp_maximal(f: GridField, lam: float = _LAMBDA) -> GridField:
    """Local-oscillation maximal function: for each dyadic cube Q of side at
    least _MIN_SIDE = 4 cells and x in Q,
    the best-constant trimmed oscillation inf_c ((f-c) chi_Q)*(lam |Q|),
    maximized over all cubes containing x; the norms take lam = _LAMBDA.

    On samples the inner infimum is half the length of the shortest interval
    containing ceil((1-lam) m) of the cube's m sorted samples.
    """
    if not (0.0 < lam <= 0.5):
        raise InvalidLambda(f"lambda must lie in (0, 1/2], got {lam}")
    return _cube_sweep(f, lambda b: _trimmed_oscillation(b, lam))


def fefferman_stein_sharp(f: GridField) -> GridField:
    """Mean-oscillation maximal function sup_{Q: x in Q} avg_Q |f - avg_Q f|
    over dyadic cubes of side at least _MIN_SIDE = 4 cells.

    Its global maximum is the (dyadic) BMO norm of the field.
    """
    return _cube_sweep(f, _mean_oscillation)


def dyadic_bmo_norm(f: GridField) -> float:
    """The (dyadic) BMO norm: the largest mean oscillation avg_Q |f - avg_Q f|
    over the cube family, which is the maximum of fefferman_stein_sharp, taken
    straight from the per-cube values with no n x n field built."""
    return float(max((v.max() for _, _, v in _cubes(f, _mean_oscillation)), default=0.0))


# -- field I/O ----------------------------------------------------------------

_MAGIC = b"OSGF"
_DOMAINS_BY_TAG = {d.tag: d for d in Domain}


def write_field_binary(f: GridField, path) -> None:
    """16-byte header (magic, u32 n, u32 domain tag, u32 flags) then
    row-major little-endian float64 samples."""
    flags = 1 if f.mean_removed else 0
    header = _MAGIC + struct.pack("<III", f.n, f.domain.tag, flags)
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
        n, tag, flags = struct.unpack("<III", header[4:])
        if not _is_grid_size(n):
            raise InvalidFieldFile(f"grid size must be a power of two, at least 4, got {n}")
        if tag not in _DOMAINS_BY_TAG:
            raise InvalidFieldFile(f"unknown domain tag {tag}")
        payload = fh.read()
    if len(payload) != 8 * n * n:
        raise InvalidFieldFile(f"payload has {len(payload)} bytes, expected 8 n^2 = {8 * n * n} for n = {n}")
    data = np.frombuffer(payload, dtype="<f8").reshape(n, n).copy()
    return GridField(data, _DOMAINS_BY_TAG[tag], mean_removed=bool(flags & 1))
