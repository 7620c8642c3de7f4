"""Periodic scalar fields, decreasing rearrangements, and maximal operators.

Fields live on an n-by-n grid over the periodic square.  Two measure
conventions coexist: the spectral side works on the side-2*pi torus, while
all rearrangement-based quantities default to the unitized torus (|Omega|=1)
so that t ranges over (0, 1).  Converting between them rescales only the
measure per grid cell, never the samples.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import InvalidExponent, InvalidLambda


class Domain(Enum):
    TORUS_2PI = "torus2pi"
    UNIT_TORUS = "unit"

    @property
    def side(self) -> float:
        return 2.0 * np.pi if self is Domain.TORUS_2PI else 1.0

    @property
    def tag(self) -> int:
        return 0 if self is Domain.TORUS_2PI else 1


@dataclass(frozen=True)
class GridField:
    data: np.ndarray
    domain: Domain = Domain.TORUS_2PI
    mean_removed: bool = False

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("field must be a square 2-d array")
        n = arr.shape[0]
        if n < 4 or n & (n - 1):
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


def unitized(f: GridField) -> GridField:
    """The same samples carried on the |Omega|=1 torus."""
    return f.as_domain(Domain.UNIT_TORUS)


# -- rearrangements ----------------------------------------------------------

@dataclass(frozen=True)
class RearrangementProfile:
    """Step-function realization of the decreasing rearrangement of |f|."""

    values: np.ndarray      # nonincreasing
    cell_measure: float
    total_measure: float

    @staticmethod
    def of(f: GridField) -> "RearrangementProfile":
        vals = np.sort(np.abs(f.data), axis=None)[::-1]
        return RearrangementProfile(
            values=vals, cell_measure=f.cell_measure, total_measure=f.total_measure
        )

    def star(self, t):
        """f*(t): right-continuous step value at measure t."""
        t = np.asarray(t, dtype=float)
        idx = np.floor(t / self.cell_measure).astype(int)
        out = np.where(
            idx < len(self.values),
            self.values[np.minimum(idx, len(self.values) - 1)],
            0.0,
        )
        return out if out.shape else float(out)

    def integral(self, t):
        """integral of f* over (0, t), exact on partial cells."""
        t = np.asarray(t, dtype=float)
        prefix = np.concatenate([[0.0], np.cumsum(self.values) * self.cell_measure])
        idx = np.minimum(np.floor(t / self.cell_measure).astype(int), len(self.values))
        frac = t - idx * self.cell_measure
        vals_at = np.where(idx < len(self.values), self.values[np.minimum(idx, len(self.values) - 1)], 0.0)
        out = prefix[idx] + np.where(idx < len(self.values), frac * vals_at, 0.0)
        return out if out.shape else float(out)

    def double_star(self, t):
        """f**(t) = (1/t) integral of f* over (0, t)."""
        t = np.asarray(t, dtype=float)
        out = self.integral(t) / t
        return out if out.shape else float(out)

    def power_integral(self, t, p: float):
        """integral of (f*)^p over (0, t), exact on partial cells."""
        t = np.asarray(t, dtype=float)
        powered = self.values ** p
        prefix = np.concatenate([[0.0], np.cumsum(powered) * self.cell_measure])
        idx = np.minimum(np.floor(t / self.cell_measure).astype(int), len(self.values))
        frac = t - idx * self.cell_measure
        vals_at = np.where(idx < len(powered), powered[np.minimum(idx, len(powered) - 1)], 0.0)
        out = prefix[idx] + np.where(idx < len(powered), frac * vals_at, 0.0)
        return out if out.shape else float(out)

    def lp(self, p: float) -> float:
        """L^p norm of f*, max-scaled like lp_norm (values[0] is the max):
        finite and nonzero for any finite, nonzero field at any p."""
        m = float(self.values[0]) if len(self.values) else 0.0
        return _max_scaled_lp(self.values, m, p, self.cell_measure)


def rearrange(f: GridField) -> RearrangementProfile:
    return RearrangementProfile.of(f)


def _max_scaled_lp(a: np.ndarray, m: float, p: float, cell: float) -> float:
    """m * (sum((a/m)^p) * cell)^(1/p) for samples a >= 0 with maximum m.

    Every scaled term lies in [0, 1] and at least one equals 1, so the sum
    neither overflows nor underflows at any p; m = 0 gives exactly 0.
    """
    if p == np.inf or m == 0.0:
        return m
    scaled = a / m
    np.power(scaled, p, out=scaled)
    return float(m * (scaled.sum() * cell) ** (1.0 / p))


def lp_norm(f: GridField, p: float) -> float:
    """Cell-measure-weighted L^p norm; p = inf gives max |sample|.

    The power sum is taken of |f| / max|f|, so the result is finite and
    nonzero for any finite, nonzero field at any p (even p = 512, where the
    unscaled sum overflows once max|f| > 4).
    """
    if p != np.inf and p < 1.0:
        raise InvalidExponent(f"p must be in [1, inf], got {p}")
    a = np.abs(f.data)
    return _max_scaled_lp(a, float(a.max()), p, f.cell_measure)


# -- dyadic cube hierarchy ---------------------------------------------------

def cube_levels(n: int, min_side: int = 4, include_full: bool = True):
    """Cube side lengths (in cells) from min_side up to n."""
    sides = []
    s = min_side
    while s <= n:
        if s < n or include_full:
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


def _scatter_blocks(per_block: np.ndarray, side: int, shift, out: np.ndarray):
    """max-accumulate per-cube values onto the cells of each cube."""
    expanded = np.kron(per_block, np.ones((side, side)))
    if shift != (0, 0):
        expanded = np.roll(expanded, shift=shift, axis=(0, 1))
    np.maximum(out, expanded, out=out)


@dataclass(frozen=True)
class SharpMaximalField:
    base: GridField
    lam: float
    cube_sides: tuple
    result: GridField


def _local_oscillation(sorted_block: np.ndarray, keep: int) -> np.ndarray:
    """Half-length of the shortest interval containing `keep` sorted samples."""
    m = sorted_block.shape[-1]
    if keep >= m:
        return 0.5 * (sorted_block[..., -1] - sorted_block[..., 0])
    window = sorted_block[..., keep - 1:] - sorted_block[..., : m - keep + 1]
    return 0.5 * np.min(window, axis=-1)


def sharp_maximal(f: GridField, lam: float = 0.25, min_side: int = 4) -> SharpMaximalField:
    """Local-oscillation maximal function: for each dyadic cube Q and x in Q,
    the best-constant trimmed oscillation inf_c ((f-c) chi_Q)*(lam |Q|),
    maximized over all cubes containing x.

    On samples the inner infimum is half the length of the shortest interval
    containing ceil((1-lam) m) of the cube's m sorted samples.
    """
    if not (0.0 < lam <= 0.5):
        raise InvalidLambda(f"lambda must lie in (0, 1/2], got {lam}")
    n = f.n
    out = np.zeros_like(f.data)
    sides = cube_levels(n, min_side=min_side)
    for side in sides:
        m = side * side
        keep = m - int(np.floor(lam * m))
        for shift in _cube_shifts(n, side):
            rolled = f.data if shift == (0, 0) else np.roll(f.data, (-shift[0], -shift[1]), axis=(0, 1))
            blocks = np.sort(_block_view(rolled, side), axis=-1)
            osc = _local_oscillation(blocks, keep)
            _scatter_blocks(osc, side, shift, out)
    return SharpMaximalField(
        base=f, lam=lam, cube_sides=tuple(sides),
        result=GridField(out, f.domain),
    )


def fefferman_stein_sharp(f: GridField, min_side: int = 4) -> GridField:
    """Mean-oscillation maximal function sup_{Q: x in Q} avg_Q |f - avg_Q f|.

    Its global maximum is the (dyadic) BMO norm of the field.
    """
    n = f.n
    out = np.zeros_like(f.data)
    for side in cube_levels(n, min_side=min_side):
        for shift in _cube_shifts(n, side):
            rolled = f.data if shift == (0, 0) else np.roll(f.data, (-shift[0], -shift[1]), axis=(0, 1))
            blocks = _block_view(rolled, side)
            means = blocks.mean(axis=-1, keepdims=True)
            osc = np.abs(blocks - means).mean(axis=-1)
            _scatter_blocks(osc, side, shift, out)
    return GridField(out, f.domain)


def dyadic_bmo_norm(f: GridField, min_side: int = 4) -> float:
    return float(fefferman_stein_sharp(f, min_side=min_side).data.max())


# -- field I/O ----------------------------------------------------------------

_MAGIC = b"OSGF"
_DOMAINS_BY_TAG = {d.tag: d for d in Domain}
_DOMAINS_BY_NAME = {d.value: d for d in Domain}


def write_field_binary(f: GridField, path) -> None:
    """16-byte header (magic, u32 n, u32 domain tag, u32 flags) then
    row-major little-endian float64 samples."""
    flags = 1 if f.mean_removed else 0
    header = _MAGIC + struct.pack("<III", f.n, f.domain.tag, flags)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(f.data.astype("<f8").tobytes())


def read_field_binary(path) -> GridField:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != _MAGIC:
            raise ValueError("not a field file (bad magic)")
        n, tag, flags = struct.unpack("<III", header[4:])
        data = np.frombuffer(fh.read(8 * n * n), dtype="<f8").reshape(n, n).copy()
    return GridField(data, _DOMAINS_BY_TAG[tag], mean_removed=bool(flags & 1))


def write_field_csv(f: GridField, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# n={f.n} domain={f.domain.value}\n")
        for row in f.data:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def read_field_csv(path) -> GridField:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing header line")
        meta = dict(part.split("=") for part in header[1:].split())
        data = np.loadtxt(io.StringIO(fh.read()), delimiter=",").reshape(int(meta["n"]), -1)
    return GridField(data, _DOMAINS_BY_NAME[meta["domain"]])
