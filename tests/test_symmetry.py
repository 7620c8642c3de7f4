"""The square torus's symmetries as exact oracles: the modulus of continuity
sees only distances and differences, so it is unchanged by every dihedral
map, integer roll and negation, and scales with the field, on either
domain's spacing and on drawn sides, fields and maps; the sharp
maximal function's dyadic cubes map onto dyadic cubes under the dihedral
maps, so it moves as its input does, and an oscillation is unchanged by
negation and doubled with the field.  The norm reports read a field only
through the rearrangement of |f| or of its sharp maximal function, so the
plain report is unchanged by every dihedral map and roll, the sharp one by
the dihedral maps (a roll moves the dyadic cubes), and the L^p forms double
with the field.  None of these relations trusts the algorithm, and every one
holds bit for bit: min, max, sorting and fl(a - b) do not depend on the
order in which samples are visited, and scaling by 2 is exact.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from osgood.field import Domain, GridField, dyadic_bmo_norm, sharp_maximal
from osgood.growth import GrowthFunction
from osgood.kfunc import _h_grid, modulus_of_continuity
from osgood.spaces import sharp_yudovich_norm, yudovich_norm


def log_singular(n):
    """|log rho|^1.5 about an off-centre point, rho the periodic distance
    over the side, floored at half a cell."""
    x = np.arange(n) / n
    dy, dx = (np.minimum(np.abs(x - c), 1.0 - np.abs(x - c)) for c in (0.3, 0.55))
    rho = np.maximum(np.hypot(dy[:, None], dx[None, :]), 0.5 / n)
    return np.abs(np.log(rho)) ** 1.5


FIELDS = {
    "normal": lambda n, rng: rng.standard_normal((n, n)),
    "log singular": lambda n, rng: log_singular(n),
    "half integers": lambda n, rng: rng.integers(-4, 5, (n, n)) / 2.0,
    "small integers": lambda n, rng: rng.integers(-2, 3, (n, n)).astype(float),
}
DIHEDRAL = {
    "transpose": np.transpose,
    "flip rows": lambda a: a[::-1],
    "flip columns": lambda a: a[:, ::-1],
    "rot90": np.rot90,
}
ROLLS = {
    "roll (3, 5)": lambda a: np.roll(a, (3, 5), axis=(0, 1)),
    "roll (1, 0)": lambda a: np.roll(a, (1, 0), axis=(0, 1)),
}
MAPS = {**DIHEDRAL, "roll (3, 5)": ROLLS["roll (3, 5)"], "negate": np.negative}
GROWTH = GrowthFunction.power(1.0)


def field(kind, n):
    return FIELDS[kind](n, np.random.default_rng(n))


def unit(data):
    return GridField(np.ascontiguousarray(data), Domain.UNIT_TORUS)


def modulus(f):
    return modulus_of_continuity([f.data], f.spacing, _h_grid(f))


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind", FIELDS)
def test_modulus_is_invariant_and_homogeneous(kind, n, domain):
    def on(data):
        return GridField(np.ascontiguousarray(data), domain)

    f = on(field(kind, n))
    base = modulus(f)
    for name, m in MAPS.items():
        assert np.array_equal(modulus(on(m(f.data))), base), name
    assert np.array_equal(modulus(on(2.0 * f.data)), 2.0 * base)


@given(
    st.integers(2, 40),
    st.sampled_from(sorted(FIELDS)),
    st.sampled_from(sorted(MAPS) + ["drawn roll"]),
    st.sampled_from(list(Domain)),
    st.integers(0, 2**32 - 1),
)
def test_modulus_is_invariant_on_drawn_cases(n, kind, name, domain, seed):
    # odd sides too, where no row offset is n/2, and a roll by a drawn
    # offset: the search visits samples in the order of their bound, so
    # these are the cases where a dependence on sample order would show
    rng = np.random.default_rng(seed)
    data = FIELDS[kind](n, rng)
    shift = tuple(int(x) for x in rng.integers(0, n, 2))
    m = MAPS.get(name, lambda a: np.roll(a, shift, axis=(0, 1)))
    s = domain.side / n  # GridField takes powers of two only: the 48-point h grid of _h_grid
    hs = np.geomspace(s, domain.side / 2.0, 48)
    base = modulus_of_continuity([data], s, hs)
    assert np.array_equal(modulus_of_continuity([m(data)], s, hs), base)
    assert np.array_equal(modulus_of_continuity([2.0 * data], s, hs), 2.0 * base)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind", FIELDS)
def test_sharp_maximal_moves_with_its_input(kind, n):
    f = unit(field(kind, n))
    base = sharp_maximal(f).data
    for name, m in DIHEDRAL.items():
        assert np.array_equal(sharp_maximal(unit(m(f.data))).data, m(base)), name
    assert np.array_equal(sharp_maximal(unit(-f.data)).data, base)
    assert np.array_equal(sharp_maximal(unit(2.0 * f.data)).data, 2.0 * base)


def forms(report):
    return report.direct_value, report.char_k


@pytest.mark.parametrize("domain", list(Domain), ids=lambda d: d.value)
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("kind", FIELDS)
def test_reports_are_invariant_and_homogeneous(kind, n, domain):
    def on(data):
        return GridField(np.ascontiguousarray(data), domain)

    data = field(kind, n)
    plain, sharp = yudovich_norm(on(data), GROWTH), sharp_yudovich_norm(on(data), GROWTH)
    for name, m in DIHEDRAL.items():
        assert forms(yudovich_norm(on(m(data)), GROWTH)) == forms(plain), name
        assert forms(sharp_yudovich_norm(on(m(data)), GROWTH)) == forms(sharp), name
    for name, m in ROLLS.items():
        assert forms(yudovich_norm(on(m(data)), GROWTH)) == forms(plain), name
    doubled = on(2.0 * data)
    assert forms(yudovich_norm(doubled, GROWTH)) == (2.0 * plain.direct_value, 2.0 * plain.char_k)
    assert sharp_yudovich_norm(doubled, GROWTH).direct_value == 2.0 * sharp.direct_value
    assert dyadic_bmo_norm(doubled) == 2.0 * dyadic_bmo_norm(on(data))
