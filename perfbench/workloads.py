"""Seeded inputs, operations and output checks for the three workloads.

Every input is a pure function of (workload, seed, operation index), so a
run can stop after any number of operations and the same seed always yields
the same sequence.  The program under test only ever sees the generated
fields and growths.

Checks never trust the code under test: the curl, the divergence and the
band sum are recomputed here with plain numpy, and Osgood verdicts are
compared against the analytic answer key in `osgood_key`.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

LAYERS = ("field", "bands", "kfunc", "spaces", "biot", "growth")

# golden-ratio rotations: any prefix of the sequence covers [0, 1) evenly,
# so short runs see the same spread of exponents as long ones
_PHI1 = (math.sqrt(5.0) - 1.0) / 2.0
_PHI2 = math.sqrt(2.0) - 1.0

# grid sizes; the spectral working set (2 MB field, 21 MB multiplier stack)
# exceeds a 4 MiB L2 while the pipeline one fits
PIPELINE_N = 128
SPECTRAL_N = 512

# band-norm parameters: Vishik index beta, Besov offset beta - 1, and the
# equivalence report's kappa
BAND_BETA = 1.0
BAND_KAPPA = 1.0

ROUNDOFF = 1e-9

# growth exponents alpha of the field workloads.  The pipeline's lifted
# Osgood test p^(1+alpha) converges, but the package calls it Divergent for
# alpha below about 0.5 (a tail too slow for its fit); `known_defects`
# measures that, and the workloads stay clear of it
GROWTH_ALPHA = (0.6, 1.0)


# grid sizes each workload uses; why each workload exists is in BENCHMARK.json
WORKLOADS = {"pipeline": (PIPELINE_N,), "spectral": (SPECTRAL_N,), "osgood": ()}


def _op_rng(workload: str, seed: int, i: int) -> np.random.Generator:
    tag = sum(ord(c) << (8 * k) for k, c in enumerate(workload))
    return np.random.default_rng([seed, tag, i])


def _rotation(seed: int, i: int, phi: float, stream: int) -> float:
    u0 = np.random.default_rng([seed, stream]).random()
    return float((u0 + i * phi) % 1.0)


# -- fields ---------------------------------------------------------------------

def log_singular_field(rng: np.random.Generator, n: int, alpha: float, patches: int) -> np.ndarray:
    """Periodic |log rho|^(1+alpha) patches at random centres plus Gaussian
    noise, mean removed: a Yudovich-type unbounded vorticity, at its natural
    amplitude and with its full spectrum.

    rho is the chordal distance on the unit torus, floored at half a cell so
    that a centre falling on a grid point stays finite.
    """
    x = np.arange(n) / n
    out = np.zeros((n, n))
    for _ in range(patches):
        cx, cy = rng.random(2)
        sx = np.sin(np.pi * (x - cx)) / np.pi
        sy = np.sin(np.pi * (x - cy)) / np.pi
        rho = np.maximum(np.hypot(sx[:, None], sy[None, :]), 0.5 / n)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        out += sign * np.abs(np.log(rho)) ** (1.0 + alpha)
    out += 0.1 * rng.standard_normal((n, n))
    return out - out.mean()


def resolved_field(raw: np.ndarray) -> np.ndarray:
    """raw without its Nyquist lines (k1 = n/2 or k2 = n/2), scaled to
    max |w| = 1 and mean-free.

    The benchmark's fields are in the domain where the package is correct
    today; the two defects this avoids are measured by `known_defects`:
    `biot_savart` does not invert the curl on the Nyquist lines, and
    `lp_norm` overflows once max |w| ** 512 does.
    """
    h = raw.shape[0] // 2
    spec = np.fft.fft2(raw)
    spec[h, :] = 0.0
    spec[:, h] = 0.0
    spec[0, 0] = 0.0
    w = np.fft.ifft2(spec).real
    w /= np.abs(w).max()
    return w - w.mean()


def field_input(m, workload: str, seed: int, i: int, n: int) -> dict:
    rng = _op_rng(workload, seed, i)
    alpha_f = _rotation(seed, i, _PHI1, 1)
    alpha_g = GROWTH_ALPHA[0] + (GROWTH_ALPHA[1] - GROWTH_ALPHA[0]) * _rotation(seed, i, _PHI2, 2)
    patches = 1 + int(rng.random() < 0.5)
    data = resolved_field(log_singular_field(rng, n, alpha_f, patches))
    G = m.growth.GrowthFunction
    return {
        "field": m.field.GridField(data),
        "alpha": alpha_g,
        "growth": G.power(alpha_g),
        # shifted form keeps Pi(0) = 1 > 0, as the band norms need
        "band_growth": G.power(alpha_g, shift=1.0),
    }


# -- Osgood cases and their analytic answer key ---------------------------------

# (family, alpha, beta): Theta = p^alpha (log p)^beta; constant is alpha = beta = 0
OSGOOD_GROWTHS = (
    ("constant", 0.0, 0.0),
    ("power", 0.5, 0.0),
    ("power", 1.0, 0.0),
    ("power", 2.0, 0.0),
    ("power", 3.0, 0.0),
    ("logpower", 1.0, 1.0),
    ("logpower", 1.0, 2.0),
    ("logpower", 0.5, 1.0),
)
# the slowly convergent p (log p)^2 unlifted, which the package calls
# Divergent: measured by `known_defects`, not dealt into the deck
OSGOOD_WRONG = (
    ("logpower", 1.0, 2.0, False, "zero"),
    ("logpower", 1.0, 2.0, False, "infinity"),
)
OSGOOD_CASES = tuple(
    (fam, a, b, lift, end)
    for fam, a, b in OSGOOD_GROWTHS
    for lift in (False, True)
    for end in ("zero", "infinity")
    if (fam, a, b, lift, end) not in OSGOOD_WRONG
)


def osgood_key(alpha: float, beta: float, lift: bool) -> str:
    """Analytic verdict at either end.  With the effective exponent
    a = alpha + lift, the integral behaves like sum_k k^(-a) (log k)^(-beta),
    which diverges iff a < 1, or a = 1 and beta <= 1."""
    a = alpha + (1.0 if lift else 0.0)
    diverges = a < 1.0 or (a == 1.0 and beta <= 1.0)
    return "Divergent" if diverges else "Convergent"


def osgood_input(m, seed: int, i: int) -> dict:
    """Case i of a stream of shuffled decks, each deck holding every case of
    OSGOOD_CASES once, so every prefix of the stream has nearly the deck's
    mix."""
    deck, pos = divmod(i, len(OSGOOD_CASES))
    order = np.random.default_rng([seed, 7, deck]).permutation(len(OSGOOD_CASES))
    return osgood_case(m, OSGOOD_CASES[int(order[pos])], _op_rng("osgood", seed, i))


def osgood_case(m, case: tuple, rng: np.random.Generator) -> dict:
    fam, alpha, beta, lift, end = case
    G = m.growth.GrowthFunction
    if fam == "constant":
        g = G.constant(float(rng.uniform(0.5, 2.0)), p0=float(rng.uniform(1.0, 2.0)))
    elif fam == "power":
        g = G.power(alpha, p0=float(rng.uniform(1.0, 2.0)))
    else:
        g = G.log_power(alpha, (beta,), p0=float(rng.uniform(2.0, 3.0)))
    O = m.growth.OsgoodOrientation
    return {
        "case": case,
        "growth": g,
        "lift": lift,
        "orientation": O.ZERO_END if end == "zero" else O.INFINITY_END,
        "key": osgood_key(alpha, beta, lift),
    }


def deck_size(workload: str) -> int:
    """Number of consecutive inputs that together hold the workload's mix."""
    return len(OSGOOD_CASES) if workload == "osgood" else 1


def make_input(m, workload: str, seed: int, i: int) -> dict:
    if workload == "pipeline":
        return field_input(m, workload, seed, i, PIPELINE_N)
    if workload == "spectral":
        return field_input(m, workload, seed, i, SPECTRAL_N)
    return osgood_input(m, seed, i)


# -- operations -------------------------------------------------------------------
#
# An operation is a list of stages (layer, key, fn); fn receives the outputs
# so far.  Calls go through module attributes so that installed trace
# wrappers are seen.

def stages(m, workload: str, x: dict) -> list:
    if workload == "osgood":
        return [(
            "growth", "osgood",
            lambda o: m.growth.osgood_test(
                m.growth.osgood_from_growth(x["growth"], x["orientation"], x["lift"])
            ),
        )]
    f, g, gs = x["field"], x["growth"], x["band_growth"]
    common = [
        ("spaces", "yudovich", lambda o: m.spaces.yudovich_norm(f, g)),
        ("spaces", "sharp", lambda o: m.spaces.sharp_yudovich_norm(f, g)),
        ("bands", "decomp", lambda o: m.bands.decompose(f)),
        ("bands", "vishik", lambda o: m.bands.vishik_norm(o["decomp"], gs, BAND_BETA)),
        ("bands", "besov", lambda o: m.bands.besov_norm(o["decomp"], BAND_BETA - 1.0)),
        ("biot", "velocity", lambda o: m.biot.biot_savart(f, 0.0)),
    ]
    if workload == "pipeline":
        return common + [
            ("biot", "envelope", lambda o: m.biot.modulus_envelope(f, 0.0, g, velocity=o["velocity"])),
            ("growth", "osgood", lambda o: m.growth.osgood_test(m.growth.osgood_from_growth(g, lift=True))),
        ]
    return common + [
        ("field", "bmo", lambda o: m.field.dyadic_bmo_norm(f)),
        ("bands", "equiv", lambda o: m.bands.thmve_equivalence_report(
            o["decomp"].band_norms(), gs, BAND_BETA, BAND_KAPPA)),
        ("biot", "curl", lambda o: m.biot.curl(*o["velocity"])),
        ("biot", "divergence", lambda o: m.biot.divergence_defect(*o["velocity"])),
    ]


# -- output checks ------------------------------------------------------------------

def _finite_nonneg(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0 for v in vals)


def _report_ok(rep) -> bool:
    return _finite_nonneg(rep.direct_value, rep.char_k, rep.char_rearr,
                          rep.char_rearr_star, rep.char_small_t)


def _wavenumbers(n: int) -> np.ndarray:
    """Integer wavenumbers with the Nyquist one set to 0: the derivative of
    a real trigonometric interpolant has no Nyquist component."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return k


def curl_and_divergence(v1: np.ndarray, v2: np.ndarray) -> tuple:
    """Spectral curl of (v1, v2), and max |xi . v_hat| relative to max |v_hat|."""
    k = _wavenumbers(v1.shape[0])
    s1, s2 = np.fft.fft2(v1), np.fft.fft2(v2)
    curl = np.fft.ifft2(1j * k[:, None] * s2 - 1j * k[None, :] * s1).real
    div = np.abs(k[:, None] * s1 + k[None, :] * s2).max()
    return curl, float(div / max(np.abs(s1).max(), np.abs(s2).max(), 1e-300))


def attainable_vorticity(w: np.ndarray) -> np.ndarray:
    """w without the modes (n/2, 0), (0, n/2) and (n/2, n/2), where both
    spectral derivatives vanish, so no grid velocity has curl there."""
    h = w.shape[0] // 2
    spec = np.fft.fft2(w)
    spec[h, 0] = spec[0, h] = spec[h, h] = 0.0
    return np.fft.ifft2(spec).real


def check(workload: str, x: dict, o: dict) -> list:
    """Failed checks of one operation as (layer, cause) pairs."""
    bad = []
    if workload == "osgood":
        if o["osgood"].verdict.value != x["key"]:
            bad.append(("growth", "growth.verdict_wrong"))
        return bad

    w = x["field"].data
    scale = max(float(np.abs(w).max()), 1e-300)
    for key in ("yudovich", "sharp"):
        if not _report_ok(o[key]):
            bad.append(("spaces", "spaces.nonfinite"))
    if not _finite_nonneg(o["vishik"], o["besov"]):
        bad.append(("bands", "bands.nonfinite"))
    d = o["decomp"]
    total = d.mean + sum(b.data for _, b in d.bands)
    if np.abs(total - w).max() > ROUNDOFF * scale:
        bad.append(("bands", "bands.reconstruct"))
    v1, v2 = (v.data for v in o["velocity"])
    target = attainable_vorticity(w)
    curl, div = curl_and_divergence(v1, v2)
    if np.abs(curl - target).max() > ROUNDOFF * scale:
        bad.append(("biot", "biot.curl"))
    if div > ROUNDOFF:
        bad.append(("biot", "biot.divergence"))

    if workload == "pipeline":
        env = o["envelope"]
        if np.any(np.diff(env.measured) < 0.0):
            bad.append(("kfunc", "kfunc.modulus_decreasing"))
        if not _finite_nonneg(env.norm_reference, env.fitted_c):
            bad.append(("biot", "biot.nonfinite"))
        key = osgood_key(x["alpha"], 0.0, lift=True)
        if o["osgood"].verdict.value != key:
            bad.append(("growth", "growth.verdict_wrong"))
    else:
        if not _finite_nonneg(o["bmo"]):
            bad.append(("field", "field.nonfinite"))
        rep = o["equiv"]
        if not _finite_nonneg(rep.partial_sum_form, rep.k_form, rep.alpha_sup_form):
            bad.append(("bands", "bands.nonfinite"))
        if np.abs(o["curl"].data - target).max() > ROUNDOFF * scale:
            bad.append(("biot", "biot.curl"))
        if not (0.0 <= o["divergence"] <= ROUNDOFF):
            bad.append(("biot", "biot.divergence_defect"))
    return bad


# -- known defects --------------------------------------------------------------------

# Osgood cases the package gets wrong today: the two of OSGOOD_WRONG, and the
# lifted p^(1/4) at the zero end, which the pipeline would meet below
# GROWTH_ALPHA
DEFECT_OSGOOD = OSGOOD_WRONG + (("power", 0.25, 0.0, True, "zero"),)
DEFECT_N = 128


def known_defects(m, seed: int) -> dict:
    """Shares of probe inputs on which the package is wrong at this commit;
    each drops to 0 when its defect is fixed.  The probes run outside the
    workloads, which stay clear of these inputs.

    - defect.lp_norm_overflow: natural-amplitude fields whose L^512 norm is
      not finite.
    - defect.biot_nyquist: full-spectrum fields whose velocity fails the
      curl check.
    - defect.osgood_verdict_wrong: cases of DEFECT_OSGOOD whose verdict
      differs from the analytic key.
    """
    rng = np.random.default_rng([seed, 11])
    raw = [log_singular_field(rng, DEFECT_N, a, 1) for a in (0.0, 0.5, 1.0)]
    overflow = nyquist = 0
    for w in raw:
        f = m.field.GridField(w)
        with np.errstate(over="ignore"):
            overflow += not math.isfinite(m.field.lp_norm(f, 512.0))
        v1, v2 = (v.data for v in m.biot.biot_savart(f, 0.0))
        curl, div = curl_and_divergence(v1, v2)
        err = np.abs(curl - attainable_vorticity(w)).max()
        nyquist += bool(err > ROUNDOFF * np.abs(w).max() or div > ROUNDOFF)
    wrong = 0
    for case in DEFECT_OSGOOD:
        x = osgood_case(m, case, rng)
        res = m.growth.osgood_test(m.growth.osgood_from_growth(x["growth"], x["orientation"], x["lift"]))
        wrong += res.verdict.value != x["key"]
    return {
        "defect.lp_norm_overflow": overflow / len(raw),
        "defect.biot_nyquist": nyquist / len(raw),
        "defect.osgood_verdict_wrong": wrong / len(DEFECT_OSGOOD),
    }


def load_package(root) -> SimpleNamespace:
    """Import the six layer modules from <root>/src, refusing any other copy."""
    import importlib
    import sys
    from pathlib import Path

    src = str(Path(root) / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"osgood.{name}") for name in LAYERS}
    origin = Path(mods["field"].__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise ImportError(f"osgood imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)
