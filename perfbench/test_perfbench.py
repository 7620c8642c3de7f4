"""Tests of the benchmark itself: inputs, answer key, failure accounting
and trace-wrapper removal.  Run with `python -m pytest perfbench`."""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def m():
    return W.load_package(ROOT)


def _same(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for k in a:
        x, y = a[k], b[k]
        if hasattr(x, "data"):
            x, y = x.data, y.data
        elif hasattr(x, "name") and hasattr(x, "params"):
            x, y = (x.name, x.p0, x.params), (y.name, y.p0, y.params)
        if isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_inputs_depend_on_seed_alone(m, workload):
    for i in range(3):
        assert _same(W.make_input(m, workload, 5, i), W.make_input(m, workload, 5, i))
    assert not all(
        _same(W.make_input(m, workload, 5, i), W.make_input(m, workload, 6, i)) for i in range(3)
    )


def test_osgood_deck_holds_every_case_once(m):
    n = len(W.OSGOOD_CASES)
    for deck in range(2):
        xs = [W.make_input(m, "osgood", 1, deck * n + i) for i in range(n)]
        assert sorted(x["case"] for x in xs) == sorted(W.OSGOOD_CASES)
        for x in xs:
            _, alpha, beta, lift, _ = x["case"]
            assert x["key"] == W.osgood_key(alpha, beta, lift)
    # the cases the package gets wrong leave the deck for the defect probe
    full = {(fam, a, b, lift, end) for fam, a, b in W.OSGOOD_GROWTHS
            for lift in (False, True) for end in ("zero", "infinity")}
    assert set(W.OSGOOD_CASES) == full - set(W.OSGOOD_WRONG)
    assert set(W.OSGOOD_WRONG) <= set(W.DEFECT_OSGOOD)
    assert sum(c[:3] == ("logpower", 1.0, 2.0) for c in W.OSGOOD_CASES) == 2


def test_answer_key():
    for lift in (False, True):
        assert W.osgood_key(0.0, 0.0, lift) == "Divergent"     # constant growth
        assert W.osgood_key(2.0, 0.0, lift) == "Convergent"    # p^2
    assert W.osgood_key(1.0, 1.0, False) == "Divergent"        # p log p
    assert W.osgood_key(1.0, 2.0, False) == "Convergent"       # p (log p)^2
    assert W.osgood_key(0.5, 0.0, True) == "Convergent"        # lifted p^(1/2)


@pytest.mark.parametrize("end", ["zero", "infinity"])
def test_program_agrees_with_key_on_clear_cases(m, end):
    O = m.growth.OsgoodOrientation
    orient = O.ZERO_END if end == "zero" else O.INFINITY_END
    G = m.growth.GrowthFunction
    for g, alpha in ((G.constant(1.0), 0.0), (G.power(2.0), 2.0)):
        res = m.growth.osgood_test(m.growth.osgood_from_growth(g, orient, lift=False))
        assert res.verdict.value == W.osgood_key(alpha, 0.0, False)


@pytest.mark.parametrize("workload", ["pipeline", "spectral"])
def test_fields_are_resolved(m, workload):
    w = W.make_input(m, workload, 3, 0)["field"].data
    h = w.shape[0] // 2
    spec = np.fft.fft2(w)
    assert np.abs(spec[h, :]).max() < 1e-9 * np.abs(spec).max()
    assert np.abs(spec[:, h]).max() < 1e-9 * np.abs(spec).max()
    assert np.abs(w).max() == pytest.approx(1.0, abs=1e-12)


def test_known_defects_are_shares(m):
    d = W.known_defects(m, 0)
    assert set(d) == {"defect.lp_norm_overflow", "defect.biot_nyquist", "defect.osgood_verdict_wrong"}
    assert all(0.0 <= v <= 1.0 for v in d.values())


def _small_spectral_outputs(m):
    rng = np.random.default_rng(0)
    x = {
        "field": m.field.GridField(W.resolved_field(W.log_singular_field(rng, 32, 0.0, 1))),
        "alpha": 0.5,
        "growth": m.growth.GrowthFunction.power(0.5),
        "band_growth": m.growth.GrowthFunction.power(0.5, shift=1.0),
    }
    o = {}
    for _, key, fn in W.stages(m, "spectral", x):
        o[key] = fn(o)
    return x, o


def test_broken_outputs_are_counted(m):
    x, o = _small_spectral_outputs(m)
    assert W.check("spectral", x, o) == []

    o_nan = dict(o, yudovich=replace(o["yudovich"], direct_value=math.nan))
    bad_norm = W.check("spectral", x, o_nan)
    assert ("spaces", "spaces.nonfinite") in bad_norm

    gx = W.osgood_input(m, 0, 0)
    res = m.growth.osgood_test(m.growth.osgood_from_growth(gx["growth"], gx["orientation"], gx["lift"]))
    flipped = "Convergent" if gx["key"] == "Divergent" else "Divergent"
    wrong = replace(res, verdict=m.growth.OsgoodVerdict(flipped))
    bad_verdict = W.check("osgood", gx, {"osgood": wrong})
    assert bad_verdict == [("growth", "growth.verdict_wrong")]

    records = [(0.1, bad_norm), (0.1, bad_verdict), (0.1, []), (0.1, [])]
    metrics, causes = run.outcome_metrics(records, W.LAYERS)
    assert metrics["failed_frac"] == 0.5
    assert metrics["spaces.failed"] == 0.25
    assert metrics["growth.failed"] == 0.25
    assert metrics["growth.verdict_wrong"] == 0.25
    assert metrics["kfunc.failed"] == 0.0
    assert causes["growth.verdict_wrong"] == 1


def test_self_times_subtract_children():
    spans = [
        tracing.Span("a", 0.0, 10.0, -1, 0, {}),
        tracing.Span("b", 1.0, 4.0, 0, 0, {}),
        tracing.Span("c", 2.0, 3.0, 1, 0, {}),
        tracing.Span("d", 5.0, 9.0, 0, 0, {}),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_traced_run_restores_every_function(m):
    before = {name: dict(vars(getattr(m, name))) for name in W.LAYERS}
    result = run.run_workload("pipeline", seed=0, seconds=0.01, trace=True)
    assert result["metrics"]["growth.osgood_test.calls"] == 1.0
    assert result["metrics"]["growth.yudovich.calls"] > 20
    for name in W.LAYERS:
        after = vars(getattr(m, name))
        for attr, obj in before[name].items():
            assert after[attr] is obj, f"osgood.{name}.{attr} still wrapped"
