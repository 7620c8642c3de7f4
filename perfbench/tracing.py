"""Spans around the package's public functions, installed from outside.

`Tracer.install` wraps each function listed in `TRACED` and rebinds every
module attribute that holds the original object, which also catches names
imported by value (`osgood.biot.modulus_of_continuity`,
`osgood.bands.yudovich`) and the module global that the
`osgood_from_growth` closures reach (`osgood.growth.yudovich`).
`Tracer.uninstall` puts every original back.  Spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

TRACED = {
    "field": ("lp_norm", "rearrange", "sharp_maximal", "fefferman_stein_sharp", "dyadic_bmo_norm"),
    "bands": ("decompose", "vishik_norm", "besov_norm", "besov_norm_seq", "thmve_equivalence_report"),
    "kfunc": ("modulus_of_continuity", "k_lp_linf_profile", "extrapolation_sup", "k_seq"),
    "spaces": ("yudovich_norm", "sharp_yudovich_norm"),
    "biot": ("biot_savart", "curl", "divergence_defect", "modulus_envelope", "envelope_curve"),
    "growth": ("yudovich", "yudovich_eval", "theta1", "pclass_check", "osgood_from_growth", "osgood_test"),
}


def _count(name: str, args, kwargs, out) -> dict:
    """Work counts recorded at the span boundary."""
    if name == "growth.yudovich":
        r = args[1] if len(args) > 1 else kwargs["r"]
        return {"points": int(getattr(r, "size", 1))}
    if name == "growth.osgood_test":
        return {"decades": int(len(out.trace))}
    if name == "kfunc.modulus_of_continuity":
        fields, h = args[0], args[2] if len(args) > 2 else kwargs["h_values"]
        return {"h_per_call": len(fields) * int(getattr(h, "size", 1))}
    if name == "field.lp_norm":
        return {"nonfinite": int(not math.isfinite(out))}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 at top level
    op: int          # operation id; -1 for set-up
    counts: dict


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, {})
            self.spans.append(span)
            self._stack.append(idx)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            span.counts = _count(name, args, kwargs, out)
            return out

        return traced

    def install(self, m) -> None:
        """Wrap every TRACED function of the package namespace m."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [getattr(m, layer) for layer in TRACED]
        for layer, names in TRACED.items():
            for fname in names:
                orig = getattr(getattr(m, layer), fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._restore.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part covered by its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], op_ids: list[int], op_wall: dict) -> dict:
    """Per-operation means of counts and self times over the traced ops,
    plus the share of each op's wall time its top-level spans cover."""
    ops = set(op_ids)
    n_ops = max(len(ops), 1)
    own = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    covered = defaultdict(float)
    for s, t in zip(spans, own):
        if s.op not in ops:
            continue
        calls[s.name] += 1
        self_s[s.name] += t
        layer = s.name.split(".")[0]
        self_s[layer] += t
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}"] += v
        if s.parent < 0:
            covered[s.op] += s.end - s.start
    out = {}
    for layer, names in TRACED.items():
        out[f"{layer}.self_ms"] = 1e3 * self_s[layer] / n_ops
        for fname in names:
            full = f"{layer}.{fname}"
            out[f"{full}.calls"] = calls[full] / n_ops
            out[f"{full}.self_ms"] = 1e3 * self_s[full] / n_ops
    for k, v in counts.items():
        out[k] = v / n_ops
    shares = [covered[i] / op_wall[i] for i in ops if op_wall.get(i, 0) > 0]
    out["trace.coverage_min"] = min(shares) if shares else 0.0
    return out


def cold_ms(spans: list[Span], name: str) -> float:
    """Duration of the first top-level span of `name` during set-up."""
    for s in spans:
        if s.op == -1 and s.name == name:
            return 1e3 * (s.end - s.start)
    return 0.0
