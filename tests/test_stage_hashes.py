"""tools/stage_hashes.py on two osgood operations of this checkout: one leaf
per field of each stage output, arrays as SHA-256 digests, scalars as their
reprs, the same map on a second run."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

from osgood.growth import osgood_from_growth, osgood_test

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stage_hashes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("stage_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_two_osgood_ops():
    tool = load_tool()
    out = tool.stage_hashes(TOOL.parents[1], workloads=("osgood",), seeds=(0,), ops=2)
    fields = ("verdict", "partial_integral", "trace", "exit", "tail_exponent")
    assert sorted(out) == sorted(f"osgood/0/{i}/osgood.{name}" for i in (0, 1) for name in fields)
    W, m = tool.load_workloads(TOOL.parents[1])
    for i in (0, 1):
        x = W.make_input(m, "osgood", 0, i)
        res = osgood_test(osgood_from_growth(x["growth"], x["orientation"], x["lift"]))
        key = f"osgood/0/{i}/osgood."
        assert out[key + "verdict"] == repr(res.verdict)
        assert out[key + "partial_integral"] == repr(res.partial_integral)
        digest = hashlib.sha256(f"{res.trace.dtype.str}{res.trace.shape}".encode())
        digest.update(np.ascontiguousarray(res.trace).tobytes())
        assert out[key + "trace"] == digest.hexdigest()
    assert tool.stage_hashes(TOOL.parents[1], workloads=("osgood",), seeds=(0,), ops=2) == out
