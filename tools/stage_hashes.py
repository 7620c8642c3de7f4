"""Print a fingerprint of every stage output of the benchmark's operations.

    python tools/stage_hashes.py [ROOT] > hashes.json

ROOT is a checkout (default: this one).  The script imports ROOT's
`perfbench/workloads.py` and the package under ROOT/src, writing no
bytecode there, runs operations 0-7 of seeds 0 and 1 of every workload, and
prints one JSON object.  Each key is `workload/seed/op/stage.field...`, one
per leaf of a stage's output: dataclasses, dicts, lists and tuples are
walked, an array is a leaf and is given as the SHA-256 of its dtype, shape
and bytes, and any other value as its repr (a float's repr is exact).  A
stage that raises gives one leaf, `stage.raised`, naming the exception, and
ends its operation.

Two checkouts produce the same numbers exactly where their maps agree, so a
change meant to keep the outputs bit for bit is checked with

    python tools/stage_hashes.py OLD > old.json
    python tools/stage_hashes.py NEW > new.json

and a comparison of the shared keys of the two files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

DEFAULT_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pipeline", "spectral", "osgood")
SEEDS = (0, 1)
OPS = 8


def leaves(path: str, value):
    """(key, fingerprint) for each leaf of value, keys extending path."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from leaves(f"{path}.{f.name}", getattr(value, f.name))
    elif isinstance(value, dict):
        for k, v in value.items():
            yield from leaves(f"{path}.{k}", v)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from leaves(f"{path}.{i}", v)
    elif isinstance(value, np.ndarray):
        digest = hashlib.sha256(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
        yield path, digest.hexdigest()
    else:
        yield path, repr(value)


def load_workloads(root: Path):
    """ROOT's perfbench/workloads.py as a module, and the package it loads."""
    spec = importlib.util.spec_from_file_location("stage_hashes_workloads", root / "perfbench" / "workloads.py")
    W = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(W)
    return W, W.load_package(root)


def stage_hashes(root: Path, workloads=WORKLOADS, seeds=SEEDS, ops: int = OPS) -> dict:
    """{`workload/seed/op/stage.field`: fingerprint} over the given runs."""
    W, m = load_workloads(Path(root))
    out = {}
    for workload in workloads:
        for seed in seeds:
            for i in range(ops):
                x, o = W.make_input(m, workload, seed, i), {}
                for _, key, fn in W.stages(m, workload, x):
                    try:
                        o[key] = fn(o)
                    except Exception as e:
                        out[f"{workload}/{seed}/{i}/{key}.raised"] = f"{type(e).__name__}: {e}"
                        break
                    out.update(leaves(f"{workload}/{seed}/{i}/{key}", o[key]))
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else DEFAULT_ROOT
    sys.dont_write_bytecode = True
    json.dump(stage_hashes(root), sys.stdout, indent=0, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
