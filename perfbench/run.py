"""Benchmark of the osgood package: one client, closed loop, one thread.

    python3 perfbench/run.py --workload pipeline|spectral|osgood|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run times the workload untraced and reports the end-to-end
metrics; with --trace 1 each input runs once untraced and once traced, and
the run reports the per-layer metrics and the tracing overhead.  Every
metric is printed with its unit, the full result goes to perfbench/out/,
and the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os

# pin BLAS/OpenMP pools before numpy is imported anywhere
PINNING = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNING)

import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9        # the run's own set-up plus 8 in fresh interpreters
WARMUP_INPUT = 1 << 30   # input index no timed operation uses


def setup(workload: str, tracer=None):
    """Import the package and fill its lazy caches; returns (W, m, seconds).

    This is what a command-line user pays on every run: the imports, and
    the band-multiplier build for every grid size the workload uses.
    """
    t0 = perf_counter()
    import numpy as np
    import workloads as W

    m = W.load_package(ROOT)
    if tracer is not None:
        tracer.install(m)
    for n in W.WORKLOADS[workload]:
        m.bands.decompose(m.field.GridField(np.zeros((n, n))), warn_nyquist=False)
    return W, m, perf_counter() - t0


def setup_probe_seconds(workload: str) -> float:
    """Set-up time measured inside a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload],
        check=True, capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_op(W, m, workload: str, x: dict):
    """One operation: (seconds, failed checks as (layer, cause) pairs)."""
    ops = W.stages(m, workload, x)
    o = {}
    layer = None
    t0 = perf_counter()
    try:
        for layer, key, fn in ops:
            o[key] = fn(o)
    except Exception:
        return perf_counter() - t0, [(layer, f"{layer}.raised")]
    dt = perf_counter() - t0
    return dt, W.check(workload, x, o)


def tail(latencies: list) -> tuple:
    """(value, percentile, samples): the highest percentile that leaves at
    least ten samples above it, or the maximum when there are too few."""
    s = sorted(latencies)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def throughput(latencies: list, deck: int = 1, windows: int = 5) -> float:
    """Median over consecutive windows of operations per second, so that a
    burst of load from elsewhere on the machine moves one window only.
    Windows hold whole decks, so each sees the same mix of inputs."""
    decks = len(latencies) // deck
    cuts = sorted({deck * (decks * j // windows) for j in range(windows + 1)} | {len(latencies)})
    chunks = [latencies[a:b] for a, b in zip(cuts, cuts[1:])]
    return statistics.median(len(c) / sum(c) for c in chunks)


def src_lines() -> dict:
    return {p.name: sum(1 for _ in p.open(encoding="utf-8"))
            for p in sorted((ROOT / "src" / "osgood").glob("*.py"))}


def outcome_metrics(records: list, layers) -> tuple:
    """failed_frac and per-layer failure shares of a list of
    (seconds, failed checks) records, with the cause counts."""
    causes: dict = {}
    failed_by_layer = dict.fromkeys(layers, 0)
    for _, bad in records:
        for layer in {b[0] for b in bad}:
            failed_by_layer[layer] += 1
        for _, cause in bad:
            causes[cause] = causes.get(cause, 0) + 1
    n = max(len(records), 1)
    out = {"failed_frac": sum(bool(bad) for _, bad in records) / n}
    out.update({f"{layer}.failed": k / n for layer, k in failed_by_layer.items()})
    out["spaces.nonfinite"] = causes.get("spaces.nonfinite", 0) / n
    out["growth.verdict_wrong"] = causes.get("growth.verdict_wrong", 0) / n
    return out, causes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    W, m, setup_s = setup(workload, tracer)
    if tracer is not None:
        tracer.uninstall()
    run_op(W, m, workload, W.make_input(m, workload, seed, WARMUP_INPUT))

    # each input runs untraced; with tracing on it also runs traced, the
    # order alternating so that neither pass always goes first.  Untraced
    # runs also repeat the set-up in fresh interpreters, spread evenly
    # through the loop so that one slow moment of the machine moves one of
    # them only
    plain, traced = [], {}
    setups = [setup_s]
    measured, i = 0.0, 0
    # the loop ends on a deck boundary, so that every run of a workload
    # measures the same mix of inputs
    deck = W.deck_size(workload)
    while measured < seconds or i % deck:
        if tracer is None and measured >= seconds * (len(setups) - 1) / (SETUP_REPEATS - 1):
            setups.append(setup_probe_seconds(workload))
        x = W.make_input(m, workload, seed, i)
        for on in ([False] if tracer is None else [i % 2 == 1, i % 2 == 0]):
            if on:
                first = len(tracer.spans)
                tracer.op = i
                tracer.install(m)
                try:
                    dt, bad = run_op(W, m, workload, x)
                finally:
                    tracer.uninstall()
                if any(s.counts.get("nonfinite") for s in tracer.spans[first:]):
                    bad = bad + [("field", "field.lp_norm.nonfinite")]
                traced[i] = (dt, bad)
            else:
                dt, bad = run_op(W, m, workload, x)
                plain.append((dt, bad))
            measured += dt
        i += 1

    records = plain + list(traced.values())
    latencies = [dt for dt, _ in plain]
    metrics, causes = outcome_metrics(records, W.LAYERS)
    extra = {}
    if tracer is None:
        setups += [setup_probe_seconds(workload) for _ in range(SETUP_REPEATS - len(setups))]
        value, pct, samples = tail(latencies)
        metrics = {
            "failed_frac": metrics["failed_frac"],
            "setup_s": statistics.median(setups),
            "ops_per_s": throughput(latencies, deck),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * value,
        }
        extra.update({"setup_runs_s": setups, "op_tail_percentile": pct, "op_samples": samples,
                      "op_ms": [1e3 * dt for dt in latencies]})
    else:
        import tracing
        layer_out, _ = outcome_metrics(list(traced.values()), W.LAYERS)
        metrics.update({k: v for k, v in layer_out.items() if k != "failed_frac"})
        wall = {k: dt for k, (dt, _) in traced.items()}
        metrics.update(tracing.layer_metrics(tracer.spans, list(traced), wall))
        metrics["bands.decompose.cold_ms"] = tracing.cold_ms(tracer.spans, "bands.decompose")
        metrics["trace.overhead"] = sum(wall.values()) / sum(latencies) - 1.0
        metrics.update(W.known_defects(m, seed))
        extra["traced_ops"] = len(traced)
        extra["spans_file"] = write_spans(tracer.spans, workload, seed)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(records), "failed": sum(bool(bad) for _, bad in records),
        "checks_failed": causes, "metrics": metrics, **extra,
        "context": {
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "thread_pinning": PINNING, "src_lines": src_lines(),
        },
    }


def write_spans(spans, workload: str, seed: int) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-spans.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump([[s.name, s.start, s.end, s.parent, s.op] for s in spans], fh)
    return str(path.relative_to(ROOT))


def declared_metrics() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}}"""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {d["name"]: d["unit"] for d in spec[kind]} for kind in ("end_to_end", "per_layer")}


def report(result: dict) -> dict:
    """Print every metric with its unit and return the contract line."""
    declared = declared_metrics()
    units = declared["per_layer" if result["trace"] else "end_to_end"]
    known = {**declared["end_to_end"], **declared["per_layer"]}
    w = result["workload"]
    print(f"# {w} seed={result['seed']} attempted={result['attempted']} failed={result['failed']}")
    for cause, k in sorted(result["checks_failed"].items()):
        print(f"#   check failed: {cause} x{k}")
    for name, share in sorted(result["metrics"].items()):
        if name.startswith("defect.") and share > 0:
            print(f"#   known defect outside the workload: {name} on {share:.0%} of its probes")
    if "op_tail_percentile" in result:
        print(f"#   op_tail_ms is p{result['op_tail_percentile']:.1f} of {result['op_samples']} samples")
    for name, value in sorted(result["metrics"].items()):
        unit = known.get(name) or ("ms" if name.endswith("_ms") else "count")
        print(f"{w} {name} {value!r} {unit}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    import workloads as W

    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in W.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = out.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        line["correct"] &= res["correct"]
        line["attempted"] += res["attempted"]
        line["failed"] += res["failed"]
        line["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["pipeline", "spectral", "osgood", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_probe:
        print(repr(setup(args.workload)[2]))
        return 0
    if args.workload == "all":
        line = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")
        line = report(result)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
