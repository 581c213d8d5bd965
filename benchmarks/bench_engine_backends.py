"""Microbenchmark: the fused engine path against the per-cycle oracle.

Trains the scaled ResNet-50 workload briefly, then simulates its final
epoch trace twice with identical sampling parameters: once layer by layer
through the scheduler oracle (``LayerSimulator.simulate_layer(...,
oracle=True)``, reported as ``reference``) and once through the engine's
fused packed-kernel path (``SimulationEngine.simulate_layers``, reported
as ``vectorized``).  It checks that the two are bit-identical and
measures the cold/warm behaviour of the on-disk result cache.

Results are printed as a table and emitted to ``BENCH_engine.json`` at
the repository root, including a per-layer timing breakdown so future
regressions are attributable, not just visible.  The emitted ``perf_gate`` block records the speedup
floors CI enforces.

Run directly::

    PYTHONPATH=src python benchmarks/bench_engine_backends.py

CI perf-gate mode (reduced trace, ratio-based so it is robust to runner
speed; the floor comes from the committed BENCH_engine.json)::

    PYTHONPATH=src python benchmarks/bench_engine_backends.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

from benchmarks.common import get_trace, print_header

from repro.analysis.reporting import format_table
from repro.engine import SimulationEngine
from repro.simulation.cycle_sim import traced_layers

#: ResNet-scale sampling: large enough that scheduling dominates wall
#: clock and the batched numpy kernels have a real batch to amortise over.
MAX_GROUPS = 512
WORKLOAD = "resnet50"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
#: The fused path must beat the oracle loop by at least this
#: factor on the full trace; the run fails otherwise so a performance
#: regression turns CI red instead of hiding in the artifact.
MIN_VECTORIZED_SPEEDUP = 10.0

#: Reduced configuration for the CI perf-gate step (--check): a smaller
#: workload and batch so the gate costs seconds, compared ratio-against-
#: ratio with the floor recorded in the committed BENCH_engine.json.
CHECK_WORKLOAD = "squeezenet"
CHECK_MAX_GROUPS = 64
#: Floor for the reduced gate (recorded into BENCH_engine.json; also the
#: fallback when the artifact predates it).  Measured ~11x on a 1-CPU
#: container, so 5x leaves a 2x margin for slower/noisier runners.
CHECK_FLOOR_FALLBACK = 5.0


def _run(name: str, layers, max_groups: int):
    """Simulate ``layers`` the ``reference`` (oracle) or ``vectorized`` way."""
    engine = SimulationEngine(max_groups=max_groups)
    if name == "reference":
        return [
            engine.simulator.simulate_layer(layer, oracle=True)
            for layer in traced_layers(layers)
        ]
    return engine.simulate_layers(layers)


def _identical(lhs, rhs) -> bool:
    if [r.layer_name for r in lhs] != [r.layer_name for r in rhs]:
        return False
    for a, b in zip(lhs, rhs):
        if a.operations != b.operations or a.traffic != b.traffic:
            return False
    return True


def run_check() -> int:
    """CI perf gate: reduced trace, ratio compared against the recorded floor."""
    print_header(
        "Engine perf gate (reduced trace)",
        "Ratio-based regression gate: fused path vs oracle on a small "
        "workload, floor from the committed BENCH_engine.json",
    )
    floor = CHECK_FLOOR_FALLBACK
    try:
        recorded = json.loads(OUTPUT.read_text())
        floor = float(recorded["perf_gate"]["reduced_min_vectorized_speedup"])
    except (OSError, KeyError, ValueError):
        print(f"no recorded floor found; using fallback {floor}x")
    trace = get_trace(CHECK_WORKLOAD, epochs=1)
    layers = trace.final_epoch().layers

    timings = {}
    results = {}
    for name in ("reference", "vectorized"):
        # Best of three: the fused pass is fast enough that a single
        # sample is dominated by allocator/page-cache noise.
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            results[name] = _run(name, layers, CHECK_MAX_GROUPS)
            best = min(best, time.perf_counter() - start)
        timings[name] = best
    if not _identical(results["vectorized"], results["reference"]):
        raise AssertionError("the fused path diverged from the oracle loop")
    ratio = timings["reference"] / timings["vectorized"]
    print(f"{CHECK_WORKLOAD} (max_groups={CHECK_MAX_GROUPS}): "
          f"reference {timings['reference']:.3f}s, "
          f"vectorized {timings['vectorized']:.3f}s -> {ratio:.2f}x "
          f"(floor: {floor}x)")
    if ratio < floor:
        raise AssertionError(
            f"fused path is only {ratio:.2f}x the oracle loop "
            f"on the reduced trace (required: >= {floor}x)"
        )
    print("perf gate passed")
    return 0


def main() -> int:
    print_header(
        "Simulation engine vs oracle",
        "Engine microbenchmark (no paper figure): oracle loop (reference) "
        "vs fused path (vectorized), plus result-cache effectiveness",
    )
    trace = get_trace(WORKLOAD, epochs=1)
    layers = trace.final_epoch().layers
    cpu_count = os.cpu_count() or 1
    print(f"Workload: {WORKLOAD}, {len(layers)} traced layers, "
          f"max_groups={MAX_GROUPS}, cpus={cpu_count}")

    timings = {}
    results = {}
    for name in ("reference", "vectorized"):
        start = time.perf_counter()
        results[name] = _run(name, layers, MAX_GROUPS)
        timings[name] = time.perf_counter() - start

    bit_identical = _identical(results["vectorized"], results["reference"])
    if not bit_identical:
        raise AssertionError("the fused path diverged from the oracle loop")

    # Per-layer attribution (packed kernel, one layer at a time).
    simulator = SimulationEngine(max_groups=MAX_GROUPS).simulator
    per_layer = []
    for layer in layers:
        start = time.perf_counter()
        simulator.simulate_layer(layer)
        per_layer.append({
            "layer": layer.layer_name,
            "seconds": round(time.perf_counter() - start, 4),
        })

    # Cache behaviour: cold run populates, warm run must re-simulate nothing.
    with tempfile.TemporaryDirectory() as cache_dir:
        cold_engine = SimulationEngine(cache_dir=cache_dir, max_groups=MAX_GROUPS)
        start = time.perf_counter()
        cold_engine.simulate_layers(layers)
        cold_seconds = time.perf_counter() - start

        warm_engine = SimulationEngine(cache_dir=cache_dir, max_groups=MAX_GROUPS)
        start = time.perf_counter()
        warm_results = warm_engine.simulate_layers(layers)
        warm_seconds = time.perf_counter() - start
        if warm_engine.stats.layers_simulated != 0:
            raise AssertionError("warm cache run re-simulated layers")
        if not _identical(warm_results, results["vectorized"]):
            raise AssertionError("cached results diverged from fresh results")

    reference_seconds = timings["reference"]
    rows = [
        [name, seconds, reference_seconds / seconds if seconds else float("inf")]
        for name, seconds in timings.items()
    ]
    rows.append(["vectorized+warm-cache", warm_seconds,
                 reference_seconds / warm_seconds if warm_seconds else float("inf")])
    print(format_table(
        f"{WORKLOAD}: engine wall-clock",
        ["path", "seconds", "speedup vs reference"],
        rows,
    ))

    payload = {
        "benchmark": "engine_backends",
        "workload": WORKLOAD,
        "traced_layers": len(layers),
        "max_groups": MAX_GROUPS,
        "cpu_count": cpu_count,
        "backends": {
            name: {
                "seconds": round(seconds, 4),
                "speedup_vs_reference": round(reference_seconds / seconds, 3)
                if seconds else None,
            }
            for name, seconds in timings.items()
        },
        "per_layer_seconds": sorted(per_layer, key=lambda r: -r["seconds"]),
        "cache": {
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "warm_cache_hits": warm_engine.stats.cache_hits,
            "warm_cache_misses": warm_engine.stats.cache_misses,
            "warm_layers_resimulated": warm_engine.stats.layers_simulated,
        },
        "perf_gate": {
            "min_vectorized_speedup": MIN_VECTORIZED_SPEEDUP,
            "reduced_workload": CHECK_WORKLOAD,
            "reduced_max_groups": CHECK_MAX_GROUPS,
            "reduced_min_vectorized_speedup": CHECK_FLOOR_FALLBACK,
        },
        "bit_identical": bit_identical,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {OUTPUT}")

    vectorized_speedup = payload["backends"]["vectorized"]["speedup_vs_reference"]
    print(f"Fused path speedup over the oracle: {vectorized_speedup:.2f}x")
    if vectorized_speedup < MIN_VECTORIZED_SPEEDUP:
        raise AssertionError(
            f"fused path is only {vectorized_speedup:.2f}x the oracle "
            f"loop (required: >= {MIN_VECTORIZED_SPEEDUP}x)"
        )
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="CI perf-gate mode: reduced trace, ratio vs recorded floor",
    )
    args = parser.parse_args()
    raise SystemExit(run_check() if args.check else main())
