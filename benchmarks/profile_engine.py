"""Hotspot profiler for the simulation engine: where do the cycles go?

This is the profile-first companion to the engine optimisation work: it
runs the engine's fused path over the ResNet-50 trace under ``cProfile``,
prints the top functions by cumulative and self time, and times each
layer individually so a regression is attributable to a specific layer
shape rather than a single opaque scalar.

The same numbers are written to ``BENCH_profile.json`` at the repository
root.  ``docs/performance.md`` explains how to read the report.

Run directly::

    PYTHONPATH=src python benchmarks/profile_engine.py
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from pathlib import Path

from benchmarks.common import get_trace, print_header

from repro.analysis.reporting import format_table
from repro.engine import SimulationEngine

WORKLOAD = "resnet50"
MAX_GROUPS = 512
#: Functions shown per profile ordering.
TOP_FUNCTIONS = 15
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_profile.json"


def _top_entries(stats: pstats.Stats, sort_key: str, count: int):
    """The top ``count`` profile rows as JSON-friendly dicts."""
    stats.sort_stats(sort_key)
    entries = []
    for func in stats.fcn_list[:count]:  # (file, line, name)
        cc, nc, tottime, cumtime, _ = stats.stats[func]
        filename, line, name = func
        entries.append({
            "function": f"{Path(filename).name}:{line}:{name}",
            "calls": nc,
            "self_seconds": round(tottime, 4),
            "cumulative_seconds": round(cumtime, 4),
        })
    return entries


def main() -> int:
    print_header(
        "Engine hotspot profile",
        "cProfile over the fused engine path plus a per-layer timing "
        "breakdown (no paper figure; drives engine optimisation)",
    )
    trace = get_trace(WORKLOAD, epochs=1)
    layers = list(trace.final_epoch().layers)
    print(f"Workload: {WORKLOAD}, {len(layers)} traced layers, "
          f"max_groups={MAX_GROUPS}")

    engine = SimulationEngine(max_groups=MAX_GROUPS)

    profiler = cProfile.Profile()
    profiler.enable()
    start = time.perf_counter()
    engine.simulate_layers(layers)
    total_seconds = time.perf_counter() - start
    profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    by_cumulative = _top_entries(stats, "cumulative", TOP_FUNCTIONS)
    by_self = _top_entries(stats, "tottime", TOP_FUNCTIONS)

    print(format_table(
        f"top {TOP_FUNCTIONS} functions by self time "
        f"(whole trace: {total_seconds:.3f}s)",
        ["function", "calls", "self s", "cum s"],
        [[e["function"], e["calls"], e["self_seconds"],
          e["cumulative_seconds"]] for e in by_self],
    ))

    # Per-layer attribution: time each layer alone through the packed
    # kernel (slightly slower than the fused whole-trace pass because
    # cross-layer batching cannot help a single layer).
    simulator = engine.simulator
    per_layer = []
    for layer in layers:
        start = time.perf_counter()
        result = simulator.simulate_layer(layer)
        seconds = time.perf_counter() - start
        per_layer.append({
            "layer": layer.layer_name,
            "seconds": round(seconds, 4),
            "tensordash_cycles": result.tensordash_cycles,
        })
    per_layer.sort(key=lambda row: -row["seconds"])
    print(format_table(
        "per-layer wall clock (packed kernel, layer at a time, descending)",
        ["layer", "seconds", "tensordash cycles"],
        [[row["layer"], row["seconds"], row["tensordash_cycles"]]
         for row in per_layer],
    ))

    payload = {
        "benchmark": "profile_engine",
        "workload": WORKLOAD,
        "max_groups": MAX_GROUPS,
        "traced_layers": len(layers),
        "whole_trace_seconds": round(total_seconds, 4),
        "hotspots_by_self_time": by_self,
        "hotspots_by_cumulative_time": by_cumulative,
        "per_layer_seconds": per_layer,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
