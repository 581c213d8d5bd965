"""Microbenchmark: the telemetry plane's overhead discipline.

Simulates one traced epoch through the engine with telemetry disabled
and enabled (span log to a temporary directory), interleaved best-of-N,
and enforces the instrumentation contract:

* results are **bit-identical** with telemetry on and off;
* enabled tracing costs less than ``MAX_ENABLED_OVERHEAD`` wall-clock
  on top of the uninstrumented run;
* the disabled fast path is effectively free — the shared no-op span is
  measured directly and must stay under ``MAX_NOOP_NANOSECONDS`` per
  instrumented site.

Results go to ``BENCH_telemetry.json`` at the repository root.

Run directly::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py

CI gate mode (reduced workload, same gates)::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --check
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from benchmarks.common import get_trace, print_header

from repro.analysis.reporting import format_table
from repro.engine import SimulationEngine
from repro.telemetry import Tracer, configure
from repro.telemetry.schema import validate_file

WORKLOAD = "resnet50"
MAX_GROUPS = 256
REPEATS = 5
#: Reduced configuration for the CI gate (--check): a small workload and
#: more rounds, so the gate costs seconds and the min is stable.
CHECK_WORKLOAD = "squeezenet"
CHECK_MAX_GROUPS = 64
CHECK_REPEATS = 7

#: Enabled tracing may cost at most this fraction of the disabled run.
MAX_ENABLED_OVERHEAD = 0.03
#: The disabled path's no-op span, measured directly; a handful of these
#: per *batch* is the entire disabled-mode cost, so nanoseconds here is
#: the "~0% disabled" claim made concrete.
MAX_NOOP_NANOSECONDS = 5000.0

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"


def _identical(lhs, rhs) -> bool:
    if [r.layer_name for r in lhs] != [r.layer_name for r in rhs]:
        return False
    for a, b in zip(lhs, rhs):
        if a.operations != b.operations or a.traffic != b.traffic:
            return False
    return True


def _one_run(layers, max_groups, directory):
    """One engine pass with the global tracer pointed at ``directory``."""
    configure(directory)
    engine = SimulationEngine(max_groups=max_groups)
    began = time.perf_counter()
    results = engine.simulate_layers(layers)
    seconds = time.perf_counter() - began
    configure(None)
    return seconds, results


def _noop_nanoseconds(iterations: int = 100_000) -> float:
    """Direct cost of the disabled tracer's shared no-op span."""
    tracer = Tracer(None)
    began = time.perf_counter()
    for _ in range(iterations):
        with tracer.span("bench", layers=1):
            pass
    return (time.perf_counter() - began) / iterations * 1e9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="reduced CI-gate mode: small workload, same overhead gates",
    )
    args = parser.parse_args()

    workload = CHECK_WORKLOAD if args.check else WORKLOAD
    max_groups = CHECK_MAX_GROUPS if args.check else MAX_GROUPS
    repeats = CHECK_REPEATS if args.check else REPEATS

    print_header(
        "Telemetry overhead: tracing must observe, never perturb",
        "Instrumentation-plane microbenchmark (no paper figure): "
        "disabled vs enabled span tracing on one epoch trace",
    )
    epoch = get_trace(workload, epochs=1).final_epoch()
    print(f"Workload: {workload}, {len(epoch.layers)} traced layers, "
          f"max_groups={max_groups}, best of {repeats} interleaved rounds")

    disabled_s = enabled_s = float("inf")
    baseline = traced = None
    spans_emitted = 0
    with tempfile.TemporaryDirectory() as tmp:
        telemetry_dir = Path(tmp) / "tele"
        for _ in range(repeats):
            seconds, baseline = _one_run(epoch.layers, max_groups, None)
            disabled_s = min(disabled_s, seconds)
            seconds, traced = _one_run(
                epoch.layers, max_groups, telemetry_dir
            )
            enabled_s = min(enabled_s, seconds)
        if not _identical(baseline, traced):
            raise AssertionError(
                "telemetry perturbed the simulation: results with tracing "
                "enabled differ from the uninstrumented run"
            )
        counts = validate_file(telemetry_dir)
        spans_emitted = counts.get("span", 0)
        if spans_emitted < repeats:
            raise AssertionError(
                f"expected at least one span per traced round, found "
                f"{spans_emitted}"
            )

    overhead = enabled_s / disabled_s - 1.0
    noop_ns = _noop_nanoseconds()

    print(format_table(
        f"{workload}: telemetry wall-clock",
        ["mode", "seconds", "overhead"],
        [
            ["disabled", disabled_s, "-"],
            ["enabled", enabled_s, f"{overhead:+.2%}"],
        ],
    ))
    print(f"\nNo-op span cost (disabled path): {noop_ns:.0f} ns/span "
          f"(limit: {MAX_NOOP_NANOSECONDS:.0f} ns)")
    print(f"Enabled overhead: {overhead:+.2%} "
          f"(limit: +{MAX_ENABLED_OVERHEAD:.0%}); "
          f"results bit-identical; {spans_emitted} schema-valid spans")

    if overhead > MAX_ENABLED_OVERHEAD:
        raise AssertionError(
            f"enabled telemetry costs {overhead:+.2%} wall-clock "
            f"(allowed: +{MAX_ENABLED_OVERHEAD:.0%})"
        )
    if noop_ns > MAX_NOOP_NANOSECONDS:
        raise AssertionError(
            f"disabled no-op span costs {noop_ns:.0f} ns "
            f"(allowed: {MAX_NOOP_NANOSECONDS:.0f} ns)"
        )

    payload = {
        "benchmark": "telemetry_overhead",
        "workload": workload,
        "check_mode": args.check,
        "traced_layers": len(epoch.layers),
        "max_groups": max_groups,
        "repeats": repeats,
        "disabled_seconds": round(disabled_s, 6),
        "enabled_seconds": round(enabled_s, 6),
        "enabled_overhead_fraction": round(overhead, 6),
        "max_enabled_overhead_fraction": MAX_ENABLED_OVERHEAD,
        "noop_span_nanoseconds": round(noop_ns, 1),
        "max_noop_span_nanoseconds": MAX_NOOP_NANOSECONDS,
        "spans_emitted": spans_emitted,
        "bit_identical": True,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"Wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
