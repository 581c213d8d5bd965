"""Microbenchmark: the multi-device scaling curve and its cost.

Two claims of the :mod:`repro.scale` subsystem are quantified on the
ResNet-50 training trace and gated:

* **the curve** — data-parallel scaling across 1/2/4/8 devices under the
  default 25 GB/s / 500-cycle interconnect must stay efficient: the
  8-device data-parallel efficiency must exceed **0.6** (it is ~0.99 —
  the weight-gradient all-reduce hides under the per-shard compute).
  The pipeline curve is reported alongside for contrast (stage imbalance
  and boundary activations cap it well below data parallelism).
* **the overhead** — a 1-device scaling run is plain simulation plus
  partition bookkeeping and cache lookups; its wall-clock must stay
  within **5%** of a plain ``ExperimentRunner`` epoch on the same
  engine configuration (best of two runs each, to shave scheduler
  noise).  Bit-exactness of the 1-device cycle counts is asserted, not
  timed.

Results are printed as tables and emitted to ``BENCH_scale.json`` at the
repository root, extending the perf trajectory of ``BENCH_engine.json``
/ ``BENCH_dse.json`` / ``BENCH_memory.json`` / ``BENCH_api.json``.

Run directly::

    PYTHONPATH=src:. python benchmarks/bench_scale.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.common import print_header

from repro.analysis.reporting import format_table
from repro.core.config import AcceleratorConfig
from repro.engine.engine import SimulationEngine
from repro.models.registry import trace_workload
from repro.scale import Interconnect, ScaleRunner
from repro.simulation.runner import ExperimentRunner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_scale.json"

MODEL = "resnet50"
EPOCHS = 2
BATCHES_PER_EPOCH = 2
BATCH_SIZE = 8
#: Raised to the largest device count so data-parallel shards balance.
TRACE_MAX_BATCH = 8
MAX_GROUPS = 48
DEVICE_COUNTS = (1, 2, 4, 8)

EFFICIENCY_GATE = 0.6
OVERHEAD_GATE = 0.05


def _engine(config: AcceleratorConfig) -> SimulationEngine:
    return SimulationEngine(
        config, max_groups=MAX_GROUPS,
        max_batch=TRACE_MAX_BATCH, memory_cache=True,
    )


def _best_of(callable_, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    print_header(
        "Multi-device scaling: 1/2/4/8-device curve + 1-device overhead",
        "Scaling microbenchmark (no paper figure): the repro.scale "
        "partition/interconnect model on the ResNet-50 trace",
    )

    config = AcceleratorConfig()
    trace = trace_workload(
        MODEL, epochs=EPOCHS, batches_per_epoch=BATCHES_PER_EPOCH,
        batch_size=BATCH_SIZE, seed=0, trace_max_batch=TRACE_MAX_BATCH,
    )
    epoch = trace.final_epoch()

    # -- 1-device overhead vs plain simulation -------------------------
    # Fresh engines per timing pass; best-of-two per wiring.  The first
    # pass pays the simulation, so each wiring is timed cold.
    def plain_pass():
        runner = ExperimentRunner(
            config, max_groups=MAX_GROUPS, max_batch=TRACE_MAX_BATCH,
            engine=_engine(config),
        )
        plain_pass.result = runner.run_epoch(MODEL, epoch)

    def scale_pass():
        runner = ScaleRunner(
            config, engine=_engine(config), max_groups=MAX_GROUPS,
            max_batch=TRACE_MAX_BATCH,
        )
        scale_pass.report = runner.run(
            epoch, workload=MODEL, num_devices=1, partition="data",
            interconnect=Interconnect.default(),
        )

    plain_seconds = _best_of(plain_pass)
    scale_seconds = _best_of(scale_pass)
    plain_cycles = plain_pass.result.cycles()
    report_1 = scale_pass.report
    if report_1.scaled_cycles != plain_cycles["tensordash"]:
        raise AssertionError(
            f"1-device scaling ({report_1.scaled_cycles} cycles) is not "
            f"bit-identical to plain simulation "
            f"({plain_cycles['tensordash']} cycles)"
        )
    overhead = scale_seconds / plain_seconds - 1.0
    if overhead >= OVERHEAD_GATE:
        raise AssertionError(
            f"1-device scaling overhead {overhead:.1%} vs plain simulate "
            f"exceeds the {OVERHEAD_GATE:.0%} gate "
            f"({scale_seconds:.3f}s vs {plain_seconds:.3f}s)"
        )
    print(format_table(
        f"{MODEL}: 1-device scaling run vs plain simulation (best of 2)",
        ["wiring", "seconds", "tensordash cycles"],
        [
            ["plain ExperimentRunner", plain_seconds, plain_cycles["tensordash"]],
            ["ScaleRunner, 1 device", scale_seconds, report_1.scaled_cycles],
        ],
    ))
    print(f"Overhead: {overhead:+.1%} (gate: < {OVERHEAD_GATE:.0%}), "
          f"cycle counts bit-identical.")

    # -- the scaling curve ---------------------------------------------
    curve_runner = ScaleRunner(
        config, engine=_engine(config), max_groups=MAX_GROUPS,
        max_batch=TRACE_MAX_BATCH,
    )
    curve = {}
    rows = []
    for partition in ("data", "pipeline"):
        curve[partition] = []
        for count in DEVICE_COUNTS:
            report = curve_runner.run(
                epoch, workload=MODEL, num_devices=count,
                partition=partition, interconnect=Interconnect.default(),
            )
            curve[partition].append({
                "num_devices": count,
                "speedup": round(report.speedup, 4),
                "efficiency": round(report.efficiency, 4),
                "comm_fraction": round(report.comm_fraction, 4),
                "bound": report.bound,
            })
            rows.append([
                partition, count, report.speedup, report.efficiency,
                report.comm_fraction, report.bound,
            ])
    print()
    print(format_table(
        f"{MODEL}: scaling curve under the default link "
        f"({Interconnect.default().describe()})",
        ["partition", "devices", "speedup", "efficiency", "comm", "bound"],
        rows,
    ))

    data_at_8 = curve["data"][-1]["efficiency"]
    if data_at_8 <= EFFICIENCY_GATE:
        raise AssertionError(
            f"8-device data-parallel efficiency {data_at_8:.3f} does not "
            f"exceed the {EFFICIENCY_GATE} gate"
        )
    print(f"\n8-device data-parallel efficiency: {data_at_8:.3f} "
          f"(gate: > {EFFICIENCY_GATE}).")

    payload = {
        "benchmark": "scale",
        "workload": MODEL,
        "trace": {
            "epochs": EPOCHS,
            "batches_per_epoch": BATCHES_PER_EPOCH,
            "batch_size": BATCH_SIZE,
            "trace_max_batch": TRACE_MAX_BATCH,
            "max_groups": MAX_GROUPS,
        },
        "interconnect": Interconnect.default().as_dict(),
        "single_device": {
            "plain_seconds": round(plain_seconds, 4),
            "scale_seconds": round(scale_seconds, 4),
            "overhead": round(overhead, 4),
            "tensordash_cycles": plain_cycles["tensordash"],
        },
        "curve": curve,
        "gates": {
            "data_efficiency_at_8": f"> {EFFICIENCY_GATE}",
            "single_device_overhead": f"< {OVERHEAD_GATE}",
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nWrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
