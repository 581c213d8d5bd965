"""The benchmark's own arithmetic: latency percentiles, failure counting,
results digests and per-process CPU and memory readings."""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from attribution import patch

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest percentile that has
    :data:`TAIL_BEYOND` samples beyond it.

    With ``n`` sorted samples that is the one at index ``n - 11``: ten
    samples lie above it, and ``100 * (n - 10) / n`` percent of the
    samples are at or below it.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}"
        )
    ordered = sorted(latencies)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def op_failed(status: Optional[int] = None, exit_code: Optional[int] = None,
              matches: bool = True) -> bool:
    """Whether one operation failed: a non-2xx reply, a non-zero exit, or
    an output that does not match its reference."""
    if status is not None and not 200 <= status < 300:
        return True
    if exit_code is not None and exit_code != 0:
        return True
    return not matches


class Tally:
    """Operations attempted and failed; mismatches found later count too."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, failed: bool, reason: str = "") -> None:
        self.attempted += 1
        if failed:
            self.fail(reason)

    def fail(self, reason: str) -> None:
        """Count a failure found after the operation was recorded."""
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


# ----------------------------------------------------------------------
# results digest and input properties


_OP_FIELDS = ("baseline_cycles", "tensordash_cycles", "macs_total", "macs_effectual",
              "baseline_stall_cycles", "tensordash_stall_cycles", "memory_cycles")


def layer_records(layer_results) -> List[list]:
    """Every simulated cycle and MAC count of some ``LayerResult`` objects."""
    return [
        [layer.layer_name, name] + [int(getattr(op, f)) for f in _OP_FIELDS]
        for layer in layer_results
        for name, op in sorted(layer.operations.items())
    ]


def results_digest(records: Iterable[list]) -> str:
    """Order-independent SHA-256 over :func:`layer_records` rows."""
    rows = sorted(json.dumps(row) for row in records)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


class Capture:
    """Collects engine results and training traces while active.

    Used only outside timed regions, on in-process reference runs.
    """

    def __init__(self) -> None:
        self.records: List[list] = []
        self.traces: list = []

    @contextlib.contextmanager
    def active(self):
        def engine(original):
            def wrapper(*args, **kwargs):
                results = original(*args, **kwargs)
                self.records.extend(layer_records(results))
                return results
            return wrapper

        def training(original):
            def wrapper(*args, **kwargs):
                trace = original(*args, **kwargs)
                self.traces.append(trace)
                return trace
            return wrapper

        restores = [
            patch("repro.engine.engine", "SimulationEngine.simulate_layers", engine),
            patch("repro.models.registry", "trace_workload", training),
        ]
        try:
            yield self
        finally:
            for restore in reversed(restores):
                restore()

    def trace_properties(self) -> Dict[str, int]:
        """Traced layers, distinct layer traces and their operand-mask bytes."""
        from repro.engine.cache import trace_fingerprint

        distinct: Dict[str, int] = {}
        layers = 0
        for trace in self.traces:
            for layer in trace.final_epoch().layers:
                layers += 1
                masks = (layer.weight_mask, layer.activation_mask, layer.output_gradient_mask)
                distinct[trace_fingerprint(layer)] = sum(
                    m.nbytes for m in masks if m is not None
                )
        return {"traced_layers": layers, "distinct_layer_traces": len(distinct),
                "distinct_trace_bytes": sum(distinct.values())}


def tier_shares(engine_deltas: Iterable[Dict]) -> Dict[str, float]:
    """Layers simulated against layers looked up, and the share of lookups
    each cache tier served (``miss_share``: simulated)."""
    tiers = {"memo_share": "memo_hits", "shared_share": "shared_hits",
             "disk_share": "disk_hits", "miss_share": "cache_misses"}
    totals = {key: 0 for key in list(tiers.values()) + ["layers_simulated"]}
    for delta in engine_deltas:
        for key in totals:
            totals[key] += int(delta.get(key, 0))
    lookups = sum(totals[key] for key in tiers.values())
    shares = {share: totals[key] / lookups if lookups else 0.0 for share, key in tiers.items()}
    return {"layers_simulated": totals["layers_simulated"], "layers_looked_up": lookups, **shares}


# ----------------------------------------------------------------------
# processes


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used so far.

    Reads the process's CPU-time clock, whose Linux id encodes the pid
    (``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``), at nanosecond
    resolution instead of the 10 ms ticks of ``/proc/<pid>/stat``.
    """
    return time.clock_gettime((~pid << 3) | 2)


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
