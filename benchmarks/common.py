"""Shared infrastructure for the benchmark harness.

Every figure/table benchmark needs operand traces from (briefly) trained
models.  Training is the expensive part, so traces are cached per model for
the duration of the pytest session; the per-figure benchmarks then drive
the accelerator simulation with whatever configuration the figure sweeps.

The harness prints the same rows/series the paper's figures plot.  Absolute
numbers differ from the paper (the workloads are scaled-down stand-ins and
the substrate is an analytical simulator — see DESIGN.md), but the shape of
each result (who wins, by roughly what factor, where the trends bend) is
what the benchmarks reproduce and what EXPERIMENTS.md records.

Simulation runs through the engine (:mod:`repro.engine`); two
environment variables steer it without touching any benchmark:

* ``REPRO_CACHE_DIR`` — enable the on-disk result cache so repeated
  harness runs skip already-simulated layers;
* ``REPRO_STUDY_JOBS`` — worker processes for study-level parallelism
  in the DSE benchmark (:func:`study_kwargs`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import AcceleratorConfig
from repro.models.registry import PAPER_MODELS, trace_workload
from repro.simulation.runner import ExperimentRunner, ModelResult
from repro.training.tracing import TrainingTrace

#: Benchmark-wide defaults: small enough to keep the full harness in the
#: minutes range, large enough to exercise every code path end to end.
DEFAULT_EPOCHS = 3
DEFAULT_BATCHES_PER_EPOCH = 2
DEFAULT_BATCH_SIZE = 8
DEFAULT_MAX_GROUPS = 48


def engine_kwargs() -> Dict[str, object]:
    """Engine configuration for every harness runner, from the environment.

    Resolution goes through :func:`repro.engine.resolve_engine_options` —
    the same helper the CLI and :class:`repro.api.Session` use — so the
    ``REPRO_*`` precedence can never drift between entry points.
    """
    from repro.engine.options import resolve_engine_options

    return {"cache_dir": resolve_engine_options().cache_dir}


def study_kwargs() -> Dict[str, object]:
    """Study-runner configuration: engine knobs plus ``study_jobs``.

    Same single-resolution rule as :func:`engine_kwargs` — the
    ``REPRO_STUDY_JOBS`` environment variable steers study-level
    parallelism identically for the CLI, the
    API session and the benchmark harness.
    """
    from repro.engine.options import resolve_engine_options

    options = resolve_engine_options()
    return {
        **engine_kwargs(),
        "study_jobs": options.study_jobs,
    }

#: The models the headline per-model figures sweep (paper order).
BENCH_MODELS: List[str] = list(PAPER_MODELS)


@lru_cache(maxsize=None)
def get_trace(model_name: str, epochs: int = DEFAULT_EPOCHS) -> TrainingTrace:
    """Train a workload briefly and return its operand traces (cached;
    loaded from the trace store when ``REPRO_CACHE_DIR`` is set)."""
    return trace_workload(
        model_name,
        epochs=epochs,
        batches_per_epoch=DEFAULT_BATCHES_PER_EPOCH,
        batch_size=DEFAULT_BATCH_SIZE,
        seed=0,
        **engine_kwargs(),
    )


@lru_cache(maxsize=None)
def get_result(
    model_name: str,
    config_key: str = "default",
    max_groups: int = DEFAULT_MAX_GROUPS,
    epochs: int = DEFAULT_EPOCHS,
) -> ModelResult:
    """Simulate a model's final-epoch trace under a named configuration (cached)."""
    trace = get_trace(model_name, epochs=epochs)
    runner = ExperimentRunner(
        config_for(config_key), max_groups=max_groups, **engine_kwargs()
    )
    return runner.run_final_epoch(trace)


def config_for(key: str) -> AcceleratorConfig:
    """Named accelerator configurations used across the benchmarks."""
    base = AcceleratorConfig()
    if key == "default":
        return base
    if key == "bfloat16":
        return base.with_pe(datatype="bfloat16")
    if key == "staging2":
        return base.with_pe(staging_depth=2)
    if key.startswith("rows"):
        return base.with_tile(rows=int(key[len("rows"):]))
    if key.startswith("cols"):
        return base.with_tile(columns=int(key[len("cols"):]))
    if key == "power_gated":
        return AcceleratorConfig(power_gated=True)
    raise KeyError(f"unknown benchmark configuration {key!r}")


def runner_for(key: str = "default", max_groups: int = DEFAULT_MAX_GROUPS) -> ExperimentRunner:
    """An experiment runner bound to a named configuration."""
    return ExperimentRunner(config_for(key), max_groups=max_groups, **engine_kwargs())


def geometric_mean(values) -> float:
    """Geometric mean used for the figures' average rows."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(array))))


def print_header(title: str, paper_reference: str) -> None:
    """Banner identifying which paper figure/table a benchmark regenerates."""
    line = "=" * 78
    print(f"\n{line}\n{title}\n{paper_reference}\n{line}")
