"""Closed-form speedup under a shared memory-cycle floor.

The potential (work-reduction) speedup of Fig. 1 is computed from the
trace by :meth:`repro.simulation.runner.ExperimentRunner.potential_speedups_from_trace`.
"""

from __future__ import annotations


def bandwidth_bound_speedup(
    baseline_compute_cycles: float,
    tensordash_compute_cycles: float,
    memory_cycles: float,
) -> float:
    """Speedup after imposing a shared memory-cycle floor on both designs.

    Both the dense baseline and TensorDash move the same bytes (the
    paper's methodology), so a finite memory hierarchy gives each design
    ``max(compute_cycles, memory_cycles)`` total cycles.  As the floor
    rises, the speedup degrades monotonically toward 1.0 — zero-skipping
    cannot help an operation whose pace memory bandwidth sets.

    This is the closed-form counterpart of what the simulator records via
    :meth:`repro.memory.hierarchy.MemoryHierarchy.constrain`; an
    invariant test pins the two to each other.  Use it for back-of-the-
    envelope analysis — the simulation path never calls it.
    """
    if baseline_compute_cycles < 0 or tensordash_compute_cycles < 0 or memory_cycles < 0:
        raise ValueError("cycle counts must be non-negative")
    baseline = max(baseline_compute_cycles, memory_cycles)
    tensordash = max(tensordash_compute_cycles, memory_cycles)
    return baseline / tensordash if tensordash else 1.0
