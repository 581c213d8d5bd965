"""Declarative design-space exploration over the TensorDash model.

The paper's evaluation is a design-space story: Figs. 17-19 and the
bfloat16 study sweep tile geometry, staging depth and datatype against
speedup, energy efficiency and area overhead.  This package turns those
one-knob-at-a-time sweeps into declarative *studies*:

:class:`~repro.explore.spec.StudySpec`
    A dict/JSON-loadable description of a design space — accelerator
    knobs x model-zoo workloads x sparsity scenarios — expanded either
    exhaustively (cartesian) or as a seeded random sample, with stable
    per-point content hashes.

:class:`~repro.explore.runner.StudyRunner`
    Executes a spec through the
    :class:`~repro.engine.SimulationEngine` (same cache flags as every
    other entry point), records speedup, energy
    efficiency and area overhead per point, and checkpoints a resumable
    manifest so an interrupted study continues where it left off with
    zero re-simulation.  The checkpoint format itself (one reader, one
    writer) is :mod:`~repro.explore.manifest`.

:mod:`~repro.analysis.frontier` + :mod:`~repro.explore.report`
    Pareto-dominance filtering, per-objective winners, and table / JSON /
    CSV reports.

:class:`~repro.explore.executor.StudyExecutor`
    Fans a study's point groups across a pool of worker processes
    (``--study-jobs`` / ``REPRO_STUDY_JOBS``), each owning an engine on
    the study's cache stack, with exact stats aggregation and
    deterministic point-order merging.

Everything is surfaced on the command line as ``repro explore
<spec.json>`` (with ``--resume``, ``--study-jobs``, ``--sample N --seed
S`` and ``--objectives``); ``repro sweep`` is a thin one-knob alias over
the same machinery.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "StudySpec": "repro.explore.spec",
    "DesignPoint": "repro.explore.spec",
    "KNOBS": "repro.explore.spec",
    "SCALE_KNOBS": "repro.explore.spec",
    "METRIC_ORIENTATIONS": "repro.explore.spec",
    "DEFAULT_OBJECTIVES": "repro.explore.spec",
    "parse_objectives": "repro.explore.spec",
    "parse_scenario": "repro.explore.scenarios",
    "apply_scenario": "repro.explore.scenarios",
    "StudyRunner": "repro.explore.runner",
    "StudyExecutor": "repro.explore.executor",
    "StudyResult": "repro.explore.runner",
    "StudyResumeError": "repro.explore.runner",
    "PointResult": "repro.explore.runner",
    "format_study_report": "repro.explore.report",
    "format_points_table": "repro.explore.report",
    "format_frontier_table": "repro.explore.report",
    "format_scaling_section": "repro.explore.report",
    "study_to_dict": "repro.explore.report",
    "study_to_json": "repro.explore.report",
    "study_to_csv": "repro.explore.report",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
