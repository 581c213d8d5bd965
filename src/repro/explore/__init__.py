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
    zero re-simulation.

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

from repro.explore.executor import StudyExecutor
from repro.explore.runner import (
    PointResult,
    StudyResult,
    StudyResumeError,
    StudyRunner,
    run_study,
)
from repro.explore.scenarios import apply_scenario, parse_scenario
from repro.explore.spec import (
    DEFAULT_OBJECTIVES,
    KNOBS,
    METRIC_ORIENTATIONS,
    SCALE_KNOBS,
    DesignPoint,
    StudySpec,
    parse_objectives,
)
from repro.explore.report import (
    format_frontier_table,
    format_points_table,
    format_scaling_section,
    format_study_report,
    study_to_csv,
    study_to_dict,
    study_to_json,
)

__all__ = [
    "StudySpec",
    "DesignPoint",
    "KNOBS",
    "SCALE_KNOBS",
    "METRIC_ORIENTATIONS",
    "DEFAULT_OBJECTIVES",
    "parse_objectives",
    "parse_scenario",
    "apply_scenario",
    "StudyRunner",
    "StudyExecutor",
    "StudyResult",
    "StudyResumeError",
    "PointResult",
    "run_study",
    "format_study_report",
    "format_points_table",
    "format_frontier_table",
    "format_scaling_section",
    "study_to_dict",
    "study_to_json",
    "study_to_csv",
]
