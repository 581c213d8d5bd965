"""Result analysis: the geometric mean, Pareto frontiers, the roofline
report and table formatting."""

from repro.analysis.frontier import (
    Objective,
    best_per_objective,
    dominates,
    pareto_frontier,
)
from repro.analysis.metrics import geometric_mean
from repro.analysis.roofline import (
    RooflinePoint,
    RooflineReport,
    format_roofline_report,
    operational_intensity,
    roofline_report,
)
from repro.analysis.reporting import (
    ReportTable,
    format_engine_stats,
    format_series,
    format_table,
)

__all__ = [
    "geometric_mean",
    "format_table",
    "format_series",
    "format_engine_stats",
    "ReportTable",
    "Objective",
    "dominates",
    "pareto_frontier",
    "best_per_objective",
    "RooflinePoint",
    "RooflineReport",
    "roofline_report",
    "format_roofline_report",
    "operational_intensity",
]
