"""Result analysis: the geometric mean, Pareto frontiers, the roofline
report and table formatting."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "geometric_mean": "repro.analysis.metrics",
    "format_table": "repro.analysis.reporting",
    "format_series": "repro.analysis.reporting",
    "format_engine_stats": "repro.analysis.reporting",
    "ReportTable": "repro.analysis.reporting",
    "Objective": "repro.analysis.frontier",
    "dominates": "repro.analysis.frontier",
    "pareto_frontier": "repro.analysis.frontier",
    "best_per_objective": "repro.analysis.frontier",
    "RooflinePoint": "repro.analysis.roofline",
    "RooflineReport": "repro.analysis.roofline",
    "roofline_report": "repro.analysis.roofline",
    "format_roofline_report": "repro.analysis.roofline",
    "operational_intensity": "repro.analysis.roofline",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
