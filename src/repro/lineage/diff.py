"""Field-level diff of two study snapshots.

The diff model is deliberately symmetric and tolerance-monotone so it
can be property-tested (``tests/test_lineage_diff.py``):

* a metric *holds* between values ``a`` and ``b`` iff
  ``|b - a| <= tolerance * max(|a|, |b|)`` — symmetric in its arguments
  (swapping the snapshots exactly negates every delta) and monotone in
  ``tolerance`` (raising it never turns a held metric into a changed
  one).  ``tolerance`` is relative; ``0.0`` (the default for study
  diffs) means any bit-level change is reported.
* changed metrics are classified ``improved`` / ``regressed`` using the
  orientation registry (:data:`repro.explore.spec.METRIC_ORIENTATIONS`);
  metrics with unknown orientation are reported as ``changed``.
* frontier membership is recomputed per snapshot with
  :func:`repro.analysis.frontier.pareto_frontier` over the points each
  side actually holds, then compared: ``entered`` (frontier of B only),
  ``left`` (A only), ``held`` (both).  Objectives default to the spec's
  (A's, then B's), then :data:`~repro.explore.spec.DEFAULT_OBJECTIVES`.
* *attribution* asks "which single knob axis explains the changed
  points?": an axis (workload, scenario, or any knob name) explains the
  change when partitioning the matched points by its value yields groups
  that are each entirely changed or entirely unchanged — i.e. the change
  cleaves cleanly along that axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.frontier import Objective, pareto_frontier
from repro.explore.spec import DEFAULT_OBJECTIVES, METRIC_ORIENTATIONS
from repro.lineage.snapshot import ManifestSnapshot, SnapshotPoint

#: Classification labels for a metric delta.
IMPROVED, HELD, REGRESSED, CHANGED = "improved", "held", "regressed", "changed"


def values_hold(a: float, b: float, tolerance: float) -> bool:
    """True when ``a`` and ``b`` agree within the relative ``tolerance``.

    ``|b - a| <= tolerance * max(|a|, |b|)``: symmetric in ``a``/``b``
    and monotone in ``tolerance``.  Equal values hold at any tolerance,
    including ``0.0``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    return abs(b - a) <= tolerance * max(abs(a), abs(b))


def classify(metric: str, a: float, b: float, tolerance: float) -> str:
    """``improved`` / ``held`` / ``regressed`` / ``changed`` for one metric."""
    if values_hold(a, b, tolerance):
        return HELD
    higher_is_better = METRIC_ORIENTATIONS.get(metric)
    if higher_is_better is None:
        return CHANGED
    return IMPROVED if (b > a) == higher_is_better else REGRESSED


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement on one matched point."""

    point_id: str
    label: str
    metric: str
    a: float
    b: float
    classification: str

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def relative(self) -> Optional[float]:
        """``delta / |a|``, or ``None`` when A's value is zero."""
        return (self.b - self.a) / abs(self.a) if self.a != 0 else None

    def to_dict(self) -> Dict:
        return {
            "point_id": self.point_id,
            "label": self.label,
            "metric": self.metric,
            "a": self.a,
            "b": self.b,
            "delta": self.delta,
            "relative": self.relative,
            "classification": self.classification,
        }


@dataclass(frozen=True)
class LineageDiff:
    """The full diff of snapshot A against snapshot B."""

    a_source: str
    b_source: str
    tolerance: float
    #: Deltas for matched points, one per (point, metric) that moved or
    #: appeared/disappeared; held metrics are not listed.
    deltas: List[MetricDelta]
    #: Point ids present only in B / only in A.
    added: List[str]
    removed: List[str]
    #: ``{"computed": bool, "entered": [...], "left": [...], "held": [...]}``.
    frontier: Dict
    #: ``[{"axis": name, "values": [...]}]`` — single axes that cleanly
    #: partition changed from unchanged points.
    attribution: List[Dict]
    #: True when the snapshots' spec fingerprints are both known + equal.
    fingerprints_match: Optional[bool] = None
    warnings: Tuple[str, ...] = ()
    #: Count of matched points, for the summary.
    matched: int = 0

    @property
    def identical(self) -> bool:
        """No deltas and no membership changes (frontier follows)."""
        return not self.deltas and not self.added and not self.removed

    def count(self, classification: str) -> int:
        return sum(1 for d in self.deltas if d.classification == classification)

    def summary(self) -> Dict:
        return {
            "matched_points": self.matched,
            "added_points": len(self.added),
            "removed_points": len(self.removed),
            "improved": self.count(IMPROVED),
            "held_points": self.matched - len(
                {d.point_id for d in self.deltas}
            ),
            "regressed": self.count(REGRESSED),
            "changed": self.count(CHANGED),
            "frontier_entered": len(self.frontier.get("entered", [])),
            "frontier_left": len(self.frontier.get("left", [])),
            "fingerprints_match": self.fingerprints_match,
            "identical": self.identical,
        }


# ----------------------------------------------------------------------
def _resolve_objectives(
    a: ManifestSnapshot,
    b: ManifestSnapshot,
    names: Optional[Sequence[str]],
) -> List[Objective]:
    from repro.explore.spec import parse_objectives

    chosen = list(names or a.objectives or b.objectives or DEFAULT_OBJECTIVES)
    return parse_objectives(chosen)


def _frontier_ids(
    snapshot: ManifestSnapshot, objectives: List[Objective]
) -> Optional[List[str]]:
    """Frontier point ids, or ``None`` when objectives aren't recorded."""
    points = list(snapshot.points.values())
    if not points:
        return []
    for objective in objectives:
        if any(objective.name not in p.metrics for p in points):
            return None

    def key(point: SnapshotPoint, objective: Objective) -> float:
        return point.metrics[objective.name]

    return [p.point_id for p in pareto_frontier(points, objectives, key=key)]


def _attribute(
    a_points: Dict[str, SnapshotPoint],
    matched_ids: List[str],
    changed_ids: set,
) -> List[Dict]:
    """Single axes whose value-groups are each fully changed or unchanged."""
    if not changed_ids or len(changed_ids) == len(matched_ids):
        return []
    axis_names: List[str] = []
    for pid in matched_ids:
        for name in a_points[pid].axes():
            if name not in axis_names:
                axis_names.append(name)
    attribution: List[Dict] = []
    for axis in axis_names:
        groups: Dict[object, List[bool]] = {}
        for pid in matched_ids:
            value = a_points[pid].axes().get(axis)
            groups.setdefault(repr(value), []).append(pid in changed_ids)
        clean = all(all(flags) or not any(flags) for flags in groups.values())
        if clean and 1 < len(groups):
            values = sorted(
                {
                    repr(a_points[pid].axes().get(axis))
                    for pid in matched_ids
                    if pid in changed_ids
                }
            )
            attribution.append({"axis": axis, "values": values})
    return attribution


def diff_snapshots(
    a: ManifestSnapshot,
    b: ManifestSnapshot,
    tolerance: float = 0.0,
    objectives: Optional[Sequence[str]] = None,
) -> LineageDiff:
    """Diff snapshot ``a`` (baseline) against ``b`` (candidate)."""
    matched = [pid for pid in a.points if pid in b.points]
    added = [pid for pid in b.points if pid not in a.points]
    removed = [pid for pid in a.points if pid not in b.points]
    warnings: List[str] = list(a.warnings) + list(b.warnings)

    deltas: List[MetricDelta] = []
    changed_ids = set()
    for pid in matched:
        pa, pb = a.points[pid], b.points[pid]
        for metric in sorted(set(pa.metrics) | set(pb.metrics)):
            if metric not in pa.metrics or metric not in pb.metrics:
                side = "a" if metric in pa.metrics else "b"
                warnings.append(
                    f"point {pa.label}: metric {metric!r} recorded only "
                    f"in snapshot {side}; skipping it"
                )
                continue
            va, vb = pa.metrics[metric], pb.metrics[metric]
            classification = classify(metric, va, vb, tolerance)
            if classification == HELD:
                continue
            changed_ids.add(pid)
            deltas.append(
                MetricDelta(pid, pa.label, metric, va, vb, classification)
            )

    frontier: Dict = {"computed": False, "entered": [], "left": [], "held": []}
    try:
        parsed = _resolve_objectives(a, b, objectives)
    except ValueError as exc:
        warnings.append(f"frontier skipped: {exc}")
        parsed = None
    if parsed:
        fa, fb = _frontier_ids(a, parsed), _frontier_ids(b, parsed)
        if fa is None or fb is None:
            warnings.append(
                "frontier skipped: not every point records every objective "
                f"({', '.join(o.describe() for o in parsed)})"
            )
        else:
            frontier = {
                "computed": True,
                "objectives": [o.describe() for o in parsed],
                "entered": sorted(set(fb) - set(fa)),
                "left": sorted(set(fa) - set(fb)),
                "held": sorted(set(fa) & set(fb)),
            }

    fingerprints_match: Optional[bool] = None
    if a.spec_fingerprint is not None and b.spec_fingerprint is not None:
        fingerprints_match = a.spec_fingerprint == b.spec_fingerprint
        if not fingerprints_match:
            warnings.append(
                f"spec fingerprints differ ({a.spec_fingerprint!r} vs "
                f"{b.spec_fingerprint!r}): comparing across different specs"
            )

    return LineageDiff(
        a_source=a.source,
        b_source=b.source,
        tolerance=tolerance,
        deltas=deltas,
        added=added,
        removed=removed,
        frontier=frontier,
        attribution=_attribute(a.points, matched, changed_ids),
        fingerprints_match=fingerprints_match,
        warnings=tuple(warnings),
        matched=len(matched),
    )
