"""Point-keyed snapshots of study results, whatever their on-disk shape.

A study's results come in two serialised forms:

* its checkpoint — a compacted manifest, an append-only segment, or a
  study directory holding both, read through the one checkpoint reader
  in :mod:`repro.explore.manifest` (which also documents the format);
* the study *document* emitted by ``repro explore --format json``
  (:func:`repro.explore.report.study_to_dict`:
  ``{"spec": ..., "points": [...], "frontier": [...], ...}``).

:class:`ManifestSnapshot` normalises either into one immutable view
keyed by ``point_id``, carrying the spec fingerprint (recorded, or
recomputed from an embedded spec) and dropping noise fields (non-finite
metric values and any explicitly ignored metric names) so diffs compare
only signal.  Torn trailing segment lines become warnings, and a
fingerprint mismatch between a study directory's manifest and segment
is a warning too — ``repro diff`` still compares what was recorded.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.explore import manifest

#: Metric fields that are wall-clock / environment noise rather than
#: simulated results; always dropped from snapshots.  Study metrics are
#: deterministic simulation outputs today, so this list exists for
#: forward compatibility (and for callers feeding hand-built payloads).
DEFAULT_IGNORE_FIELDS: Tuple[str, ...] = (
    "elapsed_seconds",
    "wall_seconds",
    "wall_clock_seconds",
)


#: Raised when a payload or path cannot be read as a study snapshot.  It
#: is the checkpoint reader's own error, so its refusals pass through.
SnapshotError = manifest.CheckpointError


def _finite(value) -> Optional[float]:
    """``value`` as a finite float, or ``None`` if it isn't one."""
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


@dataclass(frozen=True)
class SnapshotPoint:
    """One normalised design point: identity, axes, and finite metrics."""

    point_id: str
    workload: str
    scenario: str
    #: Knob assignments in name order, hashable for axis grouping.
    knobs: Tuple[Tuple[str, object], ...]
    label: str
    metrics: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_record(
        cls, record: Dict, ignore: Sequence[str] = ()
    ) -> "SnapshotPoint":
        """Build from a manifest record / study-document point dict.

        Tolerates legacy records missing optional presentation fields
        (``label``, ``config_label``); only identity fields are required.
        """
        try:
            point_id = str(record["point_id"])
        except (TypeError, KeyError):
            raise SnapshotError(
                f"point record has no point_id: {record!r}"
            ) from None
        knob_pairs = record.get("knobs") or ()
        try:
            knobs = tuple(
                sorted((str(name), value) for name, value in knob_pairs)
            )
        except (TypeError, ValueError):
            raise SnapshotError(
                f"point {point_id}: knobs must be (name, value) pairs, "
                f"got {knob_pairs!r}"
            ) from None
        dropped = set(ignore) | set(DEFAULT_IGNORE_FIELDS)
        metrics: Dict[str, float] = {}
        for name, value in (record.get("metrics") or {}).items():
            if name in dropped:
                continue
            number = _finite(value)
            if number is not None:
                metrics[name] = number
        return cls(
            point_id=point_id,
            workload=str(record.get("workload", "")),
            scenario=str(record.get("scenario", "")),
            knobs=knobs,
            label=str(record.get("label", point_id)),
            metrics=metrics,
        )

    def axes(self) -> Dict[str, object]:
        """Every grouping axis: workload, scenario, and each knob."""
        axes: Dict[str, object] = {
            "workload": self.workload,
            "scenario": self.scenario,
        }
        for name, value in self.knobs:
            axes[name] = value
        return axes


@dataclass(frozen=True)
class ManifestSnapshot:
    """An immutable, point-keyed view of one study's recorded results."""

    #: Where this snapshot came from (path or caller-supplied label).
    source: str
    #: ``point_id -> SnapshotPoint`` in first-seen order.
    points: Dict[str, SnapshotPoint]
    #: The study spec's result-shaping fingerprint, when recoverable.
    spec_fingerprint: Optional[str] = None
    #: The spec's objective names (``"speedup"`` / ``"dram_bytes:min"``).
    objectives: Tuple[str, ...] = ()
    #: Non-fatal oddities found while loading (torn lines, mismatches).
    warnings: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(
        cls,
        payload: Dict,
        source: str = "<payload>",
        ignore: Sequence[str] = (),
    ) -> "ManifestSnapshot":
        """Normalise an in-memory manifest or study document.

        Accepts the compacted manifest shape (``completed`` mapping) and
        the study-document shape (``points`` list).  Anything else is a
        :class:`SnapshotError`.
        """
        if not isinstance(payload, dict):
            raise SnapshotError(
                f"{source}: expected a JSON object, got {type(payload).__name__}"
            )
        if "completed" in payload:
            part = manifest.parse_manifest(payload, source)
        elif "points" in payload:
            manifest.check_version(payload.get("version"), source)
            part = manifest.Checkpoint(
                manifest.MANIFEST_VERSION, payload.get("spec_fingerprint"),
                payload.get("spec"), list(payload.get("points") or []))
        else:
            raise SnapshotError(
                f"{source}: payload has neither 'completed' (manifest) nor "
                f"'points' (study document); keys: {sorted(payload)[:8]}"
            )
        return cls._from_parts(source, [(source, part)], ignore)

    @classmethod
    def from_file(
        cls,
        path: Union[str, Path],
        ignore: Sequence[str] = (),
    ) -> "ManifestSnapshot":
        """Load a snapshot from any on-disk study artifact.

        ``path`` may be a study directory (its checkpoint files, segment
        records winning), a bare manifest / study-document JSON file, or
        a bare ``.jsonl`` segment.
        """
        path = Path(path)
        if not path.exists():
            raise SnapshotError(f"{path}: no such file or directory")
        if path.is_dir():
            files = manifest.checkpoint_files(path)
            if not files:
                raise SnapshotError(
                    f"{path}: directory holds neither {manifest.MANIFEST_NAME}"
                    f" nor {manifest.SEGMENT_NAME} — not a study directory"
                )
        elif path.suffix == ".jsonl":
            files = [path]
        else:
            try:
                payload = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise SnapshotError(f"{path}: not valid JSON ({exc})") from None
            return cls.from_payload(payload, source=str(path), ignore=ignore)
        parts = [(str(file), manifest.read_checkpoint(file)) for file in files]
        return cls._from_parts(str(path), parts, ignore)

    @classmethod
    def _from_parts(
        cls,
        source: str,
        parts: Sequence[Tuple[str, "manifest.Checkpoint"]],
        ignore: Sequence[str],
    ) -> "ManifestSnapshot":
        """The union of ``(origin, checkpoint)`` parts, later ones winning."""
        points: Dict[str, SnapshotPoint] = {}
        warnings: List[str] = []
        fingerprint: Optional[str] = None
        objectives: Tuple[str, ...] = ()
        for origin, part in parts:
            part_fingerprint = part.spec_fingerprint
            if isinstance(part.spec, dict):
                objectives = tuple(part.spec.get("objectives") or ())
                if part_fingerprint is None and "workloads" in part.spec:
                    part_fingerprint = _fingerprint_from_spec(
                        part.spec, origin, warnings
                    )
            if fingerprint is None:
                fingerprint = part_fingerprint
            elif part_fingerprint not in (None, fingerprint):
                warnings.append(
                    f"{origin}: segment fingerprint {part_fingerprint!r} != "
                    f"manifest fingerprint {fingerprint!r}; keeping the "
                    f"segment's records anyway"
                )
            warnings.extend(part.warnings)
            for record in part.records:
                point = SnapshotPoint.from_record(record, ignore=ignore)
                points[point.point_id] = point
        return cls(
            source=source,
            points=points,
            spec_fingerprint=fingerprint,
            objectives=objectives,
            warnings=tuple(warnings),
        )

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict:
        """The snapshot as a compact-manifest-shaped JSON document.

        This is how the CLI embeds an on-disk artifact (study dir,
        segment, document) into a :class:`repro.api.schema.DiffRequest`:
        whatever the source format, the wire carries one canonical
        shape.  Loading the payload back yields an equal snapshot.
        """
        payload: Dict = {"version": manifest.MANIFEST_VERSION}
        if self.spec_fingerprint is not None:
            payload["spec_fingerprint"] = self.spec_fingerprint
        if self.objectives:
            payload["spec"] = {"objectives": list(self.objectives)}
        payload["completed"] = {
                point_id: {
                    "point_id": point.point_id,
                    "workload": point.workload,
                    "scenario": point.scenario,
                    "knobs": [list(pair) for pair in point.knobs],
                    "label": point.label,
                    "metrics": dict(point.metrics),
                }
                for point_id, point in self.points.items()
        }
        return payload

    def metric_names(self) -> List[str]:
        """Every metric name recorded by at least one point, sorted."""
        names = set()
        for point in self.points.values():
            names.update(point.metrics)
        return sorted(names)

    def __len__(self) -> int:
        return len(self.points)


def _fingerprint_from_spec(
    spec: Dict, source: str, warnings: List[str]
) -> Optional[str]:
    """Recompute the fingerprint from an embedded spec, best-effort."""
    from repro.explore.spec import StudySpec

    try:
        return StudySpec.from_dict(spec).fingerprint()
    except Exception as exc:  # invalid/foreign spec: snapshot still loads
        warnings.append(
            f"{source}: could not recompute spec fingerprint ({exc})"
        )
        return None
