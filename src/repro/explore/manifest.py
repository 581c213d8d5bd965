"""The study checkpoint format: one reader and one writer.

A study directory checkpoints its results in two files.
``manifest.json`` is the compacted manifest, rewritten whole (temp file
and rename) at study end and on resume::

    {"version": 1, "spec": {...}, "spec_fingerprint": "...",
     "completed": {"<point_id>": <record>, ...}}

``manifest.segment.jsonl`` logs the run in progress: a header line, then
one line per completed point, each fsync'd before the point is done::

    {"kind": "header", "version": 1, "spec_fingerprint": "..."}
    {"kind": "point", "record": <record>}

A ``<record>`` is :meth:`repro.explore.runner.PointResult.to_dict`.
Compaction folds the segment into the manifest and deletes it; a killed
study may leave both, and the segment's records win on point-id
collision (they are newer).  A kill can tear the final append: reading
stops at the first line that is not valid JSON, and every complete
record before it stands.  Anything else unreadable — or a ``version``
other than :data:`MANIFEST_VERSION` (a missing one reads as current) —
raises :class:`CheckpointError`, never reads as an empty study.  Each
caller adds its own policy: resume refuses a spec fingerprint that
differs from its spec, ``repro diff`` only warns.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro._atomic import atomic_write

#: Checkpoint format version; bump to orphan old checkpoints.
MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
SEGMENT_NAME = "manifest.segment.jsonl"


class CheckpointError(ValueError):
    """An unreadable or foreign-version checkpoint; the message names it."""


class Checkpoint(NamedTuple):
    """What one checkpoint file (or manifest payload) holds."""

    #: :data:`MANIFEST_VERSION`, or ``None`` for a segment killed before
    #: its header landed (it holds no records either).
    version: Optional[int]
    spec_fingerprint: Optional[str]
    #: The full spec dict; only compacted manifests embed one.
    spec: Optional[Dict]
    #: Point records in file order; a later record for a point id wins.
    records: List[Dict]
    #: Non-fatal oddities, e.g. a torn trailing segment line.
    warnings: Tuple[str, ...] = ()


def segment_path(study_dir: Path) -> Path:
    return Path(study_dir) / SEGMENT_NAME


def checkpoint_files(study_dir: Path) -> List[Path]:
    """The checkpoint files present in ``study_dir``, older first."""
    paths = (Path(study_dir) / MANIFEST_NAME, segment_path(study_dir))
    return [path for path in paths if path.is_file()]


def is_study_dir(path: Path) -> bool:
    """Whether ``path`` is a directory holding a study checkpoint."""
    return Path(path).is_dir() and bool(checkpoint_files(path))


def check_version(version, source: str) -> None:
    """Refuse a document written in another checkpoint format version."""
    if version is not None and version != MANIFEST_VERSION:
        raise CheckpointError(
            f"{source}: manifest version {version!r} is not supported "
            f"(this build reads version {MANIFEST_VERSION})"
        )


def parse_manifest(payload, source: str) -> Checkpoint:
    """Validate an already-decoded compacted manifest."""
    if not isinstance(payload, dict):
        raise CheckpointError(
            f"{source}: expected a JSON object, got {type(payload).__name__}"
        )
    check_version(payload.get("version"), source)
    completed = payload.get("completed")
    if not isinstance(completed, dict):
        raise CheckpointError(f"{source}: manifest has no 'completed' mapping")
    return Checkpoint(MANIFEST_VERSION, payload.get("spec_fingerprint"),
                      payload.get("spec"), list(completed.values()))


def read_checkpoint(path: Path) -> Checkpoint:
    """Read one manifest file, or a segment (any ``.jsonl`` file)."""
    path = Path(path)
    try:
        if path.suffix == ".jsonl":
            return _read_segment(path)
        payload = json.loads(path.read_text())
    except CheckpointError:
        raise
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"{path}: not valid JSON ({exc})") from None
    return parse_manifest(payload, str(path))


def _read_segment(path: Path) -> Checkpoint:
    header: Optional[Dict] = None
    records: List[Dict] = []
    warnings: List[str] = []
    with path.open() as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # A kill can truncate the final append mid-line; every
                # complete record before it is still good.
                warnings.append(f"{path}:{lineno}: torn record, stopping here")
                break
            if not isinstance(entry, dict):
                raise CheckpointError(f"{path}:{lineno}: not a JSON object")
            if header is None:
                if entry.get("kind") != "header":
                    raise CheckpointError(f"{path}: no header line")
                check_version(entry.get("version"), str(path))
                header = entry
            elif entry.get("kind") == "point":
                records.append(entry.get("record"))
    if header is None:
        return Checkpoint(None, None, None, records, tuple(warnings))
    return Checkpoint(MANIFEST_VERSION, header.get("spec_fingerprint"), None,
                      records, tuple(warnings))


class SegmentWriter:
    """The current run's segment: truncated, headed, then append-only."""

    def __init__(self, study_dir: Path, spec_fingerprint: str):
        self._handle = segment_path(study_dir).open("w")
        self._write({"kind": "header", "version": MANIFEST_VERSION,
                     "spec_fingerprint": spec_fingerprint})

    def _write(self, entry: Dict) -> None:
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def append(self, record: Dict) -> None:
        """Checkpoint one completed point: a single fsync'd line."""
        self._write({"kind": "point", "record": record})

    def close(self) -> None:
        self._handle.close()


def compact(study_dir: Path, spec: Dict, spec_fingerprint: str,
            records: Iterable[Dict]) -> None:
    """One atomic manifest rewrite holding ``records``; the segment goes."""
    payload = {"version": MANIFEST_VERSION, "spec": spec,
               "spec_fingerprint": spec_fingerprint,
               "completed": {record["point_id"]: record for record in records}}
    text = json.dumps(payload, indent=2)
    atomic_write(Path(study_dir) / MANIFEST_NAME, text.encode())
    segment_path(study_dir).unlink(missing_ok=True)
