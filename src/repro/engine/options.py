"""Engine option resolution: one precedence rule for every entry point.

Three knobs steer the simulation engine everywhere — CLI flags, the
programmatic :class:`repro.api.Session`, the benchmark harness:

* **cache_dir** — on-disk result-cache directory (several processes may
  share one);
* **telemetry_dir** — span/metrics event-log directory
  (:mod:`repro.telemetry`);
* **study_jobs** — worker processes a design-space study fans its
  point groups across (:class:`repro.explore.StudyExecutor`).

:func:`resolve_engine_options` is the single place their precedence is
decided: an explicit argument wins, then the ``REPRO_CACHE_DIR`` /
``REPRO_TELEMETRY_DIR`` / ``REPRO_STUDY_JOBS`` environment variables,
then the defaults (no disk cache, telemetry disabled, serial studies).
Every caller goes through this helper, so setting ``REPRO_CACHE_DIR``
steers the CLI, a long-lived API session and a benchmark run
identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional, Union


@dataclass(frozen=True)
class EngineOptions:
    """Fully resolved engine configuration (what the engine is built from)."""

    cache_dir: Optional[str] = None
    telemetry_dir: Optional[str] = None
    #: Worker processes for study execution; ``None`` means serial (1).
    study_jobs: Optional[int] = None

    def as_dict(self) -> dict:
        """JSON-friendly view for health/stats payloads."""
        return {
            "cache_dir": self.cache_dir,
            "telemetry_dir": self.telemetry_dir,
            "study_jobs": self.study_jobs,
        }


def resolve_engine_options(
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    telemetry_dir: Optional[Union[str, os.PathLike]] = None,
    study_jobs: Optional[int] = None,
    environ: Optional[Mapping[str, str]] = None,
) -> EngineOptions:
    """Resolve the engine knobs: explicit argument > env var > default.

    ``environ`` defaults to ``os.environ``; tests pass a plain dict.
    Invalid values fail here — before any model is trained — with an
    error naming the offending source.
    """
    env = os.environ if environ is None else environ

    if study_jobs is None:
        raw = env.get("REPRO_STUDY_JOBS")
        if raw:
            try:
                study_jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"REPRO_STUDY_JOBS must be an integer, got {raw!r}"
                ) from None
    if study_jobs is not None and study_jobs < 1:
        raise ValueError(f"study_jobs must be >= 1, got {study_jobs}")

    if cache_dir is None:
        cache_dir = env.get("REPRO_CACHE_DIR") or None
    if telemetry_dir is None:
        telemetry_dir = env.get("REPRO_TELEMETRY_DIR") or None
    return EngineOptions(
        cache_dir=str(cache_dir) if cache_dir else None,
        telemetry_dir=str(telemetry_dir) if telemetry_dir else None,
        study_jobs=study_jobs,
    )
