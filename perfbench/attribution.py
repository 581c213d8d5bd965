"""Spans around repro's public functions, and self-time attribution.

The benchmark never edits ``src/``: it records a span around each call
into a layer by replacing that layer's public function with a timing
wrapper (:func:`install`), in this process or in a child started through
``traced_child.py``.  Every span is ``(name, start, end, attrs)`` on
``time.monotonic()``, which on Linux is the system-wide monotonic clock,
so spans written by a child line up with the parent's own spans.

:func:`attribute` turns spans into per-layer self times: a span's self
time is its duration minus the time covered by the spans nested inside
it.  Self times plus the time no span covers (``unattributed``) add up to
the measured wall time; spans that overlap without nesting make the
attribution fail instead of double-counting.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.monotonic


@dataclass
class Span:
    name: str
    start: float
    end: float
    attrs: Dict[str, float] = field(default_factory=dict)


class Recorder:
    """Spans kept in memory until the run ends (appends are thread-safe)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        start = clock()
        try:
            yield
        finally:
            self.spans.append(Span(name, start, clock()))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([[s.name, s.start, s.end, s.attrs] for s in self.spans], handle)


def load_spans(path: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(name, start, end, attrs) for name, start, end, attrs in json.load(handle)]


# ----------------------------------------------------------------------
# patching public functions


def patch(module_name: str, qualname: str, make_wrapper: Callable) -> Callable[[], None]:
    """Replace ``module.qualname`` with ``make_wrapper(original)``.

    Modules that imported the function by name (``from m import f``) get
    the wrapper too.  Returns a callable that restores every original.
    """
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = owner.__dict__[attr]
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    restores = [lambda: setattr(owner, attr, original)]
    if not owner_name:
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if name.startswith("repro.") and other is not module and \
                    other.__dict__.get(attr) is original:
                setattr(other, attr, wrapper)
                restores.append(lambda other=other: setattr(other, attr, original))

    def restore() -> None:
        for undo in reversed(restores):
            undo()

    return restore


def _engine_counts(args) -> Tuple[int, ...]:
    stats = args[0].stats
    return (stats.layers_simulated, stats.cache_hits, stats.cache_misses,
            stats.memo_hits, stats.disk_hits)


def _engine_attrs(before, args, result) -> Dict[str, float]:
    after = _engine_counts(args)
    names = ("layers_simulated", "hits", "misses", "memo_hits", "disk_hits")
    return {name: b - a for name, a, b in zip(names, before, after)}


def _explore_attrs(before, args, result) -> Dict[str, float]:
    return {"points": len(result.points)}


#: (module, function, span name, counter probe before the call, attrs after).
LAYERS: Sequence[Tuple[str, str, str, Optional[Callable], Optional[Callable]]] = (
    ("repro.api.session", "Session.submit", "api.submit", None, None),
    ("repro.models.registry", "trace_workload", "training.trace", None, None),
    ("repro.core.accelerator", "Accelerator.run_operations_batched", "core.schedule", None, None),
    ("repro.simulation.cycle_sim", "LayerSimulator.streams_for_trace", "simulation.streams", None, None),
    ("repro.simulation.cycle_sim", "LayerSimulator.finalize_layer", "simulation.finalize", None, None),
    ("repro.memory.hierarchy", "MemoryHierarchy.constrain", "memory.constrain", None, None),
    ("repro.engine.engine", "SimulationEngine.simulate_layers", "engine", _engine_counts, _engine_attrs),
    ("repro.engine.cache", "ResultCache.load", "cache.load", None, None),
    ("repro.engine.cache", "ResultCache.store", "cache.store", None, None),
    ("repro.explore.runner", "StudyRunner.run", "explore", None, _explore_attrs),
    ("repro.simulation.runner", "ExperimentRunner.energy_report", "energy.report", None, None),
    ("repro.scale.runner", "ScaleRunner.run", "scale", None, None),
)


def _timed(recorder: Recorder, name: str, probe, describe):
    def make(original):
        def wrapper(*args, **kwargs):
            before = probe(args) if probe else None
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
            attrs = describe(before, args, result) if describe else {}
            recorder.spans.append(Span(name, start, end, attrs))
            return result
        return wrapper
    return make


def install(recorder: Recorder) -> Callable[[], None]:
    """Record a span around every call into :data:`LAYERS`; returns uninstall."""
    restores = [
        patch(module, qualname, _timed(recorder, name, probe, describe))
        for module, qualname, name, probe, describe in LAYERS
    ]

    def uninstall() -> None:
        for restore in reversed(restores):
            restore()

    return uninstall


# ----------------------------------------------------------------------
# attribution


class AttributionError(ValueError):
    """Spans overlap without nesting, or do not add up to the wall time."""


def attribute(spans: Iterable[Span], windows: Sequence[Tuple[float, float]]):
    """Self seconds per span name inside the timed ``windows``.

    Returns ``(self_seconds, counts, attrs, unattributed, wall)``: the
    self time and call count per span name, the summed ``attrs`` per span
    name, the part of the windows no span covers, and the windows' total
    length.  Spans outside every window are ignored.
    """
    inside = sorted(
        (s for s in spans if any(w0 <= s.start and s.end <= w1 for w0, w1 in windows)),
        key=lambda s: (s.start, -s.end),
    )
    self_seconds: Dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    attrs: Dict[str, Counter] = defaultdict(Counter)
    stack: List[list] = []   # [span, seconds covered by its children]
    roots = 0.0

    def close() -> None:
        nonlocal roots
        span, covered = stack.pop()
        duration = span.end - span.start
        self_seconds[span.name] += duration - covered
        if stack:
            stack[-1][1] += duration
        else:
            roots += duration

    for span in inside:
        while stack and stack[-1][0].end <= span.start:
            close()
        if stack and span.end > stack[-1][0].end:
            raise AttributionError(
                f"span {span.name!r} overlaps {stack[-1][0].name!r} without nesting"
            )
        counts[span.name] += 1
        attrs[span.name].update(span.attrs)
        stack.append([span, 0.0])
    while stack:
        close()
    wall = sum(w1 - w0 for w0, w1 in windows)
    unattributed = wall - roots
    total = sum(self_seconds.values()) + unattributed
    if unattributed < -1e-9 or abs(total - wall) > 1e-9 * max(1.0, wall):
        raise AttributionError(
            f"self times {sum(self_seconds.values()):.9f} s + unattributed "
            f"{unattributed:.9f} s != wall {wall:.9f} s"
        )
    return dict(self_seconds), counts, attrs, unattributed, wall
