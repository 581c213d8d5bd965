"""The simulation engine: backend dispatch + result caching in one place.

:class:`SimulationEngine` is what the execution stack (experiment runner,
CLI, API session, benchmark harness) drives instead of a bare
:class:`~repro.simulation.cycle_sim.LayerSimulator`.  It owns three things:

* a :class:`~repro.engine.backend.SimulationBackend` that decides *how*
  layers execute (the readable reference oracle or the bit-packed
  vectorized fast path);
* an optional result-cache stack that skips layers whose (config, trace,
  backend) triple has been simulated before — a content-addressed
  :class:`~repro.engine.cache.ResultCache` on disk, an in-process memo
  (``memory_cache=True``, used by :class:`repro.api.Session` so repeated
  requests in one session never re-simulate), or both layered;
* an :class:`EngineStats` record of what happened, which reports surface.

One engine serves any number of accelerator configurations: every
``simulate_layers`` call may carry its own ``config`` (and sampling
parameters), and the engine keeps one :class:`LayerSimulator` per
configuration fingerprint.  This is what lets a long-lived session run
simulate/sweep/explore/roofline workloads through a single backend,
one cache namespace and one set of counters.

The engine guarantees order preservation: results come back in trace
order whether they were cache hits or freshly simulated.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import AcceleratorConfig
from repro.engine.backend import SimulationBackend, get_backend, traced_layers
from repro.engine.cache import (
    ResultCache,
    config_fingerprint,
    layer_key,
    trace_fingerprint,
)
from repro.simulation.cycle_sim import LayerResult, LayerSimulator
from repro.telemetry import metrics as _metrics
from repro.telemetry.tracing import get_tracer


@dataclass
class EngineStats:
    """Counters describing one engine's activity (reset per engine).

    ``cache_hits`` is the aggregate across the whole cache stack;
    ``memo_hits`` / ``disk_hits`` attribute every hit to the tier that
    served it (in-process memo, on-disk cache).
    """

    backend: str
    cache_dir: Optional[str] = None
    layers_simulated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0
    disk_hits: int = 0

    @property
    def layers_total(self) -> int:
        """Layers served, whether simulated or loaded from cache."""
        return self.cache_hits + self.layers_simulated

    @property
    def hit_rate(self) -> float:
        """Fraction of cache lookups that hit (0.0 with caching disabled)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot for reports and benchmark emitters."""
        return {
            "backend": self.backend,
            "cache_dir": self.cache_dir,
            "layers_simulated": self.layers_simulated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "hit_rate": self.hit_rate,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineStats":
        """Rebuild counters from an :meth:`as_dict` document.

        Derived fields (``hit_rate``) and unknown keys are ignored, so
        documents from newer writers — and the keys older writers emitted
        for the retired worker-pool and shared-tier features — still
        load.
        """
        cache_dir = payload.get("cache_dir")
        return cls(
            backend=str(payload.get("backend", "vectorized")),
            cache_dir=str(cache_dir) if cache_dir else None,
            layers_simulated=int(payload.get("layers_simulated", 0)),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
            memo_hits=int(payload.get("memo_hits", 0)),
            disk_hits=int(payload.get("disk_hits", 0)),
        )

    def snapshot(self) -> "EngineStats":
        """An independent copy of the current counters."""
        return replace(self)

    def absorb(self, other: "EngineStats") -> None:
        """Add another record's counters into this one, exactly.

        Metadata (backend, cache_dir) is kept from ``self``; every counter — including the per-tier hit attribution
        — is summed, so aggregating N worker deltas reproduces the
        totals a single engine doing all the work would have recorded.
        """
        self.layers_simulated += other.layers_simulated
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.memo_hits += other.memo_hits
        self.disk_hits += other.disk_hits

    def since(self, earlier: "EngineStats") -> "EngineStats":
        """The activity between an earlier :meth:`snapshot` and now.

        Metadata (backend, cache_dir) comes from ``self``; the
        counters are differences.  This is how a shared long-lived engine
        reports per-request work.
        """
        return EngineStats(
            backend=self.backend,
            cache_dir=self.cache_dir,
            layers_simulated=self.layers_simulated - earlier.layers_simulated,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            memo_hits=self.memo_hits - earlier.memo_hits,
            disk_hits=self.disk_hits - earlier.disk_hits,
        )


class SimulationEngine:
    """Backend-pluggable, cache-aware driver for layer simulations.

    Parameters
    ----------
    config:
        Default accelerator configuration (Table 2 defaults when
        omitted).  Individual ``simulate_layers`` calls may override it.
    backend:
        Backend name (``"reference"`` or ``"vectorized"``) or a
        :class:`SimulationBackend` instance.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables the
        disk layer.  Entries are keyed by (config hash, trace hash,
        backend), so any change to the accelerator configuration —
        including the memory-hierarchy bandwidth/capacity parameters —
        the sampling parameters, the traced operands or the backend
        invalidates them structurally; results simulated under different
        hierarchies can never collide.
    max_groups / max_batch:
        Default stream-sampling parameters, forwarded to the layer
        simulator (and folded into the cache key).  Overridable per call.
    memory_cache:
        Keep every result in an in-process memo keyed identically to the
        disk cache.  This is what makes a warm :class:`repro.api.Session`
        serve repeated requests without re-simulating — even with no
        ``cache_dir`` configured.  Memo hits count as cache hits in
        :attr:`stats`.
    """

    def __init__(
        self,
        config: Optional[AcceleratorConfig] = None,
        backend: Union[str, SimulationBackend, None] = "vectorized",
        cache_dir: Optional[str] = None,
        max_groups: Optional[int] = 256,
        max_batch: Optional[int] = 4,
        memory_cache: bool = False,
    ):
        self.config = config or AcceleratorConfig()
        self.backend = get_backend(backend)
        self.max_groups = max_groups
        self.max_batch = max_batch
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self._memo: Optional[Dict[str, LayerResult]] = {} if memory_cache else None
        self._simulators: Dict[str, LayerSimulator] = {}
        self.stats = EngineStats(
            backend=self.backend.name,
            cache_dir=str(cache_dir) if cache_dir else None,
        )
        # The default-config simulator, eagerly built for back-compat
        # (callers that read ``engine.simulator`` directly).
        self.simulator = self.simulator_for(self.config)

    # ------------------------------------------------------------------
    def _resolve(
        self,
        config: Optional[AcceleratorConfig],
        max_groups: Optional[int],
        max_batch: Optional[int],
    ) -> Tuple[LayerSimulator, str]:
        """The (simulator, config fingerprint) pair for one call's inputs."""
        config = self.config if config is None else config
        max_groups = self.max_groups if max_groups is None else max_groups
        max_batch = self.max_batch if max_batch is None else max_batch
        fingerprint = config_fingerprint(config, max_groups, max_batch)
        simulator = self._simulators.get(fingerprint)
        if simulator is None:
            simulator = LayerSimulator(
                config, max_groups=max_groups, max_batch=max_batch,
                backend=self.backend,
            )
            self._simulators[fingerprint] = simulator
        return simulator, fingerprint

    def simulator_for(
        self,
        config: Optional[AcceleratorConfig] = None,
        max_groups: Optional[int] = None,
        max_batch: Optional[int] = None,
    ) -> LayerSimulator:
        """The layer simulator bound to one configuration (built once)."""
        simulator, _ = self._resolve(config, max_groups, max_batch)
        return simulator

    @contextmanager
    def disk_cache(self, cache_dir):
        """Temporarily attach an on-disk cache layer (no-op if one exists).

        Used by sessions whose engine was built without a ``cache_dir``
        when a workflow brings its own persistence — e.g. a study's
        ``<study_dir>/cache`` — so interrupted studies still resume with
        layer-level disk hits in a fresh process.  The engine's own
        configuration wins when set; results stored while attached also
        land in the memo, so nothing is lost on detach.
        """
        if cache_dir is None or self.cache is not None:
            yield self
            return
        previous_label = self.stats.cache_dir
        self.cache = ResultCache(cache_dir)
        self.stats.cache_dir = str(cache_dir)
        try:
            yield self
        finally:
            self.cache = None
            self.stats.cache_dir = previous_label

    def _lookup(self, key: str) -> Optional[LayerResult]:
        """Read through the cache stack: memo -> disk.

        Disk hits are promoted into the memo, so repeated lookups in one
        process stop re-reading files.  Per-tier hit counters land in
        :attr:`stats`; the aggregate ``cache_hits`` is maintained by the
        caller.
        """
        if self._memo is not None:
            hit = self._memo.get(key)
            if hit is not None:
                self.stats.memo_hits += 1
                return hit
        if self.cache is not None:
            loaded = self.cache.load(key)
            if loaded is not None:
                self.stats.disk_hits += 1
                if self._memo is not None:
                    # Promote disk hits so repeated requests in one session
                    # stop re-reading and re-parsing the cache files.
                    self._memo[key] = loaded
            return loaded
        return None

    def _store(self, key: str, result: LayerResult) -> None:
        if self._memo is not None:
            self._memo[key] = result
        if self.cache is not None:
            self.cache.store(key, result)

    # ------------------------------------------------------------------
    def simulate_layer(self, trace, config: Optional[AcceleratorConfig] = None) -> LayerResult:
        """Simulate (or load) one traced layer."""
        results = self.simulate_layers([trace], config=config)
        if not results:
            raise ValueError(
                f"layer {trace.layer_name!r} has no operand masks to simulate"
            )
        return results[0]

    def simulate_layers(
        self,
        traces: Sequence,
        config: Optional[AcceleratorConfig] = None,
        max_groups: Optional[int] = None,
        max_batch: Optional[int] = None,
    ) -> List[LayerResult]:
        """Simulate every traced layer, consulting the cache stack first.

        ``config`` / ``max_groups`` / ``max_batch`` default to the
        engine's construction-time values; passing them lets one engine
        serve many accelerator configurations (each gets its own
        simulator and cache namespace, all sharing the backend, memo and
        counters).

        Cache hits are loaded; misses are batched into one
        ``backend.simulate_layers`` call (so the vectorized backend fuses
        only the layers that actually need simulating), stored, and merged
        back in trace order.
        """
        work = traced_layers(traces)
        simulator, config_fp = self._resolve(config, max_groups, max_batch)
        tracer = get_tracer()
        if self.cache is None and self._memo is None:
            with tracer.span(
                "engine.simulate_layers",
                backend=self.backend.name, layers=len(work),
            ):
                results = self.backend.simulate_layers(simulator, work)
            self.stats.layers_simulated += len(results)
            if results:
                _metrics.LAYERS_SIMULATED.inc(
                    len(results), backend=self.backend.name
                )
            return results

        slots: List[Optional[LayerResult]] = [None] * len(work)
        misses: List[int] = []
        keys: List[str] = [
            layer_key(config_fp, trace_fingerprint(trace), self.backend.name)
            for trace in work
        ]
        tiers_before = (self.stats.memo_hits, self.stats.disk_hits)
        with tracer.span("engine.cache_lookup", layers=len(work)) as span:
            for index, key in enumerate(keys):
                cached = self._lookup(key)
                if cached is None:
                    misses.append(index)
                else:
                    slots[index] = cached
            span.set(hits=len(work) - len(misses), misses=len(misses))
        self.stats.cache_hits += len(work) - len(misses)
        self.stats.cache_misses += len(misses)
        # Feed the process-wide registry the same per-call deltas the
        # stats counters record — one increment per tier per batch, so
        # the hot per-layer lookup loop stays untouched.
        for tier, before, now in zip(
            ("memo", "disk"), tiers_before,
            (self.stats.memo_hits, self.stats.disk_hits),
        ):
            if now > before:
                _metrics.CACHE_HITS.inc(now - before, tier=tier)
        if misses:
            _metrics.CACHE_MISSES.inc(len(misses))
            with tracer.span(
                "engine.simulate_layers",
                backend=self.backend.name, layers=len(misses),
            ):
                fresh = self.backend.simulate_layers(
                    simulator, [work[i] for i in misses]
                )
            self.stats.layers_simulated += len(fresh)
            if fresh:
                _metrics.LAYERS_SIMULATED.inc(
                    len(fresh), backend=self.backend.name
                )
            for index, result in zip(misses, fresh):
                self._store(keys[index], result)
                slots[index] = result
        return [result for result in slots if result is not None]
