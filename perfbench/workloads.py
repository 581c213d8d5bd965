"""The workloads, each driving repro through a public entry point.

``cli_warm``  fresh ``python -m repro simulate`` processes on a warm disk cache.
``serve``     one closed-loop client connection to a ``repro serve`` process.

Each workload repeats a *unit* of fixed work (a pass over the models, one
request-mix cycle).  A run makes ``--seconds`` divided by the
unit's nominal length units: about ``--seconds`` of work on a 2-CPU host,
and the same work on every commit, so sample counts and tail percentiles
stay comparable when the code gets faster.  The unit's content comes from
the seed alone.  A traced run alternates untraced and traced units
(``serve``: an untraced then a traced server) to report the tracing
overhead; end-to-end numbers come only from untraced runs.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import attribution
from attribution import Recorder, Span, attribute, clock, load_spans
from measure import (Capture, Tally, op_failed, proc_cpu_s, proc_peak_rss_mb,
                     results_digest, tail, tier_shares)

HERE = Path(__file__).resolve().parent

#: Span name -> per-layer self-time metric.  Every span must map to one.
SELF_METRICS = {
    "setup.import": "setup.import_s",
    "cli": "cli.self_s",
    "client": "client.self_s",
    "api.submit": "api.submit_self_s",
    "training.trace": "training.trace_s",
    "core.schedule": "core.schedule_s",
    "simulation.streams": "simulation.streams_s",
    "simulation.finalize": "simulation.finalize_s",
    "memory.constrain": "memory.constrain_s",
    "engine": "engine.self_s",
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "explore": "explore.self_s",
    "energy.report": "energy.report_s",
    "scale": "scale.self_s",
}


def child_env(root: Path) -> Dict[str, str]:
    """Environment for the processes the benchmark launches.

    ``REPRO_*`` variables are dropped so the caller's shell cannot change
    engine options under the benchmark.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Workload:
    """Shared unit loop, end-to-end metrics and per-layer attribution."""

    name = ""
    #: Seconds one unit takes on a 2-CPU host; sets the units per run.
    nominal_unit_s = 1.0
    #: Units every run completes (a traced run needs one of each kind).
    min_units = 2

    def __init__(self, root: Path, work: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(f"{self.name}:{seed}")
        self.env = child_env(root)
        self.tally = Tally()
        self.recorder = Recorder()
        #: (start, end, cpu seconds, traced) per timed unit.
        self.units: List[Tuple[float, float, float, bool]] = []
        #: Untraced request latencies.
        self.latencies: List[float] = []
        self.report: Dict[str, object] = {}
        self.setup_s = 0.0
        self.peak_rss_mb = 0.0

    # -- to override ---------------------------------------------------
    def run(self) -> Dict[str, float]:
        raise NotImplementedError

    # -- shared --------------------------------------------------------
    def unit_count(self, seconds: float) -> int:
        return max(self.min_units, round(seconds / self.nominal_unit_s))

    def drive(self, unit, seconds: float, traced_too: bool) -> None:
        """Run ``unit(traced)`` for about ``seconds``; every second unit is
        traced when ``traced_too``."""
        for done in range(self.unit_count(seconds)):
            unit(traced_too and done % 2 == 1)

    def end_to_end(self) -> Dict[str, float]:
        walls = [end - start for start, end, _, traced in self.units if not traced]
        cpu = [c for _, _, c, traced in self.units if not traced]
        tail_s, percentile, samples = tail(self.latencies)
        self.report.update(request_tail_percentile=percentile, request_samples=samples,
                           units=len(walls))
        return {
            "setup_s": self.setup_s,
            "wall_s": statistics.median(walls),
            "request_p50_s": statistics.median(self.latencies),
            "request_tail_s": tail_s,
            "ops_per_s": samples / sum(walls),
            "cpu_s": sum(cpu) / len(cpu),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self, spans: List[Span], extra: Optional[Dict[str, float]] = None):
        windows = [(start, end) for start, end, _, traced in self.units if traced]
        untraced = [end - start for start, end, _, traced in self.units if not traced]
        self_s, counts, attrs, unattributed, wall = attribute(spans, windows)
        unknown = set(self_s) - set(SELF_METRICS)
        if unknown:
            raise attribution.AttributionError(f"spans with no metric: {sorted(unknown)}")
        n = len(windows)
        engine = attrs["engine"]
        lookups = engine["hits"] + engine["misses"]
        metrics = {metric: self_s.get(span, 0.0) / n for span, metric in SELF_METRICS.items()}
        metrics.update({
            "training.traces": counts["training.trace"] / n,
            "core.batches": counts["core.schedule"] / n,
            "engine.layers_simulated": engine["layers_simulated"] / n,
            "engine.hit_ratio": engine["hits"] / lookups if lookups else 0.0,
            "engine.memo_hits": engine["memo_hits"] / n,
            "engine.disk_hits": engine["disk_hits"] / n,
            "cache.loads": counts["cache.load"] / n,
            "cache.stores": counts["cache.store"] / n,
            "explore.points": attrs["explore"]["points"] / n,
            "service.overhead_s": 0.0,
            "jobs.queue_wait_s": 0.0,
            "jobs.run_s": 0.0,
            "jobs.polls_per_job": 0.0,
            "unattributed_s": unattributed / n,
            "traced_wall_s": wall / n,
            "trace_overhead_frac": (wall / n) / (sum(untraced) / len(untraced)) - 1.0,
        })
        metrics.update(extra or {})
        self.report.update(traced_units=n, untraced_units=len(untraced))
        return metrics


# ----------------------------------------------------------------------
# cli_warm

#: Every model of the zoo, so the input neither hides nor leans on the
#: two ResNet-50 variants that share one trace at the CLI defaults.
ZOO = ("alexnet", "densenet121", "gcn", "img2txt", "resnet50", "resnet50_DS90",
       "resnet50_SM90", "snli", "squeezenet", "vgg16")


class CliWarm(Workload):
    """Fresh ``repro simulate`` processes, each a 100% disk-cache hit.

    Set-up is the cold pass over the same models that fills the cache, so
    ``setup_s`` is the cold CLI path.  It runs once per run: it is ten
    process launches already, and each repeat would cost another ~10 s.
    """

    name = "cli_warm"
    nominal_unit_s = 9.5
    #: Three passes are 30 requests, which puts the tail above the median.
    min_units = 3

    def run(self) -> Dict[str, float]:
        self.order = self.rng.sample(ZOO, len(ZOO))
        self.train_seed = self.rng.randrange(1000)
        self.cache = self.work / "cache"
        self.cold: Dict[str, Optional[dict]] = {}
        start = clock()
        cold_engine = {}
        for model in self.order:
            code, envelope, *_ = self.spawn(model, traced=False)
            self.tally.record(op_failed(exit_code=code), f"{model}: cold exit {code}")
            self.cold[model] = envelope
            cold_engine[model] = envelope["engine"] if envelope else {}
        self.setup_s = clock() - start
        self.warm_engine: List[dict] = []
        self.drive(self.unit, self.seconds, self.trace)
        self.verify()
        self.report["cold_pass"] = tier_shares(cold_engine.values())
        self.report["cold_layers_simulated"] = {
            model: delta.get("layers_simulated") for model, delta in cold_engine.items()
        }
        self.report["warm_pass"] = tier_shares(self.warm_engine)
        if self.trace:
            return self.per_layer(self.recorder.spans)
        return self.end_to_end()

    def spawn(self, model: str, traced: bool):
        """One CLI process: ``(exit code, envelope, start, end, rusage)``."""
        argv = ["simulate", model, "--cache-dir", str(self.cache), "--format", "json",
                "--seed", str(self.train_seed)]
        env = self.env
        if traced:
            spans_path = self.work / "child-spans.json"
            env = dict(env, PERFBENCH_SPANS=str(spans_path))
            command = [sys.executable, str(HERE / "traced_child.py")] + argv
        else:
            command = [sys.executable, "-m", "repro"] + argv
        out_path = self.work / "child.out"
        with open(out_path, "wb") as out:
            start = clock()
            proc = subprocess.Popen(command, stdout=out, stderr=subprocess.DEVNULL,
                                    env=env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            end = clock()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        envelope = json.loads(out_path.read_text()) if code == 0 else None
        if traced:
            self.recorder.spans.append(Span("cli", start, end))
            if code == 0:
                self.recorder.spans.extend(load_spans(str(spans_path)))
        return code, envelope, start, end, usage

    def unit(self, traced: bool) -> None:
        cpu = 0.0
        unit_start = clock()
        for model in self.order:
            code, envelope, start, end, usage = self.spawn(model, traced)
            reference = self.cold[model]
            matches = (envelope is not None and reference is not None
                       and envelope["result"] == reference["result"])
            self.tally.record(op_failed(exit_code=code, matches=matches),
                              f"{model}: exit {code} or warm result differs")
            cpu += usage.ru_utime + usage.ru_stime
            if not traced:
                self.latencies.append(end - start)
                self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
                if envelope is not None and len(self.warm_engine) < len(self.order):
                    self.warm_engine.append(envelope["engine"])
        self.units.append((unit_start, clock(), cpu, traced))

    def verify(self) -> None:
        """Replay every model in-process on the same cache, capturing the
        engine's results for the digest; each must equal the cold result."""
        from repro.api import Session

        capture = Capture()
        session = Session(cache_dir=str(self.cache), max_cached_traces=1)
        with capture.active():
            for model in self.order:
                result = session.simulate(model, seed=self.train_seed).to_dict()["result"]
                reference = self.cold[model]
                matches = reference is not None and result == reference["result"]
                self.tally.record(op_failed(matches=matches), f"{model}: in-process differs")
        self.report["results_digest"] = results_digest(capture.records)
        self.report["input"] = capture.trace_properties()


# ----------------------------------------------------------------------
# serve

JOB_TERMINAL = ("succeeded", "failed", "cancelled")
#: Client sleep between job-status polls.
POLL_S = 0.005


class Server:
    """A ``repro serve --port 0`` process on a fresh disk cache, and one
    keep-alive connection."""

    def __init__(self, workload: "Serve", traced: bool, tag: str):
        self.spans_path = workload.work / f"server-{tag}-spans.json"
        out = workload.work / f"server-{tag}.out"
        argv = ["serve", "--port", "0", "--cache-dir", str(workload.work / f"cache-{tag}")]
        env = workload.env
        if traced:
            env = dict(env, PERFBENCH_SPANS=str(self.spans_path))
            command = [sys.executable, str(HERE / "traced_child.py")] + argv
        else:
            command = [sys.executable, "-m", "repro"] + argv
        with open(out, "wb") as handle, open(workload.work / f"server-{tag}.err", "wb") as err:
            self.proc = subprocess.Popen(command, stdout=handle, stderr=err, env=env,
                                         cwd=workload.root)
        try:
            port = self._wait_for_port(out)
            self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            status, _ = self.call("GET", "/v1/health")
            if status != 200:
                raise RuntimeError(f"/v1/health answered {status}")
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, out: Path) -> int:
        deadline = clock() + 60
        while clock() < deadline:
            found = re.search(r"serving on http://[^:]+:(\d+)", out.read_text())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            time.sleep(0.01)
        raise RuntimeError("repro serve did not report its port within 60 s")

    def call(self, method: str, path: str, body: Optional[dict] = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        raw = response.read()
        return response.status, (json.loads(raw) if raw else None)

    def follow_job(self, body: dict):
        """Submit a job and poll it to its result: ``(ok, result, record, polls)``."""
        status, record = self.call("POST", "/v1/jobs", body)
        if status != 202:
            return False, None, record, 0
        path = f"/v1/jobs/{record['job_id']}"
        polls = 0
        while record.get("state") not in JOB_TERMINAL:
            time.sleep(POLL_S)
            status, record = self.call("GET", path)
            polls += 1
            if status != 200:
                return False, None, record, polls
        status, result = self.call("GET", path + "/result")
        ok = status == 200 and result.get("state") == "succeeded"
        return ok, result.get("result") if ok else None, record, polls

    def stop(self) -> None:
        if getattr(self, "conn", None) is not None:
            self.conn.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _canonical(result: dict) -> dict:
    """A result document without its engine-stats delta (differs warm vs cold)."""
    result = dict(result)
    if "study" in result:
        result["study"] = {k: v for k, v in result["study"].items() if k != "engine"}
    return result


class Serve(Workload):
    """Blocking simulate/roofline/scale requests on warm traces, plus
    asynchronous snli sweep jobs over new DRAM-bandwidth values.

    The sweeps simulate new layers every cycle and store them in the
    server's disk cache, so this workload also carries the engine's
    write path (``cli_warm`` carries its read path).
    """

    name = "serve"
    nominal_unit_s = 0.9
    setups = 3

    def run(self) -> Dict[str, float]:
        rng = self.rng
        seed = rng.randrange(1000)
        self.blocking = [
            {"kind": "simulate", "model": model, "seed": seed}
            for model in ("snli", "squeezenet", "alexnet")
        ] + [
            {"kind": "roofline", "model": model, "seed": seed,
             "dram_bandwidth_gbps": rng.choice([4.0, 8.0, 16.0, 32.0])}
            for model in ("snli", "squeezenet")
        ] + [
            {"kind": "scale", "model": "squeezenet", "seed": seed,
             "num_devices": rng.choice([2, 4]), "partition": "data"},
            {"kind": "scale", "model": "snli", "seed": seed,
             "num_devices": 2, "partition": "pipeline"},
        ]
        self.sweep_seed = seed
        self.warm_sweep = self.sweep()
        self.references: Dict[int, dict] = {}
        self.first_cycle_jobs: List[Tuple[dict, Optional[dict]]] = []
        self.jobs: List[Tuple[float, float, int]] = []
        self.overhead_s = 0.0
        self.engine_deltas: List[dict] = []
        if self.trace:
            return self.run_traced()
        starts = []
        for _ in range(self.setups - 1):
            started = clock()
            server = self.start(traced=False)
            starts.append(clock() - started)
            server.stop()
        started = clock()
        server = self.start(traced=False)
        try:
            starts.append(clock() - started)
            self.setup_s = statistics.median(starts)
            self.timed(server, self.seconds, traced=False)
            self.peak_rss_mb = proc_peak_rss_mb(server.proc.pid)
            self.verify(server)
        finally:
            server.stop()
        self.report["timed_requests"] = tier_shares(self.engine_deltas)
        return self.end_to_end()

    def run_traced(self) -> Dict[str, float]:
        server = self.start(traced=False)
        try:
            self.timed(server, self.seconds / 2, traced=False)
            self.verify(server)
        finally:
            server.stop()
        server = self.start(traced=True)
        try:
            self.timed(server, self.seconds / 2, traced=True)
        finally:
            server.stop()
        spans = self.recorder.spans + load_spans(str(server.spans_path))
        cycles = sum(1 for unit in self.units if unit[3])
        self.report["timed_requests"] = tier_shares(self.engine_deltas)
        return self.per_layer(spans, {
            "service.overhead_s": self.overhead_s / cycles,
            "jobs.queue_wait_s": statistics.median(q for q, _, _ in self.jobs),
            "jobs.run_s": statistics.median(r for _, r, _ in self.jobs),
            "jobs.polls_per_job": sum(p for _, _, p in self.jobs) / len(self.jobs),
        })

    def sweep(self) -> dict:
        values = [round(self.rng.uniform(1.0, 64.0), 4) for _ in range(2)]
        return {"kind": "sweep", "model": "snli", "knob": "dram_bandwidth_gbps",
                "values": values, "seed": self.sweep_seed}

    def start(self, traced: bool) -> Server:
        """Launch a server and warm it: every blocking request once (its
        answer becomes the reference) and one sweep job."""
        server = Server(self, traced, f"{len(self.units)}-{clock():.6f}")
        try:
            for index, body in enumerate(self.blocking):
                status, envelope = server.call("POST", f"/v1/{body['kind']}", body)
                if status != 200:
                    raise RuntimeError(f"warm-up {body} answered {status}: {envelope}")
                reference = self.references.setdefault(index, envelope["result"])
                if reference != envelope["result"]:
                    self.tally.fail(f"{body['kind']} {body['model']}: servers disagree")
            ok, _, record, _ = server.follow_job(self.warm_sweep)
            if not ok:
                raise RuntimeError(f"warm-up sweep job failed: {record}")
        except BaseException:
            server.stop()
            raise
        return server

    def timed(self, server: Server, seconds: float, traced: bool) -> None:
        self.drive(lambda _: self.cycle(server, traced), seconds, False)

    def cycle(self, server: Server, traced: bool) -> None:
        ops = [("blocking", index) for index in range(len(self.blocking))] * 2
        ops += [("job", self.sweep()) for _ in range(2)]
        self.rng.shuffle(ops)
        first = not self.units
        cpu0 = proc_cpu_s(server.proc.pid)
        unit_start = clock()
        for kind, op in ops:
            start = clock()
            if kind == "blocking":
                body = self.blocking[op]
                status, envelope = server.call("POST", f"/v1/{body['kind']}", body)
                end = clock()
                ok = status == 200
                matches = ok and envelope["result"] == self.references[op]
                self.tally.record(op_failed(status=status, matches=matches),
                                  f"{body['kind']} {body['model']}: {status}")
                if ok and traced:
                    self.overhead_s += (end - start) - envelope["elapsed_seconds"]
                if ok and first:
                    self.engine_deltas.append(envelope["engine"])
            else:
                ok, result, record, polls = server.follow_job(op)
                end = clock()
                self.tally.record(not ok, f"sweep job {record}")
                if ok and traced:
                    self.jobs.append((record["started_s"] - record["created_s"],
                                      record["finished_s"] - record["started_s"], polls))
                if first:
                    self.first_cycle_jobs.append((op, result))
                    if ok:
                        self.engine_deltas.append(result["engine"])
            if traced:
                self.recorder.spans.append(Span("client", start, end))
            else:
                self.latencies.append(end - start)
        self.units.append((unit_start, clock(), proc_cpu_s(server.proc.pid) - cpu0, traced))

    def verify(self, server: Server) -> None:
        """Each blocking request again as a job, then everything again in
        an in-process ``Session`` (captured for the digest)."""
        from repro.api import Session
        from repro.api.schema import request_from_dict

        for index, body in enumerate(self.blocking):
            ok, envelope, record, _ = server.follow_job(body)
            matches = ok and envelope["result"] == self.references[index]
            self.tally.record(op_failed(matches=matches),
                              f"{body['kind']} {body['model']}: job differs from blocking")
        checks = [(body, self.references[i]) for i, body in enumerate(self.blocking)]
        checks += [(body, result["result"] if result else None)
                   for body, result in self.first_cycle_jobs]
        capture = Capture()
        session = Session()
        with capture.active():
            for body, served in checks:
                local = session.submit(request_from_dict(dict(body))).to_dict()["result"]
                matches = served is not None and _canonical(local) == _canonical(served)
                self.tally.record(op_failed(matches=matches),
                                  f"{body['kind']} {body['model']}: in-process differs")
        self.report["results_digest"] = results_digest(capture.records)
        self.report["input"] = capture.trace_properties()


WORKLOADS = {cls.name: cls for cls in (CliWarm, Serve)}
