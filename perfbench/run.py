"""Benchmark of the paths users run: ``cli_warm`` and ``serve``.

Usage, from the repository root::

    python3 perfbench/run.py --workload cli_warm --seed 1 --seconds 20 --trace 0

Times host wall clock through the public entry points (``python -m
repro``, ``repro serve`` over HTTP) and checks the outputs against
in-process ``repro.api.Session`` runs.  ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` prints its per-layer metrics, measured by
wrapping each layer's public functions from this directory (nothing in
``src/`` is instrumented).  The last stdout line is the result object;
the line before it is a report with the ``results_digest`` (every
simulated cycle and MAC count of the seed's inputs), the tail percentile
and its sample count, ``failed_fraction`` and the input properties.

Simulated cycles and speedups are checked outputs, not performance
metrics.  The model is unvalidated (the repository holds no hardware
reference), so no accuracy-error figure is reported.

Inputs come from ``--seed`` alone.  Seeds 1-10 were used while writing the
benchmark; re-check later claims on the held-out seed :data:`HELD_OUT_SEED`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HELD_OUT_SEED = 7919


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {root / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](root, work, args.seed, args.seconds, bool(args.trace))
        values = workload.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = contract["per_layer" if args.trace else "end_to_end"]
    if set(values) != {metric["name"] for metric in declared}:
        print(f"metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    tally = workload.tally
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "failed_fraction": tally.failed_fraction,
        "failures": tally.reasons,
        **workload.report,
    }, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
