"""Run the ``repro`` command line with a span around every layer call.

Usage: ``PERFBENCH_SPANS=spans.json python traced_child.py <repro arguments>``.
Behaves like ``python -m repro <repro arguments>`` and, when the command
returns (``repro serve`` returns after SIGTERM), writes its spans to the
file named by ``PERFBENCH_SPANS``.
"""

import os
import sys

from attribution import Recorder, install

recorder = Recorder()
with recorder.span("setup.import"):
    import repro.cli

    install(recorder)
try:
    code = repro.cli.main(sys.argv[1:])
finally:
    recorder.dump(os.environ["PERFBENCH_SPANS"])
sys.exit(code)
