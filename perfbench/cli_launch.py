"""Runs one gausscvx CLI command the way the console script does.

    PYTHONPATH=src python3 perfbench/cli_launch.py <gausscvx arguments>

With ``PERFBENCH_TRACE_OUT=FILE`` set, it first installs the benchmark's
layer wrappers, records the import as its own span, runs the command as
one traced request and writes the trace summary to FILE.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def main(argv) -> int:
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    if not trace_out:
        from gausscvx.cli import main as cli_main

        return cli_main(argv)

    t0 = time.perf_counter()
    import gausscvx.cli as cli

    t_import = time.perf_counter() - t0
    import tracer as tr  # this script's directory is first on sys.path

    tracer = tr.Tracer()
    tr.install(tracer)
    tracer.add_import(t_import)
    try:
        with tracer.request(" ".join(argv)):
            return cli.main(argv)
    finally:
        Path(trace_out).write_text(json.dumps(tracer.summary()), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
