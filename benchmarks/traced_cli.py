"""Run the tauber CLI with every layer traced, for the cli_rerun workload.

    PYTHONPATH=src python3 benchmarks/traced_cli.py EXPORT.json run <scenario> ...

Imports the CLI, notes when the import finished (CLOCK_MONOTONIC, so the
parent can subtract its spawn time), installs the tracer, runs the CLI's
`main` as one traced operation and writes the tracer's aggregates and
spans to EXPORT.json.  Exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

import tauber.cli

import_done = time.monotonic()

from tracing import Tracer  # noqa: E402 -- imported after the timed import

tracer = Tracer()
tracer.install()
with tracer.op(0):
    code = tauber.cli.main(sys.argv[2:])
Path(sys.argv[1]).write_text(json.dumps({**tracer.export(), "import_done": import_done}))
sys.exit(code)
