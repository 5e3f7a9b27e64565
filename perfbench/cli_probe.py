"""Run one zimin CLI command under the span tracer.

    python3 perfbench/cli_probe.py SPANS_OUT ARG...

Behaves as ``python -m zimin.cli ARG...`` (same output and exit code) and
writes the import time and the spans of the command to SPANS_OUT as JSON.
The traced cli workload runs it in place of the plain CLI.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import zimin.cli  # noqa: E402

IMPORT_MS = (perf_counter() - t0) * 1000.0

import json  # noqa: E402

import tracing  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.recording = True
    try:
        return zimin.cli.main(argv)
    finally:
        tracer.recording = False
        dump = tracer.dump()
        dump["import_ms"] = IMPORT_MS
        with open(out_path, "w") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main())
