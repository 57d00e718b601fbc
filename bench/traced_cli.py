"""Serve one CLI request under the tracer: the traced form of a cli_cold request.

    python3 -X importtime bench/traced_cli.py SUMMARY.json VERB [ARGS...]

Prints exactly what ``python -m manirep VERB [ARGS...]`` prints and exits
with the same code; the trace summary of the request goes to SUMMARY.json.
"""

import json
import sys
from pathlib import Path

import manirep.cli as cli

import tracer


def main() -> int:
    tr = tracer.Tracer()
    tr.install()
    rc = tr.run_request(0, lambda: cli.main(sys.argv[2:]))
    Path(sys.argv[1]).write_text(json.dumps(tracer.summary(tr)))
    return rc


if __name__ == "__main__":
    sys.exit(main())
