"""Run one ``ellmassey`` CLI command with the benchmark's tracer installed.

Usage: python3 perfbench/traced_cli.py <ellmassey arguments...>

Stdout is the command's own. When the command ends, the spans and counts go
to stderr as one line prefixed with ``MARKER``, and the exit code is the
command's.
"""

import json
import sys

from spans import Tracer, install

MARKER = "perfbench-trace "


def main() -> int:
    tracer = Tracer()
    install(tracer)
    from ellmassey import cli

    try:
        rc = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(tracer.dump(), separators=(",", ":")) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
