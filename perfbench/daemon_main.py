"""Start a ``patternlet`` command with the layer wrappers installed.

Usage: ``python3 perfbench/daemon_main.py TRACE_DIR serve [options]``.
The wrappers go in before ``repro.cli.main`` runs, and this process's
spans are written to TRACE_DIR when the command returns (for ``serve``,
after SIGTERM has drained the daemon).
"""

import sys
from pathlib import Path

import tracer


def main() -> int:
    tracer.install(Path(sys.argv[1]))
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
