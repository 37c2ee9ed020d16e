"""``repro serve`` with the benchmark's span wrappers installed.

    PYTHONPATH=src python perfbench/serve.py --spans OUT.jsonl.gz \\
        serve RUN_DIR --port 0 --window 4 --step 2

Everything after ``--spans OUT`` is passed to the ``repro`` command
line unchanged.  On SIGINT the server shuts down as ``repro serve``
does, and the spans recorded in this process are written to ``OUT``.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve.py --spans OUT serve RUN_DIR [options]",
              file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    with Tracer() as tracer:
        status = repro_main(argv[2:])
    tracer.dump(argv[1])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
