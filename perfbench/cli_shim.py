"""Traced stand-in for `python -m transposim.cli`.

Usage: python3 cli_shim.py STATS_JSON [transposim CLI arguments...]

Imports the CLI, installs the tracer, runs `transposim.cli.main` on the given
arguments and writes the span statistics and the import time to STATS_JSON.
Exit code, stdout and stderr are those of the CLI: an uncaught exception
still ends in a traceback and exit code 1.
"""

import json
import sys
import time

from tracer import Tracer


def _run() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import transposim.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        doc = tracer.dump()
        doc["import_s"] = import_s
        with open(stats_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(_run())
