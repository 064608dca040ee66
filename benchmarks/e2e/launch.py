"""Run the ``cryowire`` CLI in this process with the layer spans installed.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python -m benchmarks.e2e.launch --trace-out spans.json -- all --jobs 1 --timeout 0
    python -m benchmarks.e2e.launch --trace-out spans.json -- serve --port 0

The wrappers from :mod:`benchmarks.e2e.layers` are installed before
:func:`repro.experiments.cli.main` runs with the arguments after ``--``,
and removed after it returns. The spans, counts, the process-global
tech-context statistics and the window the CLI ran in are then written to
``--trace-out`` as JSON. ``serve`` returns on SIGTERM after its graceful
drain, so a traced server is stopped the same way as an untraced one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.launch")
    parser.add_argument("--trace-out", required=True, metavar="FILE")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    # Import every module the CLI can reach first, so install() sees each
    # ``from … import`` binding it has to replace.
    import repro.experiments.cli as cli
    import repro.serve  # noqa: F401
    from repro.tech.context import get_context

    from benchmarks.e2e.layers import TARGETS
    from benchmarks.e2e.trace import Recorder, install

    recorder = Recorder()
    installation = install(recorder, TARGETS)
    start = time.monotonic()
    try:
        code = cli.main(cli_args)
    finally:
        end = time.monotonic()
        installation.uninstall()
        stats = get_context().stats()
        with open(args.trace_out, "w") as handle:
            json.dump(
                {
                    "window": [start, end],
                    "spans": recorder.spans,
                    "counts": recorder.counts,
                    "tech_context": {
                        "hits": stats.hits,
                        "misses": stats.misses,
                        "evictions": stats.evictions,
                    },
                },
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
