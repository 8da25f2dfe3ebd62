"""Start the routing daemon with the benchmark's layer wrappers installed.

The traced ``served`` run launches the daemon through this file instead of
``python -m repro.server``: it installs the same span recorders the inline
workloads use (inert), then calls :func:`repro.server.app.serve` with the
daemon's own command-line flags.  ``SIGUSR1`` switches recording on; when
the daemon exits after ``SIGTERM``, the spans are written to
``--spans-out``.

    python perfbench/launcher.py --spans-out spans.json --port 0 --concurrency 2
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402 - needs the path entry above


def main() -> int:
    from repro.server.app import serve
    from repro.server.config import add_server_arguments, config_from_args

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, help="where to write the recorded spans")
    add_server_arguments(parser)
    args = parser.parse_args()
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: setattr(tracer, "active", True))
    try:
        return serve(config_from_args(args))
    finally:
        tracer.active = False
        tracer.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
