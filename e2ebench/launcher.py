"""Run ``repro serve`` with the serving layers traced.

    python e2ebench/launcher.py SPANS.json -- serve --model m.npz --tcp 0

Wraps the public functions listed in ``layers.install_serve`` where they
are bound, then calls ``repro.cli.main(argv)`` exactly as ``python -m
repro`` would.  Spans stay in memory and are written to ``SPANS.json``
when the server returns (SIGTERM drains and shuts it down gracefully).
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launcher.py SPANS.json -- <repro arguments>", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]

    import layers
    from tracing import Tracer

    tracer = Tracer()
    layers.install_serve(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
