"""``query serve`` in this process, optionally with the layer wrappers.

Runs the program's own CLI (``repro.cli.main``) until SIGTERM.  With
``--trace-dir`` the wrappers of :mod:`layers` are installed before the
server starts and the spans are written when it stops::

    python3 perfbench/serve_child.py --spec S --store D --url-file U \
        [--trace-dir T]
"""

from __future__ import annotations

import argparse
import sys

from common import use_checkout_source


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--url-file", required=True)
    parser.add_argument("--trace-dir", default=None)
    arguments = parser.parse_args()

    use_checkout_source()
    tracer = None
    if arguments.trace_dir:
        import layers
        from tracer import Tracer

        tracer = Tracer(arguments.trace_dir)
        layers.install_query(tracer)

    from repro import cli

    try:
        return cli.main(
            [
                "query", "serve", arguments.spec,
                "--store", arguments.store,
                "--url-file", arguments.url_file,
            ]
        )
    finally:
        if tracer is not None:
            tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
