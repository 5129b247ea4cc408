"""One ``campaign run`` in a fresh process, as a user would start it.

Runs the program's own CLI (``repro.cli.main``) in this process and
notes the instant ``CampaignRunner.run()`` is entered (the end of
set-up: imports, spec load, store open) and how long it takes.  With
``--setup-only`` the process exits at that instant instead of running.
With ``--trace-dir`` the layer wrappers of :mod:`layers` are installed
first and the spans land in that directory.

Writes a JSON record to ``--result``::

    python3 perfbench/campaign_child.py --spec S --store D --result R \
        [--total-workers N] [--setup-only] [--trace-dir T]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from common import use_checkout_source


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--total-workers", type=int, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    arguments = parser.parse_args()

    use_checkout_source()
    tracer = None
    if arguments.trace_dir:
        import layers
        from tracer import Tracer

        tracer = Tracer(arguments.trace_dir)
        layers.install_campaign(tracer)

    from repro import cli
    from repro.campaigns.runner import CampaignRunner

    record = {"pid": os.getpid()}

    def write_record() -> None:
        with open(arguments.result, "w", encoding="utf-8") as sink:
            json.dump(record, sink)

    traced_run = CampaignRunner.run

    def run(self, *args, **kwargs):
        record["entered"] = time.monotonic()
        if arguments.setup_only:
            write_record()
            sys.stdout.flush()
            os._exit(0)
        result = traced_run(self, *args, **kwargs)
        record["wall_s"] = time.monotonic() - record["entered"]
        record["computed_values"] = result.computed_values
        record["cache_hits"] = result.cache_hits
        record["quarantined"] = result.quarantined_tasks
        record["incomplete"] = sum(
            1 for outcome in result.outcomes if outcome.sweep is None
        )
        return result

    CampaignRunner.run = run
    argv = ["campaign", "run", arguments.spec, "--store", arguments.store, "--quiet"]
    if arguments.total_workers is not None:
        argv += ["--total-workers", str(arguments.total_workers)]
    try:
        code = cli.main(argv)
    finally:
        if tracer is not None:
            tracer.dump()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record["peak_rss_mb"] = usage / 1024.0
    record["exit_code"] = code
    write_record()
    return code


if __name__ == "__main__":
    sys.exit(main())
