"""Record the stored-entry digests of the campaign workloads.

Runs one cold campaign per workload and seed, exactly as ``run.py``
does, and writes the sha256 digest of every stored entry to
``digests.json``.  Later runs with a listed seed must store the same
bytes under the same keys::

    python3 perfbench/record_digests.py --seeds 0-20
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import campaign
import checks
from common import ROOT, seeds_from, use_checkout_source


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-20")
    parser.add_argument("--workloads", default=",".join(campaign.WORKLOADS))
    arguments = parser.parse_args()

    use_checkout_source()
    shipped = (
        json.loads(checks.DIGESTS_FILE.read_text(encoding="utf-8"))
        if checks.DIGESTS_FILE.is_file() else {}
    )
    work = ROOT / ".perfbench-work" / f"digests-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in arguments.workloads.split(","):
            for seed in seeds_from(arguments.seeds):
                spec_path = work / "spec.json"
                spec_path.write_text(json.dumps(campaign.spec_document(workload, seed)))
                store = work / "store"
                campaign.Child(work, spec_path, store, workload)
                digests = checks.entry_digests(store)
                _, failed, problems = checks.check_store(
                    store, campaign.WORKLOADS[workload]["rows"], None
                )
                if failed:
                    raise SystemExit(f"{workload} seed {seed}: {problems}")
                shipped.setdefault(workload, {})[str(seed)] = digests
                shutil.rmtree(store)
                print(f"{workload} seed {seed}: {len(digests)} entries")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks.DIGESTS_FILE.write_text(json.dumps(shipped, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
