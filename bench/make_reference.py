"""Write reference.json: the stable seeded output fields at the default seed.

Usage, from the root of a source checkout:  python3 bench/make_reference.py

Run it only on a commit whose outputs are the contract.  Each command of
every workload's cycle runs once at full size; its output must pass the
workload's invariant checks before its fields are stored.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main() -> int:
    child = run.Child(time.monotonic() + run.RUN_DEADLINE_S * len(workloads.NAMES))
    reference = {}
    try:
        for workload in workloads.NAMES:
            entries = []
            for argv in workloads.commands(workload, run.DEFAULT_SEED):
                record, text = child.spawn("run", argv)
                _, reasons, fields = workloads.check(workload, argv, record["exit_code"], text)
                if reasons:
                    print(f"error: {workload}: {'; '.join(reasons)}", file=sys.stderr)
                    return 1
                entries.append({"argv": argv, "fields": fields})
            reference[workload] = entries
    finally:
        child.close()
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
