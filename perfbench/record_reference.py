"""Record the sample_grid references: run every sample operation any seed
can produce and store its scenario and grid values.

    python3 perfbench/record_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference.  The benchmark compares later outputs against this file within
worker.SAMPLE_TOL and worker.SCENARIO_TOL, so re-record only when a change
is meant to alter sample outputs, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import PINS, sample_ops_for_reference

os.environ.update(PINS)  # before worker imports numpy

import worker  # noqa: E402


def main() -> int:
    pkg = worker.import_package()
    pkg.catalog.load_catalog()
    refs = {}
    ops = sample_ops_for_reference()
    for res, op in zip(worker.run_ops(pkg, ops, None), ops):
        if res["failed"]:
            print(f"{res['op']}: {res['failed']}", file=sys.stderr)
            return 1
        refs[worker.ref_key(op)] = res["reference"]
        print(f"{res['op']}: {res['raw_latency_s']:.2f} s", file=sys.stderr)
    worker.REFERENCE.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(refs[k], sort_keys=True)}"
        for k in sorted(refs)) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
