#!/usr/bin/env python3
"""Record the reference sum rate of every cell in every workload pool.

    python3 bench/record_reference.py

Writes bench/reference.json. The benchmark gates each run against this
table, so re-record it only in a change that means to alter the rates.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_ENV, BLAS_THREADS, SRC


def main() -> int:
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from irs_multicast import harness
    import workloads

    rates = {}
    for wl in workloads.WORKLOADS.values():
        cfg = wl.config()
        table = {}
        for spec in wl.pool_specs(cfg):
            for r in harness.sweep(spec):
                if not r.ok:
                    raise SystemExit(f"{wl.name}: cell failed: {r.status}")
                table[workloads.cell_key(r.sweep_value, r.baseline, r.seed)] = r.sum_rate_bps
        rates[wl.name] = table
        print(f"{wl.name}: {len(table)} cells", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"rates": rates}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
