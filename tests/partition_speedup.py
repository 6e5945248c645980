"""Check the partitioned storm's wall-clock speedup over the serial run.

Runs one side-32 broadcast storm serially and on 4 shard workers.  It
fails unless the two fingerprints match, and, when the pool actually
granted 4 workers on a host with at least 4 CPUs, unless the partitioned
run is at least 2x faster; on a smaller host the speedup is printed and
recorded only.  Exits 1 on a failed check.  Run from the repository
root (tier-1 does not collect it)::

    PYTHONPATH=src python3 tests/partition_speedup.py
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.deployment import covered_deployment
from repro.partition import effective_procs, run_partitioned_storm

SIDE = 32
ROUNDS = 6
WORKERS = 4
TARGET = 2.0


def main() -> int:
    net = covered_deployment(SIDE, SIDE * SIDE * 6, seed=11)
    t0 = time.perf_counter()
    serial = run_partitioned_storm(
        net, rounds=ROUNDS, partitions=1, rng=np.random.default_rng(11)
    )
    serial_wall = time.perf_counter() - t0
    budget = effective_procs(WORKERS)
    t0 = time.perf_counter()
    parallel = run_partitioned_storm(
        net, rounds=ROUNDS, partitions=WORKERS, procs=budget.procs,
        rng=np.random.default_rng(11),
    )
    parallel_wall = time.perf_counter() - t0
    failed = []
    if parallel.fingerprint != serial.fingerprint:
        failed.append(
            f"serial {serial.fingerprint} != partitioned {parallel.fingerprint} "
            f"on {parallel.procs} workers"
        )
    speedup = serial_wall / parallel_wall
    enforced = parallel.procs >= WORKERS and (os.cpu_count() or 1) >= WORKERS
    print(
        f"{os.cpu_count()} CPUs: speedup {speedup:.2f}x on {parallel.procs} workers "
        f"({'gated' if enforced else 'recorded only'})"
    )
    if enforced and speedup < TARGET:
        failed.append(
            f"partitioned storm only {speedup:.2f}x on {parallel.procs} workers "
            f"(target {TARGET}x)"
        )
    for failure in failed:
        print(failure, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
