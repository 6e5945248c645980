"""Check the pinned perfbench replay digests at seeds 11 and 90210.

Runs each workload at each seed with ``--seconds 0`` (the minimum of
three world cycles) and fails unless every run is correct and its detail
line's digest equals the pin.  A performance change must leave them all
byte-identical.  Run from anywhere::

    python3 tests/replay_digests.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PINNED = {
    ("storm", 11): "7a074fb0f65f3151",
    ("e1_round", 11): "8688f6bfb7c75cdc",
    ("serve_mixed", 11): "19c6bf819aae6285",
    ("storm", 90210): "8f6863d426240d96",
    ("e1_round", 90210): "93b1b95fe8534629",
    ("serve_mixed", 90210): "343b2d755189a4b1",
}


def main() -> int:
    failed = []
    for (workload, seed), pinned in PINNED.items():
        run = f"{workload} seed {seed}"
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        except (IndexError, ValueError):
            print(proc.stdout + proc.stderr)
            failed.append(f"{run} (no result, exit {proc.returncode})")
            continue
        digest, correct = detail.get("digest"), result.get("correct")
        print(f"{run}: digest {digest}, pinned {pinned}, "
              f"correct {correct}, exit {proc.returncode}")
        if proc.returncode or correct is not True or digest != pinned:
            failed.append(run)
    if failed:
        print("replay digest moved or run failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
