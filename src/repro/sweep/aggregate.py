"""Aggregation of sweep records into per-commit ``SWEEP_*.json`` summaries.

One sweep's JSONL records collapse into a per-grid-point summary dict
(count, failures, min/mean/max of every numeric metric, distinct
fingerprints across replicates), and that summary is appended as one
per-commit entry to a schema-2 trajectory document,
``{"bench": ..., "schema": 2, "runs": [{"commit", "date", "workloads"}]}``,
so sweep summaries accumulate across commits and can be diffed.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from typing import Any, Dict, List, Optional

from .spec import SweepSpec

#: Version tag of the summary-document layout (2 = per-commit entries).
SUMMARY_SCHEMA = 2


def _git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def point_key(params: Dict[str, Any]) -> str:
    """Canonical label of one grid point: ``k=v`` pairs in sorted order."""
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


def summarize(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Collapse records into one summary block per grid point.

    Audit duplicates are excluded (they exist to check determinism, not to
    bias the statistics); failures are counted, never averaged in.
    """
    by_point: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("audit"):
            continue
        by_point.setdefault(point_key(record.get("params", {})), []).append(record)

    summary: Dict[str, Any] = {}
    for key in sorted(by_point):
        group = by_point[key]
        ok = [r for r in group if r.get("status") == "ok"]
        metrics: Dict[str, Dict[str, float]] = {}
        names = sorted({m for r in ok for m in r.get("metrics", {})})
        for name in names:
            values = [
                float(r["metrics"][name])
                for r in ok
                if isinstance(r["metrics"].get(name), (int, float))
            ]
            if values:
                metrics[name] = {
                    "mean": sum(values) / len(values),
                    "min": min(values),
                    "max": max(values),
                }
        summary[key] = {
            "runs": len(ok),
            "failed": len(group) - len(ok),
            "distinct_fingerprints": len({r["fingerprint"] for r in ok}),
            "metrics": metrics,
        }
    return summary


def make_entry(records: List[Dict[str, Any]], spec: SweepSpec) -> Dict[str, Any]:
    """One trajectory entry: today's commit + the per-point summary."""
    return {
        "commit": _git_commit(),
        "date": datetime.date.today().isoformat(),
        "spec_hash": spec.spec_hash(),
        "spec": spec.to_dict(),
        "workloads": summarize(records),
    }


def write_summary(
    path: str, records: List[Dict[str, Any]], spec: SweepSpec,
    bench_name: Optional[str] = None,
) -> Dict[str, Any]:
    """Append this sweep's entry to the trajectory document at ``path``.

    An existing entry for the same commit is replaced (re-runs supersede);
    a document for a different bench name is left alone and started fresh.
    Returns the written document.
    """
    bench = bench_name or f"sweep:{spec.name}"
    runs: List[Dict[str, Any]] = []
    if os.path.exists(path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if doc.get("bench") == bench and isinstance(doc.get("runs"), list):
                runs = doc["runs"]
        except (OSError, json.JSONDecodeError):
            runs = []
    entry = make_entry(records, spec)
    runs = [r for r in runs if r.get("commit") != entry["commit"]]
    runs.append(entry)
    doc = {"bench": bench, "schema": SUMMARY_SCHEMA, "runs": runs}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return doc
