"""Golden fixture for the analyze pipeline output format.

Byte-pins the publishable artifact of `repro.analyze` against fixtures
committed under ``tests/data/analyze_fixtures/``: ``golden_table.txt`` is
the campaign table for a fixed synthetic sweep sink (``campaign.jsonl``),
aggregated by ``loss`` at 95% confidence.

Any formatting or statistics change trips this byte comparison; the fix
is a conscious regeneration —

    python tests/test_analyze_golden.py --regen

— which rebuilds the fixture *input* and the pinned *output* from the
same deterministic builders, never a silent drift (the same contract as
``tests/test_runtime_wire.py --regen`` for the wire format).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro.analyze import (
    GroupQuery,
    aggregate_sinks,
    campaign_table,
    markdown_table,
)
from repro.sweep.sink import append_record
from repro.sweep.spec import SweepSpec
from repro.sweep.worker import base_record

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "data", "analyze_fixtures")
CAMPAIGN_PATH = os.path.join(FIXTURES_DIR, "campaign.jsonl")
GOLDEN_TABLE = os.path.join(FIXTURES_DIR, "golden_table.txt")

REGEN_HINT = (
    "the analyze output format changed: if intentional, regenerate the "
    "golden fixtures with `python tests/test_analyze_golden.py --regen`"
)


# ---------------------------------------------------------------------------
# deterministic fixture builders (inputs and outputs regenerate together)
# ---------------------------------------------------------------------------

def campaign_records():
    """The canonical fixture sweep: 2 loss points x 4 replicates + audits."""
    spec = SweepSpec(
        name="golden-campaign",
        workload="storm",
        grid={"loss": [0.0, 0.1]},
        replicates=4,
        audit_duplicates=1,
    )
    records = []
    for run in spec.expand():
        record = base_record(run, shard=0, attempt=1)
        record.update(
            {
                "status": "ok",
                "error": None,
                "elapsed_s": 0.01,
                "metrics": {
                    # deterministic in the derived per-run seed, so the
                    # fixture regenerates identically from the spec alone
                    "deliveries": 250000.0 + (run.seed % 9973),
                    "deliveries_per_s": 1.0e6 + (run.seed % 99991),
                },
                "fingerprint": f"fp-{run.primary_id.replace('/', '-')}",
            }
        )
        records.append(record)
    return records


def build_table() -> str:
    result = aggregate_sinks([CAMPAIGN_PATH], GroupQuery(by=("loss",)))
    return campaign_table(result, confidence=0.95)


def regenerate_fixtures() -> None:
    os.makedirs(FIXTURES_DIR, exist_ok=True)
    for stale in (CAMPAIGN_PATH,):
        if os.path.exists(stale):
            os.unlink(stale)
    for record in campaign_records():
        append_record(CAMPAIGN_PATH, record)
    with open(GOLDEN_TABLE, "w") as fh:
        fh.write(build_table())
    print(f"regenerated fixtures under {FIXTURES_DIR}")


# ---------------------------------------------------------------------------
# the byte pins
# ---------------------------------------------------------------------------

class TestGoldenFixtures:
    def test_fixture_inputs_match_their_builders(self):
        """The committed input regenerates identically from its builder."""
        with open(CAMPAIGN_PATH) as fh:
            committed = [json.loads(line) for line in fh]
        assert committed == campaign_records(), REGEN_HINT

    def test_campaign_table_bytes(self):
        with open(GOLDEN_TABLE) as fh:
            assert build_table() == fh.read(), REGEN_HINT

    def test_markdown_rendering_row_count(self):
        """Markdown mirrors the text table row-for-row (format-only diff)."""
        result = aggregate_sinks([CAMPAIGN_PATH], GroupQuery(by=("loss",)))
        text = campaign_table(result).strip().splitlines()
        rows = [
            [c for c in line.split("  ") if c.strip()] for line in text[2:]
        ]
        md = markdown_table(("x",), []).splitlines()
        assert len(md) == 2  # header + rule
        md_full = campaign_table(result, markdown=True).strip().splitlines()
        assert len(md_full) == len(rows) + 2


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate_fixtures()
    else:
        sys.exit(pytest.main([__file__, "-q"]))
