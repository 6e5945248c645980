"""Unit tests for SweepSpec expansion and deterministic seed derivation."""

from __future__ import annotations

import json

import pytest

from repro.sweep import RunSpec, SweepSpec, derive_seed
from repro.sweep.spec import AUDIT_SUFFIX


def small_spec(**overrides) -> SweepSpec:
    fields = {
        "name": "unit",
        "workload": "storm",
        "grid": {"loss": [0.0, 0.1], "side": [4, 8]},
        "fixed": {"rounds": 3},
        "replicates": 2,
    }
    fields.update(overrides)
    return SweepSpec(**fields)


class TestSpecHash:
    def test_stable_across_instances(self):
        assert small_spec().spec_hash() == small_spec().spec_hash()

    def test_sensitive_to_every_seed_determining_field(self):
        base = small_spec().spec_hash()
        assert small_spec(name="other").spec_hash() != base
        # e1 reads no `rounds`, so compare the two workloads without it
        assert (
            small_spec(workload="e1", fixed={}).spec_hash()
            != small_spec(fixed={}).spec_hash()
        )
        assert small_spec(grid={"loss": [0.0], "side": [4, 8]}).spec_hash() != base
        assert small_spec(fixed={"rounds": 4}).spec_hash() != base
        assert small_spec(replicates=3).spec_hash() != base
        assert small_spec(seed_salt=1).spec_hash() != base

    def test_audit_count_does_not_perturb_hash_or_seeds(self):
        plain, audited = small_spec(), small_spec(audit_duplicates=3)
        assert plain.spec_hash() == audited.spec_hash()
        plain_seeds = {r.run_id: r.seed for r in plain.expand()}
        audited_seeds = {
            r.run_id: r.seed for r in audited.expand() if not r.audit
        }
        assert plain_seeds == audited_seeds

    def test_grid_key_order_is_canonical(self):
        a = small_spec(grid={"loss": [0.0], "side": [4]})
        b = small_spec(grid={"side": [4], "loss": [0.0]})
        assert a.spec_hash() == b.spec_hash()
        assert a.points() == b.points()


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed("abc", 0, 3, 1) == derive_seed("abc", 0, 3, 1)

    def test_distinct_across_points_and_replicates(self):
        seeds = {
            derive_seed("abc", 0, p, r) for p in range(50) for r in range(10)
        }
        assert len(seeds) == 500

    def test_in_numpy_seed_range(self):
        seed = derive_seed("ff" * 8, 7, 123, 45)
        assert 0 <= seed < 2**63

    def test_fixed_seed_overrides_derivation(self):
        spec = small_spec(fixed={"rounds": 3, "seed": 99})
        assert all(r.seed == 99 for r in spec.expand())


class TestExpansion:
    def test_point_count_and_order(self):
        spec = small_spec()
        points = spec.points()
        assert len(points) == 4  # 2 losses x 2 sides
        # sorted param names: loss varies slower than side
        assert [(p["loss"], p["side"]) for p in points] == [
            (0.0, 4), (0.0, 8), (0.1, 4), (0.1, 8),
        ]
        assert all(p["rounds"] == 3 for p in points)

    def test_run_ids_unique_and_stable(self):
        runs = small_spec(audit_duplicates=2).expand()
        ids = [r.run_id for r in runs]
        assert len(ids) == len(set(ids)) == 10  # 4 points x 2 reps + 2 audits
        assert ids == [r.run_id for r in small_spec(audit_duplicates=2).expand()]

    def test_audit_duplicates_mirror_their_primary(self):
        runs = small_spec(audit_duplicates=2).expand()
        audits = [r for r in runs if r.audit]
        assert len(audits) == 2
        by_id = {r.run_id: r for r in runs}
        for dup in audits:
            assert dup.run_id.endswith(AUDIT_SUFFIX)
            primary = by_id[dup.primary_id]
            assert not primary.audit
            assert dup.seed == primary.seed
            assert dup.params == primary.params

    def test_empty_grid_is_a_single_point(self):
        spec = SweepSpec(name="one", workload="storm", fixed={"side": 4})
        assert len(spec.expand()) == 1
        assert spec.points() == [{"side": 4}]

    def test_record_fields_round_trip_json(self):
        run = small_spec().expand()[0]
        assert isinstance(run, RunSpec)
        fields = json.loads(json.dumps(run.record_fields()))
        assert fields["run_id"] == run.run_id
        assert fields["seed"] == run.seed


class TestValidationAndSerialization:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            SweepSpec(name="", workload="storm")
        with pytest.raises(ValueError):
            SweepSpec(name="x", workload="storm", replicates=0)
        with pytest.raises(ValueError):
            SweepSpec(name="x", workload="storm", grid={"loss": []})
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"name": "x", "workload": "storm", "bogus": 1})

    def test_dict_and_file_round_trip(self, tmp_path):
        spec = small_spec(audit_duplicates=2, seed_salt=5)
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone == spec
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert SweepSpec.from_file(str(path)) == spec
