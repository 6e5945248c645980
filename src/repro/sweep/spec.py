"""Declarative sweep specifications with deterministic per-run seeds.

A :class:`SweepSpec` names one workload and a cartesian parameter grid
(``side`` / ``loss`` / ``jitter`` / ``churn`` / ``threshold`` / ...) times a
replicate count.  Expanding the spec yields one :class:`RunSpec` per
``(grid point, replicate)``; each run's seed is derived as

    ``sha256(spec_hash : seed_salt : point_index : replicate)``

so every run is individually reproducible: re-executing a single
:class:`RunSpec` in isolation (one core, no pool) produces byte-identical
fingerprints to the same run inside a many-worker sharded sweep.  The
``spec_hash`` itself is a digest of the canonical JSON of the spec, so two
processes holding "the same" spec always agree on every seed.

``audit_duplicates=k`` appends duplicates of the first ``k`` expanded runs
(same params, same seed, run id suffixed ``#audit``); the scheduler places
each duplicate on a *different* shard than its primary and the sink-level
audit asserts fingerprint equality — a cross-shard determinism check that
rides along with every sweep.  The audit count is deliberately excluded
from the spec hash so enabling it never perturbs primary seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Sequence

from .workloads import check_params

#: Suffix marking the cross-shard determinism duplicates of a run.
AUDIT_SUFFIX = "#audit"


def derive_seed(spec_hash: str, seed_salt: int, point_index: int, replicate: int) -> int:
    """Deterministic 63-bit seed for one ``(point, replicate)`` of a spec."""
    material = f"{spec_hash}:{seed_salt}:{point_index}:{replicate}".encode()
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved run of a sweep: params + the derived seed.

    ``run_id`` is globally stable (``<spec_hash>/p<point>/r<replicate>``),
    which is what makes JSONL resume and cross-process result matching
    possible without any coordination.
    """

    run_id: str
    spec_hash: str
    name: str
    workload: str
    point_index: int
    replicate: int
    seed: int
    params: Dict[str, Any]
    audit: bool = False

    @property
    def primary_id(self) -> str:
        """The run id of the primary this run duplicates (itself if primary)."""
        return self.run_id[: -len(AUDIT_SUFFIX)] if self.audit else self.run_id

    def record_fields(self) -> Dict[str, Any]:
        """The identity fields every result record carries."""
        return {
            "run_id": self.run_id,
            "spec_hash": self.spec_hash,
            "name": self.name,
            "workload": self.workload,
            "point": self.point_index,
            "replicate": self.replicate,
            "audit": self.audit,
            "seed": self.seed,
            "params": dict(self.params),
        }


@dataclass
class SweepSpec:
    """A declarative experiment sweep: workload x parameter grid x replicates.

    ``grid`` maps parameter names to value lists (cartesian product, in
    sorted-name order so point enumeration is canonical); ``fixed`` params
    are merged into every point.  A ``seed`` entry in either overrides the
    derived seed — useful for pinning a legacy benchmark seed, at the cost
    of making replicates identical for seed-driven workloads.  Any other
    parameter the workload does not read is rejected at construction.
    """

    name: str
    workload: str
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Dict[str, Any] = field(default_factory=dict)
    replicates: int = 1
    seed_salt: int = 0
    audit_duplicates: int = 0

    def __post_init__(self) -> None:
        if not self.name or not self.workload:
            raise ValueError("SweepSpec needs a non-empty name and workload")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.audit_duplicates < 0:
            raise ValueError("audit_duplicates must be >= 0")
        for param, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid[{param!r}] must be a non-empty list")
        check_params(self.workload, [*self.grid, *self.fixed])

    # -- identity --------------------------------------------------------

    def canonical_json(self) -> str:
        """Canonical serialization: the seed-determining fields only."""
        doc = {
            "name": self.name,
            "workload": self.workload,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "fixed": self.fixed,
            "replicates": self.replicates,
            "seed_salt": self.seed_salt,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable 16-hex-digit identity of the seed-determining fields."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    # -- expansion -------------------------------------------------------

    def points(self) -> List[Dict[str, Any]]:
        """The cartesian grid, each point merged over ``fixed``."""
        names = sorted(self.grid)
        if not names:
            return [dict(self.fixed)]
        out: List[Dict[str, Any]] = []
        for combo in itertools.product(*(self.grid[n] for n in names)):
            params = dict(self.fixed)
            params.update(zip(names, combo))
            out.append(params)
        return out

    def expand(self) -> List[RunSpec]:
        """All runs of the sweep: grid x replicates, plus audit duplicates."""
        spec_hash = self.spec_hash()
        runs: List[RunSpec] = []
        for point_index, params in enumerate(self.points()):
            for rep in range(self.replicates):
                seed = params["seed"] if "seed" in params else derive_seed(
                    spec_hash, self.seed_salt, point_index, rep
                )
                runs.append(
                    RunSpec(
                        run_id=f"{spec_hash}/p{point_index:04d}/r{rep}",
                        spec_hash=spec_hash,
                        name=self.name,
                        workload=self.workload,
                        point_index=point_index,
                        replicate=rep,
                        seed=int(seed),
                        params=params,
                    )
                )
        for primary in runs[: self.audit_duplicates]:
            runs.append(
                replace(primary, run_id=primary.run_id + AUDIT_SUFFIX, audit=True)
            )
        return runs

    # -- (de)serialization ----------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "workload": self.workload,
            "grid": {k: list(v) for k, v in self.grid.items()},
            "fixed": dict(self.fixed),
            "replicates": self.replicates,
            "seed_salt": self.seed_salt,
            "audit_duplicates": self.audit_duplicates,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "SweepSpec":
        """Inverse of :meth:`to_dict`; unknown keys rejected loudly."""
        known = {
            "name", "workload", "grid", "fixed", "replicates",
            "seed_salt", "audit_duplicates",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown SweepSpec fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        """Load a spec from a JSON file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
