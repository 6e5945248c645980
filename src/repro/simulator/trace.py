"""Simulation statistics.

:class:`MediumStats` aggregates the channel-level counters every experiment
reports (messages, data units, drops, per-protocol breakdowns), and
:func:`stable_digest` turns such counters into the short run fingerprints
tests and sweep records compare.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple


def stable_digest(obj: Any) -> str:
    """Short stable hex digest of a fingerprint-style value.

    Intended for the canonical tuples :meth:`MediumStats.fingerprint` and
    ``EnergyLedger.fingerprint`` return — nested tuples of ints, floats,
    and strings, whose ``repr`` is deterministic across processes (Python
    reprs floats as their shortest round-trip form).  The digest is what
    sweep result records carry: JSON-friendly, order-stable, and
    comparable across shards, machines, and commits.
    """
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@dataclass
class MediumStats:
    """Channel counters maintained by the wireless medium."""

    transmissions: int = 0
    deliveries: int = 0
    drops: int = 0
    data_units_sent: float = 0.0
    data_units_received: float = 0.0
    by_kind_tx: Dict[str, int] = field(default_factory=dict)
    by_kind_rx: Dict[str, int] = field(default_factory=dict)
    by_kind_drop: Dict[str, int] = field(default_factory=dict)

    def record_tx(self, kind: str, size_units: float, deliveries: int) -> None:
        """One transmission of ``kind`` reaching ``deliveries`` receivers."""
        self.transmissions += 1
        self.data_units_sent += size_units
        self.by_kind_tx[kind] = self.by_kind_tx.get(kind, 0) + 1
        self.deliveries += deliveries

    def record_rx(self, kind: str, size_units: float) -> None:
        """One packet arrival."""
        self.data_units_received += size_units
        self.by_kind_rx[kind] = self.by_kind_rx.get(kind, 0) + 1

    def record_rx_many(self, kind: str, size_units: float, count: int) -> None:
        """``count`` arrivals of one packet (batched receive).

        Equal to ``count`` :meth:`record_rx` calls, float for float: the
        received total takes one addition per arrival, because a sum of
        k equal terms is not k times the term.
        """
        if count <= 0:
            return
        received = self.data_units_received
        for _ in range(count):
            received += size_units
        self.data_units_received = received
        self.by_kind_rx[kind] = self.by_kind_rx.get(kind, 0) + count

    def record_drop(self, kind: str) -> None:
        """One lost packet."""
        self.drops += 1
        self.by_kind_drop[kind] = self.by_kind_drop.get(kind, 0) + 1

    def record_drops(self, kind: str, count: int) -> None:
        """``count`` lost packets of one kind (vectorized loss draws)."""
        self.drops += count
        self.by_kind_drop[kind] = self.by_kind_drop.get(kind, 0) + count

    def merge(self, other: "MediumStats") -> None:
        """Fold another stats object into this one (shard-result merge).

        Every counter is a sum over disjoint sources — transmissions are
        counted at the sending shard, receptions at the receiving shard,
        drops at whichever shard consumed the loss draw — so summing the
        per-shard objects reproduces exactly the counters a whole-world
        medium would have recorded.
        """
        self.transmissions += other.transmissions
        self.deliveries += other.deliveries
        self.drops += other.drops
        self.data_units_sent += other.data_units_sent
        self.data_units_received += other.data_units_received
        for key, val in other.by_kind_tx.items():
            self.by_kind_tx[key] = self.by_kind_tx.get(key, 0) + val
        for key, val in other.by_kind_rx.items():
            self.by_kind_rx[key] = self.by_kind_rx.get(key, 0) + val
        for key, val in other.by_kind_drop.items():
            self.by_kind_drop[key] = self.by_kind_drop.get(key, 0) + val

    def tx_of_kind(self, kind: str) -> int:
        """Transmissions tagged ``kind``."""
        return self.by_kind_tx.get(kind, 0)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary for benchmark rows."""
        return {
            "transmissions": float(self.transmissions),
            "deliveries": float(self.deliveries),
            "drops": float(self.drops),
            "data_units_sent": self.data_units_sent,
        }

    def fingerprint(self) -> Tuple:
        """Canonical, order-stable serialization of every counter.

        Two runs are observationally identical at the channel level iff
        their fingerprints compare equal; the determinism tests and the
        benchmark's replay digests compare these instead of hand-rolled
        dicts.
        """
        return (
            self.transmissions,
            self.deliveries,
            self.drops,
            self.data_units_sent,
            self.data_units_received,
            tuple(sorted(self.by_kind_tx.items())),
            tuple(sorted(self.by_kind_rx.items())),
            tuple(sorted(self.by_kind_drop.items())),
        )
