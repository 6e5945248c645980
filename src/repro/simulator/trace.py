"""Simulation statistics.

:class:`MediumStats` aggregates the channel-level counters every experiment
reports (messages, data units, drops, per-protocol breakdowns) and keeps
them per packet kind in one :class:`KindRecord` each;
:class:`MediumLedger` is the medium's energy ledger, whose per-kind
category totals are those records' energy slots; and :func:`stable_digest`
turns such counters into the short run fingerprints tests and sweep
records compare; :func:`stable_unit` is the seeded hash that retry
jitter and link admission draw from instead of a shared RNG.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..core.cost_model import EnergyLedger

_MASK64 = (1 << 64) - 1
#: Start state of :func:`stable_unit` (splitmix64's golden gamma).
SPLITMIX_SEED = 0x9E3779B97F4A7C15
#: ``2**53``: a state's top 53 bits divided by it are a float in ``[0, 1)``.
UNIT_SCALE = float(1 << 53)


def mix(x: int, part: int) -> int:
    """One splitmix64 round: absorb ``part`` into the 64-bit state ``x``."""
    x = ((x ^ (part & _MASK64)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stable_unit(*parts: int) -> float:
    """Deterministic hash of integers to ``[0, 1)``.

    Seeded randomness that never draws from a shared RNG stream (a draw
    there would shift the loss and jitter of every other transmission):
    the transport's and the query engine's retry jitter and the scenario
    link models' per-packet admission all come from here.
    """
    x = SPLITMIX_SEED
    for part in parts:
        x = mix(x, part)
    return (x >> 11) / UNIT_SCALE


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


@dataclass(slots=True)
class KindRecord:
    """The channel counts and radio energy of one packet kind, updated in
    place by the medium on every transmission, arrival and drop of the
    kind.  ``tx_energy`` and ``rx_energy`` are the ``tx:<kind>`` and
    ``rx:<kind>`` totals of the medium's :class:`MediumLedger`."""

    tx: int = 0
    rx: int = 0
    drop: int = 0
    tx_energy: float = 0.0
    rx_energy: float = 0.0


class _KindRecords(dict):
    """Packet kind -> its :class:`KindRecord`, made on the kind's first
    use, so the per-packet paths pay one dict subscript per kind."""

    def __missing__(self, kind: str) -> KindRecord:
        record = self[kind] = KindRecord()
        return record


class MediumStats:
    """Channel counters maintained by the wireless medium.

    ``transmissions``, ``deliveries``, ``drops``, ``data_units_sent`` and
    ``data_units_received`` are running totals over every kind.  The
    per-kind counts live in :attr:`records`; ``by_kind_tx``,
    ``by_kind_rx`` and ``by_kind_drop`` are read-only views of them that
    list a kind only when its count is non-zero.
    """

    def __init__(self) -> None:
        self.transmissions = 0
        self.deliveries = 0
        self.drops = 0
        self.data_units_sent = 0.0
        self.data_units_received = 0.0
        self.records: Dict[str, KindRecord] = _KindRecords()

    @property
    def by_kind_tx(self) -> Dict[str, int]:
        return {kind: rec.tx for kind, rec in self.records.items() if rec.tx}

    @property
    def by_kind_rx(self) -> Dict[str, int]:
        return {kind: rec.rx for kind, rec in self.records.items() if rec.rx}

    @property
    def by_kind_drop(self) -> Dict[str, int]:
        return {kind: rec.drop for kind, rec in self.records.items() if rec.drop}

    def record_drop(self, kind: str, count: int = 1) -> None:
        """``count`` lost packets of one kind."""
        self.drops += count
        self.records[kind].drop += count

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
        for kind, theirs in other.records.items():
            mine = self.records[kind]
            for slot in KindRecord.__slots__:
                setattr(mine, slot, getattr(mine, slot) + getattr(theirs, slot))

    def tx_of_kind(self, kind: str) -> int:
        """Transmissions tagged ``kind``."""
        record = self.records.get(kind)
        return record.tx if record is not None else 0

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


class MediumLedger(EnergyLedger):
    """The wireless medium's energy ledger: per-node energy as in any
    ledger, and as category totals ``tx:<kind>`` and ``rx:<kind>`` the
    energy slots of the medium's kind records.  A category is listed once
    its kind has been sent or received, at zero energy too."""

    def __init__(self, records: Dict[str, KindRecord]) -> None:
        super().__init__()
        self._records = records

    def by_category(self) -> Dict[str, float]:
        categories = super().by_category()  # any charge() or merge() made
        for kind, rec in self._records.items():
            for key, count, energy in (
                (f"tx:{kind}", rec.tx, rec.tx_energy),
                (f"rx:{kind}", rec.rx, rec.rx_energy),
            ):
                if count:
                    categories[key] = categories.get(key, 0.0) + energy
        return categories
