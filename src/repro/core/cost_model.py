"""Cost functions and performance metrics of the virtual architecture.

Section 3.2 of the paper defines a **uniform cost function**: the energy
cost for transmission, reception, or computation of one unit of data is one
unit of energy, and one unit of latency is the time taken to complete *k*
computations or transmit *l* units of data (with *k* and *l* the node's
processing speed and transmission bandwidth).  This model — standard in the
algorithm-design literature the paper cites [5, 14, 18] — is implemented by
:class:`UniformCostModel`; deployments with different radio characteristics
can substitute any other :class:`CostModel`.

Section 2 lists the performance metrics an algorithm designer may derive
from the cost functions: *"total energy, energy balance, total latency of a
set of operations, system lifetime, etc."* — all provided here over an
:class:`EnergyLedger` that records per-node consumption.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple


class CostModel(abc.ABC):
    """Energy and latency cost functions for the virtual architecture's
    primitives.

    All quantities are in abstract *units*: data sizes in units of data,
    computation in operation counts, results in units of energy / latency.
    """

    @abc.abstractmethod
    def tx_energy(self, units: float) -> float:
        """Energy to transmit ``units`` of data one hop."""

    @abc.abstractmethod
    def rx_energy(self, units: float) -> float:
        """Energy to receive ``units`` of data."""

    @abc.abstractmethod
    def compute_energy(self, operations: float) -> float:
        """Energy to execute ``operations`` computational operations."""

    @abc.abstractmethod
    def tx_latency(self, units: float) -> float:
        """Time to transmit ``units`` of data one hop."""

    @abc.abstractmethod
    def compute_latency(self, operations: float) -> float:
        """Time to execute ``operations`` computational operations."""

    # -- derived costs ------------------------------------------------------

    def hop_energy(self, units: float) -> float:
        """Total energy of moving ``units`` across one hop (tx + rx)."""
        return self.tx_energy(units) + self.rx_energy(units)

    def path_energy(self, units: float, hops: int) -> float:
        """Total energy of relaying ``units`` over ``hops`` hops."""
        if hops < 0:
            raise ValueError(f"hops must be non-negative, got {hops}")
        return self.hop_energy(units) * hops

    def path_latency(self, units: float, hops: int) -> float:
        """Store-and-forward latency of relaying ``units`` over ``hops`` hops."""
        if hops < 0:
            raise ValueError(f"hops must be non-negative, got {hops}")
        return self.tx_latency(units) * hops

    def charge_path(
        self, ledger: EnergyLedger, path: Sequence[Hashable], units: float
    ) -> float:
        """Charge relaying ``units`` along ``path`` and return its latency.

        Section 4.2's price of a message: ``path`` lists the nodes from
        source to destination inclusive; each hop's sender pays
        :meth:`tx_energy` and its receiver :meth:`rx_energy`, and the
        latency is :meth:`path_latency` over the hops.  Every design-time
        run charges its routed messages here.
        """
        tx, rx = self.tx_energy(units), self.rx_energy(units)
        for a, b in pairwise(path):
            ledger.charge(a, tx, "tx")
            ledger.charge(b, rx, "rx")
        return self.path_latency(units, len(path) - 1)


class UniformCostModel(CostModel):
    """The paper's uniform cost function (Section 3.2).

    ``energy_per_unit`` defaults to 1: transmitting, receiving, or computing
    on one unit of data each costs one unit of energy.  ``processing_speed``
    (*k*) and ``bandwidth`` (*l*) set how many operations / data units fit
    in one unit of latency.
    """

    def __init__(
        self,
        energy_per_unit: float = 1.0,
        processing_speed: float = 1.0,
        bandwidth: float = 1.0,
    ):
        if energy_per_unit <= 0:
            raise ValueError("energy_per_unit must be positive")
        if processing_speed <= 0 or bandwidth <= 0:
            raise ValueError("processing_speed and bandwidth must be positive")
        self.energy_per_unit = energy_per_unit
        self.processing_speed = processing_speed
        self.bandwidth = bandwidth

    def __repr__(self) -> str:
        return (
            f"UniformCostModel(energy_per_unit={self.energy_per_unit}, "
            f"processing_speed={self.processing_speed}, bandwidth={self.bandwidth})"
        )

    def tx_energy(self, units: float) -> float:
        return self.energy_per_unit * units

    def rx_energy(self, units: float) -> float:
        return self.energy_per_unit * units

    def compute_energy(self, operations: float) -> float:
        return self.energy_per_unit * operations

    def tx_latency(self, units: float) -> float:
        return units / self.bandwidth

    def compute_latency(self, operations: float) -> float:
        return operations / self.processing_speed


class FirstOrderRadioCostModel(CostModel):
    """First-order radio model cost functions (Heinzelman-style).

    The paper notes (citing Min & Chandrakasan [13]) that for short-range
    omnidirectional antennas reception and transmission energy are of
    similar magnitude and dominated by the radio electronics; this model
    makes the electronics/amplifier split explicit for users whose
    deployment characteristics "necessitate a different set of cost
    functions" (Section 3.2).

    Energy per data unit: ``e_elec + e_amp * range**exponent`` to transmit,
    ``e_elec`` to receive.
    """

    def __init__(
        self,
        e_elec: float = 50e-9,
        e_amp: float = 100e-12,
        tx_range: float = 10.0,
        path_loss_exponent: float = 2.0,
        e_compute: float = 5e-9,
        processing_speed: float = 1.0,
        bandwidth: float = 1.0,
    ):
        if min(e_elec, e_amp, tx_range, e_compute) < 0:
            raise ValueError("radio parameters must be non-negative")
        self.e_elec = e_elec
        self.e_amp = e_amp
        self.tx_range = tx_range
        self.path_loss_exponent = path_loss_exponent
        self.e_compute = e_compute
        self.processing_speed = processing_speed
        self.bandwidth = bandwidth

    def tx_energy(self, units: float) -> float:
        return units * (
            self.e_elec + self.e_amp * self.tx_range**self.path_loss_exponent
        )

    def rx_energy(self, units: float) -> float:
        return units * self.e_elec

    def compute_energy(self, operations: float) -> float:
        return operations * self.e_compute

    def tx_latency(self, units: float) -> float:
        return units / self.bandwidth

    def compute_latency(self, operations: float) -> float:
        return operations / self.processing_speed


class EnergyLedger:
    """Per-node record of energy consumption.

    Every executor and protocol in this library charges its energy here,
    keyed by an arbitrary hashable node identity (grid coordinate for
    virtual nodes, integer id for physical nodes).  The ledger is the input
    to all system-level metrics (:func:`total_energy`,
    :func:`energy_balance`, :func:`system_lifetime`).

    :meth:`fingerprint` and :meth:`merge` read category totals through
    :meth:`by_category`, so a subclass may keep them elsewhere: the
    simulated radio medium's ledger reads them from its per-kind channel
    records and is charged by the medium in place, without :meth:`charge`.
    """

    def __init__(self) -> None:
        self._consumed: Dict[Hashable, float] = {}
        self._by_category: Dict[str, float] = {}

    def charge(self, node: Hashable, amount: float, category: str = "other") -> None:
        """Record ``amount`` units of energy consumed by ``node``.

        ``category`` tags the expense (``"tx"``, ``"rx"``, ``"compute"``,
        ...) for breakdown reporting.  Negative charges are rejected.
        """
        if amount < 0:
            raise ValueError(f"cannot charge negative energy ({amount})")
        self._consumed[node] = self._consumed.get(node, 0.0) + amount
        self._by_category[category] = self._by_category.get(category, 0.0) + amount

    def consumed(self, node: Hashable) -> float:
        """Total energy consumed by ``node`` (0 if never charged)."""
        return self._consumed.get(node, 0.0)

    def per_node(self) -> Dict[Hashable, float]:
        """Copy of the node -> consumed-energy map."""
        return dict(self._consumed)

    def by_category(self) -> Dict[str, float]:
        """Copy of the category -> consumed-energy map."""
        return dict(self._by_category)

    @property
    def total(self) -> float:
        """Sum of all recorded consumption."""
        return sum(self._consumed.values())

    def fingerprint(self) -> Tuple:
        """Canonical, order-stable serialization of the ledger.

        Node keys are stringified before sorting so heterogeneous keys
        (int ids, grid-coordinate tuples) stay comparable; category totals
        ride along.  Determinism tests and the benchmark's replay digests
        compare these instead of hand-rolled sorted-dict copies.
        """
        return (
            tuple(sorted((str(node), amount) for node, amount in self._consumed.items())),
            tuple(sorted(self.by_category().items())),
        )

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger's records into this one."""
        for node, amount in other._consumed.items():
            self._consumed[node] = self._consumed.get(node, 0.0) + amount
        for cat, amount in other.by_category().items():
            self._by_category[cat] = self._by_category.get(cat, 0.0) + amount

    def __len__(self) -> int:
        return len(self._consumed)

    def __repr__(self) -> str:
        return f"EnergyLedger(nodes={len(self)}, total={self.total:.3f})"


# ---------------------------------------------------------------------------
# System-level performance metrics (Section 2's metric menu)
# ---------------------------------------------------------------------------


def total_energy(ledger: EnergyLedger) -> float:
    """Total energy consumed across the network.

    The paper's dominant system-level concern: *"minimizing energy
    consumption of the network as a whole is the dominant concern"*.
    """
    return ledger.total


def max_node_energy(ledger: EnergyLedger) -> float:
    """Energy consumed by the single most-loaded node (hot spot)."""
    per = ledger.per_node()
    return max(per.values()) if per else 0.0


def energy_balance(
    ledger: EnergyLedger, population: Optional[Iterable[Hashable]] = None
) -> float:
    """Energy-balance index in ``[0, 1]``; 1 means perfectly even drain.

    Defined as ``mean / max`` of per-node consumption over ``population``
    (all charged nodes by default; pass the full node set to count
    never-charged nodes as zero-consumption).  An algorithm with good
    energy balance avoids early death of hot-spot nodes, which the paper
    lists as a first-class optimization criterion for mapping (Section 4.2).
    """
    per = ledger.per_node()
    if population is not None:
        values = [per.get(n, 0.0) for n in population]
    else:
        values = list(per.values())
    if not values:
        return 1.0
    peak = max(values)
    if peak == 0.0:
        return 1.0
    # clamp: float summation can push the mean one ulp above the max
    return min(1.0, (sum(values) / len(values)) / peak)


def energy_stddev(
    ledger: EnergyLedger, population: Optional[Iterable[Hashable]] = None
) -> float:
    """Population standard deviation of per-node energy consumption."""
    per = ledger.per_node()
    if population is not None:
        values = [per.get(n, 0.0) for n in population]
    else:
        values = list(per.values())
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def system_lifetime(
    ledger: EnergyLedger,
    initial_energy: float,
    population: Optional[Iterable[Hashable]] = None,
) -> float:
    """Number of rounds until the first node dies.

    Assumes the recorded consumption is one round of the application (the
    paper: *"the application essentially executes in an infinite loop"*)
    and every node starts with ``initial_energy``; the system lifetime is
    then ``initial_energy / max-per-round-drain`` rounds.  Returns
    ``math.inf`` if nothing was consumed.
    """
    if initial_energy <= 0:
        raise ValueError("initial_energy must be positive")
    per = ledger.per_node()
    if population is not None:
        values = [per.get(n, 0.0) for n in population]
    else:
        values = list(per.values())
    peak = max(values) if values else 0.0
    if peak == 0.0:
        return math.inf
    return initial_energy / peak


@dataclass
class PerformanceReport:
    """Bundle of the standard metrics for one run / estimate.

    Produced by executors and the analytical estimator so benchmarks and
    examples report a consistent row shape.
    """

    latency: float
    total_energy: float
    max_node_energy: float
    energy_balance: float
    messages: int = 0
    data_units: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_ledger(
        cls,
        ledger: EnergyLedger,
        latency: float,
        messages: int = 0,
        data_units: float = 0.0,
        population: Optional[Iterable[Hashable]] = None,
        **extra: float,
    ) -> "PerformanceReport":
        """Build a report by computing the ledger-derived metrics."""
        population = list(population) if population is not None else None
        return cls(
            latency=latency,
            total_energy=total_energy(ledger),
            max_node_energy=max_node_energy(ledger),
            energy_balance=energy_balance(ledger, population),
            messages=messages,
            data_units=data_units,
            extra=dict(extra),
        )

    def row(self) -> Tuple[float, float, float, float, int]:
        """The (latency, total energy, max node energy, balance, messages)
        tuple used as a benchmark table row."""
        return (
            self.latency,
            self.total_energy,
            self.max_node_energy,
            self.energy_balance,
            self.messages,
        )
