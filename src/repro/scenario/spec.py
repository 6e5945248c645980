"""Scenario composition: one declarative world description (DESIGN.md §14).

A :class:`Scenario` bundles the four pluggable models — radio
(:mod:`~repro.scenario.link`), mobility, adversary, and traffic sources —
into a single dict-round-trippable value that travels anywhere a
``FaultPlan`` travels: ``run_application(scenario=...)``, sweep grid
axes, serve configs.  Its fingerprint folds every sub-model's
fingerprint, and the :class:`ScenarioReport` produced by a run folds
what actually happened, so a seeded scenario run reproduces
byte-identically across serial and sharded-sweep execution and with the
wire codec on or off.

A scenario whose only content is the :class:`UnitDisk` link model is
*trivial* — the stack drops it entirely, keeping the no-scenario fast
path (and its fingerprints) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.coords import GridCoord
from ..simulator.trace import stable_digest
from .attacker import Attacker, AttackerOutcome
from .link import LinkModel, UnitDisk, link_model_from_dict
from .mobility import MobilityModel
from .sources import SourcePeriodModel


@dataclass(frozen=True)
class Scenario:
    """The world a run executes in: radio + mobility + adversary + sources."""

    link: Optional[LinkModel] = None
    mobility: Optional[MobilityModel] = None
    attacker: Optional[Attacker] = None
    sources: Optional[SourcePeriodModel] = None

    def is_trivial(self) -> bool:
        """True when the scenario changes nothing about a run."""
        return (
            (self.link is None or isinstance(self.link, UnitDisk))
            and not self.mobility
            and self.attacker is None
            and self.sources is None
        )

    def fingerprint(self) -> str:
        """Stable digest over every sub-model's declarative identity."""
        return stable_digest(
            (
                "scenario",
                "-" if self.link is None else self.link.fingerprint(),
                "-" if self.mobility is None else self.mobility.fingerprint(),
                "-" if self.attacker is None else self.attacker.fingerprint(),
                "-" if self.sources is None else self.sources.fingerprint(),
            )
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (sweep params / JSON grids)."""
        out: Dict[str, Any] = {}
        if self.link is not None:
            out["link"] = self.link.to_dict()
        if self.mobility is not None:
            out["mobility"] = self.mobility.to_dicts()
        if self.attacker is not None:
            out["attacker"] = self.attacker.to_dict()
        if self.sources is not None:
            out["sources"] = self.sources.to_dict()
        return out

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`."""
        link = spec.get("link")
        mobility = spec.get("mobility")
        attacker = spec.get("attacker")
        sources = spec.get("sources")
        return cls(
            link=None if link is None else link_model_from_dict(link),
            mobility=None if mobility is None else MobilityModel.from_dicts(mobility),
            attacker=None if attacker is None else Attacker.from_dict(attacker),
            sources=None if sources is None else SourcePeriodModel.from_dict(sources),
        )

    @classmethod
    def coerce(
        cls, value: "Union[Scenario, Dict[str, Any], None]"
    ) -> "Optional[Scenario]":
        """Accept a Scenario, a plain dict, or None (API entry points)."""
        if value is None or isinstance(value, Scenario):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise TypeError(f"scenario must be a Scenario, dict, or None, got {value!r}")


@dataclass
class ScenarioReport:
    """What the scenario actually did to a run.

    ``relocations`` records ``(time, node, old_cell, new_cell)`` as moves
    fired; ``link_faded`` counts packets the link model suppressed;
    source counters track the duty cycle; ``attacker`` is the post-hoc
    pursuit outcome.  :meth:`fingerprint` digests the whole record, and
    the stack folds it into the run fingerprint, so scenario effects are
    part of the reproducibility contract.
    """

    relocations: List[Tuple[float, int, GridCoord, GridCoord]] = field(
        default_factory=list
    )
    link_faded: int = 0
    source_emissions: int = 0
    source_skipped: int = 0
    attacker: Optional[AttackerOutcome] = None

    def fingerprint(self) -> str:
        return stable_digest(
            (
                tuple(self.relocations),
                self.link_faded,
                self.source_emissions,
                self.source_skipped,
                None if self.attacker is None else self.attacker.as_tuple(),
            )
        )

    def metrics(self) -> Dict[str, float]:
        """Flat numeric form for sweep records and bench rows."""
        out: Dict[str, float] = {
            "relocations": len(self.relocations),
            "link_faded": self.link_faded,
            "source_emissions": self.source_emissions,
            "source_skipped": self.source_skipped,
        }
        if self.attacker is not None:
            out.update(self.attacker.metrics())
        return out
