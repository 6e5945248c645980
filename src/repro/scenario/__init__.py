"""Pluggable scenario models: radio, mobility, adversary, sources.

The seed reproduction exercises the paper's runtime over a unit-disk,
static, benign world.  :mod:`repro.scenario` opens the scenario axis: a
declarative :class:`Scenario` composes a radio :class:`LinkModel`
(:class:`UnitDisk`, :class:`LogNormalShadowing`, :class:`PerPairFading`),
a :class:`MobilityModel` of scheduled node relocations, an eavesdropping
pursuit :class:`Attacker` (source-location privacy), and a duty-cycled
:class:`SourcePeriodModel` — all seed-deterministic, fingerprinted, and
dict-round-trippable, so scenarios ride sweeps and serve configs exactly
like ``FaultPlan``\\ s do.  See DESIGN.md §14 for the interfaces, the RNG
stream discipline, and the fingerprint contract.
"""

from .attacker import Attacker, AttackerOutcome
from .inject import ScenarioInjector
from .link import (
    LinkGate,
    LinkModel,
    LogNormalShadowing,
    PerPairFading,
    UnitDisk,
    link_model_from_dict,
)
from .mobility import MobilityModel, Move, plan_cell_hops
from .sources import SourcePeriodModel
from .spec import Scenario, ScenarioReport

__all__ = [
    "Attacker",
    "AttackerOutcome",
    "LinkGate",
    "LinkModel",
    "LogNormalShadowing",
    "MobilityModel",
    "Move",
    "PerPairFading",
    "Scenario",
    "ScenarioInjector",
    "ScenarioReport",
    "SourcePeriodModel",
    "UnitDisk",
    "link_model_from_dict",
    "plan_cell_hops",
]
