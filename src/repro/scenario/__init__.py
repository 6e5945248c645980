"""Pluggable radio link models for the deployed round (DESIGN.md §14).

The seed reproduction exercises the paper's runtime over a unit-disk
medium, where every in-range neighbour hears every packet minus the
uniform ``loss_rate`` coin.  :mod:`repro.scenario` replaces that physics
with a declarative :class:`LinkModel` — :class:`UnitDisk`,
:class:`LogNormalShadowing` (asymmetric per-link shadowing) or
:class:`PerPairFading` — that builds a per-run :class:`LinkGate` on the
medium.  Every model is seed-deterministic, fingerprinted and
dict-round-trippable, so it rides ``run_application(link_model=...)``
and the ``e1`` sweep workload's ``link`` axis.
"""

from .link import (
    LinkGate,
    LinkModel,
    LogNormalShadowing,
    PerPairFading,
    UnitDisk,
    link_model_from_dict,
)

__all__ = [
    "LinkGate",
    "LinkModel",
    "LogNormalShadowing",
    "PerPairFading",
    "UnitDisk",
    "link_model_from_dict",
]
