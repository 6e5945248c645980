"""Pluggable radio link models for the wireless medium (DESIGN.md §14).

The seed simulator's medium is a unit disk: every alive neighbour within
range hears every packet, minus the independent ``loss_rate`` coin.  Real
testbeds (WiFly, Watteyne et al.) show something harsher: per-link,
*asymmetric* reception probabilities shaped by path loss and log-normal
shadowing.  This module supplies that as an optional admission gate on
:class:`~repro.simulator.network.WirelessMedium` — a :class:`LinkModel`
builds a :class:`LinkGate` that decides, per directed link and per packet,
whether the receiver hears the frame at all.

Determinism contract:

* Per-packet admission NEVER consumes the medium RNG — that would shift
  the loss/jitter stream of every other transmission.  Decisions derive
  from (a) link parameters drawn **once** at gate-build time from the
  model's own declarative ``seed`` (iterated in sorted adjacency order),
  and (b) a splitmix64-style counter hash per directed link, so the
  *n*-th packet on link ``(u, v)`` gets the same verdict in every
  process and with the wire codec on or off.
* :class:`UnitDisk` builds no gate: selecting it explicitly is
  byte-identical to running without a link model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

import numpy as np

from ..simulator.trace import stable_digest, stable_unit

if TYPE_CHECKING:  # pragma: no cover
    from ..deployment.topology import RealNetwork

#: hash-domain tag of the per-packet admission draws
_ADMIT_TAG = 0xAD317


def _normalized_distance(net: "RealNetwork", u: int, v: int) -> float:
    """Distance between ``u`` and ``v`` as a fraction of their mutual reach."""
    a, b = net.node(u), net.node(v)
    d = math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])
    reach = min(a.tx_range, b.tx_range)
    return d / reach if reach > 0 else 1.0


class LinkGate:
    """Per-directed-link packet admission, installed on the medium.

    ``admit(src, dst)`` is called once per potential reception, *after*
    liveness and blocked-link filtering and *before* any loss/jitter RNG
    draw.  Node positions never change, so each link's reception
    probability is computed once, on its first packet, and cached.
    """

    __slots__ = ("_seed", "_prob_fn", "_counts", "_pcache", "faded")

    def __init__(self, seed: int, prob_fn: Callable[[int, int], float]):
        self._seed = seed
        self._prob_fn = prob_fn
        self._counts: Dict[Tuple[int, int], int] = {}
        self._pcache: Dict[Tuple[int, int], float] = {}
        #: packets suppressed by the model (the run result's ``link_faded``)
        self.faded = 0

    def admit(self, src: int, dst: int) -> bool:
        """Does packet number *n* on directed link ``(src, dst)`` get through?"""
        key = (src, dst)
        n = self._counts.get(key, 0)
        self._counts[key] = n + 1
        p = self._pcache.get(key)
        if p is None:
            p = self._prob_fn(src, dst)
            self._pcache[key] = p
        if p >= 1.0:
            return True
        if stable_unit(self._seed, _ADMIT_TAG, src, dst, n) < p:
            return True
        self.faded += 1
        return False


class LinkModel:
    """Interface of a declarative radio model.

    Subclasses are frozen dataclasses: dict-round-trippable, fingerprinted,
    and pure functions of their fields (the ``seed`` field included), so a
    model rebuilt from its dict form in a sweep worker builds the
    identical gate there.
    """

    kind: str = "abstract"

    def build_gate(self, network: "RealNetwork") -> Optional[LinkGate]:
        """Build the admission gate (None = no gating needed).  A deployed
        stack builds one per model and keeps it across its rounds, so the
        per-link packet counters run on from round to round."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable digest of the model's declarative identity."""
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (sweep params / JSON grids)."""
        raise NotImplementedError


@dataclass(frozen=True)
class UnitDisk(LinkModel):
    """Today's physics, named: every in-range neighbour hears everything.

    Builds no gate, so selecting it explicitly is byte-identical to not
    passing a link model at all: the named baseline of a ``link`` sweep
    axis costs the run nothing.
    """

    kind: str = "unit_disk"

    def build_gate(self, network: "RealNetwork") -> Optional[LinkGate]:
        return None

    def fingerprint(self) -> str:
        return stable_digest(("link", self.kind))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind}


@dataclass(frozen=True)
class LogNormalShadowing(LinkModel):
    """Log-normal shadowing over a log-distance path-loss margin.

    Each *directed* link gets a shadowing term ``N(0, sigma)`` dB drawn
    once at build time from ``default_rng(seed)`` in sorted adjacency
    order — directed, so the u→v and v→u draws differ: this is what makes
    links *asymmetric*.  Reception probability is a logistic squash of the
    fade margin::

        x      = distance / mutual_reach          (0 < x <= 1 on a link)
        margin = -10·ple·log10(x) + shadow        (dB above sensitivity)
        p      = 1 / (1 + exp(-margin / softness))

    At the edge of range (``x = 1``) the margin is the shadow alone, so
    ``p ≈ 0.5`` links appear exactly where testbeds see their "gray
    region"; close links saturate to ``p ≈ 1``.
    """

    sigma: float = 4.0
    path_loss_exponent: float = 2.0
    softness: float = 2.0
    seed: int = 0
    kind: str = "log_normal_shadowing"

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.path_loss_exponent <= 0:
            raise ValueError(
                f"path_loss_exponent must be > 0, got {self.path_loss_exponent}"
            )
        if self.softness <= 0:
            raise ValueError(f"softness must be > 0, got {self.softness}")

    def build_gate(self, network: "RealNetwork") -> Optional[LinkGate]:
        rng = np.random.default_rng(self.seed)
        shadows: Dict[Tuple[int, int], float] = {}
        for u in network.node_ids():
            for v in network.neighbors(u, alive_only=False):
                shadows[(u, v)] = float(rng.normal(0.0, self.sigma))
        ple, softness = self.path_loss_exponent, self.softness

        def prob(u: int, v: int) -> float:
            x = max(_normalized_distance(network, u, v), 1e-9)
            margin = -10.0 * ple * math.log10(x) + shadows[(u, v)]
            t = min(max(margin / softness, -60.0), 60.0)
            return 1.0 / (1.0 + math.exp(-t))

        return LinkGate(self.seed, prob)

    def fingerprint(self) -> str:
        return stable_digest(
            ("link", self.kind, self.sigma, self.path_loss_exponent,
             self.softness, self.seed)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "sigma": self.sigma,
            "path_loss_exponent": self.path_loss_exponent,
            "softness": self.softness,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class PerPairFading(LinkModel):
    """Deterministic distance-proportional fading — no RNG anywhere.

    Packet *n* on link ``(u, v)`` is delivered iff ``hash(seed, u, v, n)
    >= depth · x`` with ``x`` the normalized distance, i.e. reception
    probability ``1 - depth·x``: adjacent nodes barely fade, edge-of-range
    links lose up to ``depth`` of their traffic.  Every draw is a pure
    hash, so the model is reproducible even across machines with different
    numpy builds.
    """

    depth: float = 0.5
    seed: int = 0
    kind: str = "per_pair_fading"

    def __post_init__(self) -> None:
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError(f"depth must be in [0, 1], got {self.depth}")

    def build_gate(self, network: "RealNetwork") -> Optional[LinkGate]:
        depth = self.depth

        def prob(u: int, v: int) -> float:
            x = min(max(_normalized_distance(network, u, v), 0.0), 1.0)
            return 1.0 - depth * x

        return LinkGate(self.seed, prob)

    def fingerprint(self) -> str:
        return stable_digest(("link", self.kind, self.depth, self.seed))

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "depth": self.depth, "seed": self.seed}


#: kind tag -> model class, for dict round-trips
LINK_MODEL_KINDS: Dict[str, type] = {
    UnitDisk.kind: UnitDisk,
    LogNormalShadowing.kind: LogNormalShadowing,
    PerPairFading.kind: PerPairFading,
}


def link_model_from_dict(spec: Dict[str, Any]) -> LinkModel:
    """Inverse of every model's ``to_dict`` (dispatch on ``kind``)."""
    kind = spec.get("kind")
    cls = LINK_MODEL_KINDS.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown link model kind {kind!r}; expected one of "
            f"{sorted(LINK_MODEL_KINDS)}"
        )
    fields = {k: v for k, v in spec.items() if k != "kind"}
    return cls(**fields)
