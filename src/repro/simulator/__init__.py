"""Discrete-event simulation of the deployed sensor network.

Substitutes for the physical testbed the paper's runtime protocols target:
a deterministic event engine, a unit-disk wireless medium with per-packet
energy/latency from the cost model plus optional loss and jitter, and a
reactive per-node process model matching the paper's event-driven
programming style.
"""

from .engine import Simulator
from .network import Packet, WirelessMedium
from .process import Process, ProcessHost
from .trace import MediumStats

__all__ = [
    "MediumStats",
    "Packet",
    "Process",
    "ProcessHost",
    "Simulator",
    "WirelessMedium",
]
