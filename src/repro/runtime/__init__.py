"""Runtime system: the Section 5 protocols and the deployed stack.

Implements the two functionalities the paper's runtime is responsible
for — *"emulating the grid topology on the arbitrary network deployment,
and binding virtual processes of the synthesized program to real nodes of
the underlying network"* — plus the transport layer that forwards
cell-addressed messages over the emulated grid and the maintenance
utilities for churn and recovery.
"""

from .binding import (
    Binding,
    BindingResult,
    LeaderElectionProcess,
    bind_processes,
    distance_to_center_metric,
    oracle_binding,
    residual_energy_metric,
)
from .clustered_mesh import LeaderMesh, MeshResult, build_leader_mesh
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultReport,
    HealingConfig,
    plan_chaos,
)
from .maintenance import (
    RecoveryReport,
    kill_leaders,
    kill_random_nodes,
    recover,
    rotate_leaders,
)
from .routing import (
    TransportEnvelope,
    TransportProcess,
    next_direction,
    trace_route,
)
from .stack import DeployedRunResult, DeployedStack, SetupReport, deploy
from .topology_emulation import (
    EmulatedTopology,
    EmulationResult,
    TopologyEmulationProcess,
    emulate_topology,
    max_intra_cell_path_length,
    oracle_reachable_directions,
)
from .wire import (
    WIRE_VERSION,
    WireDecodeError,
    WireEncodeError,
    WireError,
    decode_ack,
    decode_envelope,
    encode_ack,
    encode_envelope,
)

__all__ = [
    "Binding",
    "BindingResult",
    "DeployedRunResult",
    "DeployedStack",
    "EmulatedTopology",
    "EmulationResult",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "HealingConfig",
    "LeaderElectionProcess",
    "LeaderMesh",
    "MeshResult",
    "RecoveryReport",
    "SetupReport",
    "TopologyEmulationProcess",
    "TransportEnvelope",
    "TransportProcess",
    "WIRE_VERSION",
    "WireDecodeError",
    "WireEncodeError",
    "WireError",
    "bind_processes",
    "build_leader_mesh",
    "decode_ack",
    "decode_envelope",
    "deploy",
    "distance_to_center_metric",
    "emulate_topology",
    "encode_ack",
    "encode_envelope",
    "kill_leaders",
    "kill_random_nodes",
    "max_intra_cell_path_length",
    "next_direction",
    "oracle_binding",
    "oracle_reachable_directions",
    "plan_chaos",
    "recover",
    "residual_energy_metric",
    "rotate_leaders",
    "trace_route",
]
