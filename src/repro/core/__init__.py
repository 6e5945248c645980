"""The paper's primary contribution: the virtual architecture.

This package contains everything the algorithm designer sees — the virtual
topology, programming primitives, group middleware, cost functions, the
task-graph application model, the mapping stage, and the program-synthesis
pass — independent of any deployment (``repro.deployment``) or runtime
protocol (``repro.runtime``).
"""

from .coords import (
    ALL_DIRECTIONS,
    Direction,
    GridCoord,
    manhattan,
    morton_decode,
    morton_encode,
    xy_route,
)
from .auto_mapping import (
    AnnealingResult,
    anneal_mapping,
    balanced_energy_objective,
    latency_objective,
    total_energy_objective,
)
from .cost_model import (
    CostModel,
    EnergyLedger,
    FirstOrderRadioCostModel,
    PerformanceReport,
    UniformCostModel,
    energy_balance,
    system_lifetime,
    total_energy,
)
from .event_driven import (
    EventDrivenAggregation,
    ExpectedCost,
    expected_quadtree_cost,
    simulate_event_activations,
)
from .executor import ExecutionResult, execute_round
from .sync_executor import execute_round_sync
from .groups import (
    CenterLeaderPolicy,
    HierarchicalGroups,
    LeaderPolicy,
    NorthWestLeaderPolicy,
    RandomLeaderPolicy,
)
from .mapping import (
    ConstraintViolation,
    Mapping,
    check_all_constraints,
    check_coverage,
    check_spatial_correlation,
    recursive_quadrant_mapping,
    sink_rooted_mapping,
)
from .naming import LogicalNamingService, UnknownNameError
from .network_model import OrientedGrid, VirtualTopology, VirtualTree
from .primitives import CollectiveReport, Envelope, PrimitiveEnvironment
from .process_network import Channel, DeadlockError, ProcessNetwork
from .program import Context, Effect, Message, NodeProgram, Rule
from .synthesis import (
    Aggregation,
    CountAggregation,
    MaxAggregation,
    SumAggregation,
    SynthesizedProgram,
    synthesize_quadtree_program,
)
from .taskgraph import Task, TaskGraph, TaskId, build_quadtree, quadtree_ascii
from .tree_synthesis import TreeProgramSpec, synthesize_tree_program
from .virtual_architecture import VirtualArchitecture

__all__ = [
    "ALL_DIRECTIONS",
    "Aggregation",
    "AnnealingResult",
    "CenterLeaderPolicy",
    "Channel",
    "CollectiveReport",
    "ConstraintViolation",
    "Context",
    "CostModel",
    "CountAggregation",
    "DeadlockError",
    "Direction",
    "Effect",
    "EnergyLedger",
    "Envelope",
    "EventDrivenAggregation",
    "ExecutionResult",
    "ExpectedCost",
    "FirstOrderRadioCostModel",
    "GridCoord",
    "HierarchicalGroups",
    "LeaderPolicy",
    "LogicalNamingService",
    "Mapping",
    "MaxAggregation",
    "Message",
    "NodeProgram",
    "NorthWestLeaderPolicy",
    "OrientedGrid",
    "PerformanceReport",
    "PrimitiveEnvironment",
    "ProcessNetwork",
    "RandomLeaderPolicy",
    "Rule",
    "SumAggregation",
    "SynthesizedProgram",
    "Task",
    "TaskGraph",
    "TaskId",
    "TreeProgramSpec",
    "UnknownNameError",
    "VirtualArchitecture",
    "VirtualTopology",
    "VirtualTree",
    "anneal_mapping",
    "balanced_energy_objective",
    "build_quadtree",
    "check_all_constraints",
    "check_coverage",
    "check_spatial_correlation",
    "energy_balance",
    "execute_round",
    "execute_round_sync",
    "expected_quadtree_cost",
    "latency_objective",
    "manhattan",
    "morton_decode",
    "morton_encode",
    "quadtree_ascii",
    "recursive_quadrant_mapping",
    "simulate_event_activations",
    "sink_rooted_mapping",
    "synthesize_quadtree_program",
    "synthesize_tree_program",
    "system_lifetime",
    "total_energy",
    "total_energy_objective",
    "xy_route",
]
