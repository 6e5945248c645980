"""The virtual architecture facade (Section 2, Figure 1).

*"A virtual architecture is an abstract machine model for algorithm design
and synthesis and a set of primitives that are independent of low level
protocols used to implement them in the underlying network."*

:class:`VirtualArchitecture` bundles the four components the paper lists —
network model, programming primitives, middleware services, and cost
functions — into one object that the rest of the methodology flows through:

1. :meth:`design_environment` gives the algorithm designer the primitives
   with cost accounting (rapid first-order estimation).
2. :meth:`synthesize` turns an aggregation into the Figure 4 node programs
   via the synthesis pass.
3. :meth:`execute` runs the synthesized program on the virtual topology
   (exact design-time performance).
4. ``repro.runtime.stack.DeployedStack`` later binds the same programs to
   an arbitrarily deployed physical network.
"""

from __future__ import annotations

from typing import Optional

from .cost_model import CostModel, UniformCostModel
from .executor import ExecutionResult, execute_round
from .groups import HierarchicalGroups, LeaderPolicy
from .network_model import OrientedGrid
from .primitives import PrimitiveEnvironment
from .synthesis import Aggregation, SynthesizedProgram, synthesize_quadtree_program


class VirtualArchitecture:
    """A concrete virtual architecture: grid + groups + primitives + costs.

    Parameters
    ----------
    side:
        Side of the square oriented-grid topology (the set of points of
        coverage).  Must be a power of two for the quad-tree case study.
    cost_model:
        Cost functions; defaults to the paper's uniform model.
    branching:
        Group hierarchy branching (2 = quadrants, the case-study value).
    leader_policy:
        Middleware leader placement; defaults to the paper's NW rule.
    """

    def __init__(
        self,
        side: int,
        cost_model: Optional[CostModel] = None,
        branching: int = 2,
        leader_policy: Optional[LeaderPolicy] = None,
    ):
        self.grid = OrientedGrid(side)
        self.groups = HierarchicalGroups(
            self.grid, branching=branching, policy=leader_policy
        )
        self.cost_model = cost_model or UniformCostModel()

    def __repr__(self) -> str:
        return (
            f"VirtualArchitecture(grid={self.grid!r}, "
            f"max_level={self.groups.max_level}, cost={type(self.cost_model).__name__})"
        )

    @property
    def side(self) -> int:
        """Grid side length (``sqrt(N)``)."""
        return self.grid.width

    @property
    def num_nodes(self) -> int:
        """Number of virtual nodes / points of coverage (``N``)."""
        return self.grid.num_nodes

    def design_environment(self) -> PrimitiveEnvironment:
        """A fresh primitives environment for direct algorithm design."""
        return PrimitiveEnvironment(
            self.grid, groups=self.groups, cost_model=self.cost_model
        )

    def synthesize(
        self, aggregation: Aggregation, max_level: Optional[int] = None
    ) -> SynthesizedProgram:
        """Synthesize the quad-tree reduction program for ``aggregation``."""
        return synthesize_quadtree_program(
            self.groups, aggregation, max_level=max_level
        )

    def execute(
        self,
        aggregation: Aggregation,
        max_level: Optional[int] = None,
        charge_compute: bool = True,
    ) -> ExecutionResult:
        """Synthesize and run one round on the virtual grid."""
        spec = self.synthesize(aggregation, max_level=max_level)
        return execute_round(
            spec, cost_model=self.cost_model, charge_compute=charge_compute
        )
