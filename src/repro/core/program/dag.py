"""The data-transfer program DAG (Definition 3.10).

Nodes are primitive operations; an edge connects a producer's output port
to a consumer's input port.  With a *placement* (a map from operation id
to :class:`~repro.core.ops.base.Location`), edges whose endpoints run on
different systems become *cross-edges* and incur communication cost
(Section 4.1).  Shipping is one-way: a T → S edge is illegal.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PlacementError, ProgramError
from repro.core.fragment import Fragment
from repro.core.ops.base import Location, Operation
from repro.core.ops.scan import Scan
from repro.core.ops.write import Write

Placement = dict[int, Location]


@dataclass(frozen=True, slots=True)
class Edge:
    """A data-flow edge between two operation ports."""

    producer: Operation
    output_index: int
    consumer: Operation
    input_index: int

    @property
    def fragment(self) -> Fragment:
        """The fragment that flows along this edge."""
        return self.producer.outputs[self.output_index]


class TransferProgram:
    """A DAG of primitive operations with port-level edges."""

    def __init__(self) -> None:
        self.nodes: list[Operation] = []
        self.edges: list[Edge] = []
        self._out_edges: dict[int, list[Edge]] = {}
        self._in_edges: dict[int, list[Edge]] = {}

    # -- construction ----------------------------------------------------------

    def add(self, node: Operation) -> Operation:
        """Add a node and return it."""
        self.nodes.append(node)
        self._out_edges.setdefault(node.op_id, [])
        self._in_edges.setdefault(node.op_id, [])
        return node

    def connect(self, producer: Operation, output_index: int,
                consumer: Operation, input_index: int) -> Edge:
        """Connect a producer output port to a consumer input port.

        Raises:
            ProgramError: if ports are out of range, fragments mismatch,
                or the input port is already fed.
        """
        if producer.op_id not in self._out_edges:
            raise ProgramError(f"{producer!r} is not part of this program")
        if consumer.op_id not in self._in_edges:
            raise ProgramError(f"{consumer!r} is not part of this program")
        if not 0 <= output_index < len(producer.outputs):
            raise ProgramError(
                f"{producer.label()} has no output port {output_index}"
            )
        if not 0 <= input_index < len(consumer.inputs):
            raise ProgramError(
                f"{consumer.label()} has no input port {input_index}"
            )
        produced = producer.outputs[output_index]
        expected = consumer.inputs[input_index]
        if produced.elements != expected.elements:
            raise ProgramError(
                f"edge fragment mismatch: {producer.label()} produces "
                f"{produced.name!r} but {consumer.label()} expects "
                f"{expected.name!r}"
            )
        for edge in self._in_edges[consumer.op_id]:
            if edge.input_index == input_index:
                raise ProgramError(
                    f"input {input_index} of {consumer.label()} is "
                    "already connected"
                )
        edge = Edge(producer, output_index, consumer, input_index)
        self.edges.append(edge)
        self._out_edges[producer.op_id].append(edge)
        self._in_edges[consumer.op_id].append(edge)
        return edge

    # -- queries -----------------------------------------------------------------

    def scans(self) -> list[Scan]:
        """All Scan nodes."""
        return [node for node in self.nodes if isinstance(node, Scan)]

    def writes(self) -> list[Write]:
        """All Write nodes."""
        return [node for node in self.nodes if isinstance(node, Write)]

    def in_edges(self, node: Operation) -> list[Edge]:
        """Edges feeding ``node``, sorted by input port."""
        return sorted(
            self._in_edges.get(node.op_id, ()),
            key=lambda edge: edge.input_index,
        )

    def out_edges(self, node: Operation) -> list[Edge]:
        """Edges consuming ``node``'s outputs."""
        return list(self._out_edges.get(node.op_id, ()))

    def dangling_ports(self) -> list[tuple[int, int]]:
        """Output ports no edge consumes, sorted.  A well-formed
        program has none; the executor reports them as unconsumed
        program outputs."""
        consumed = {
            (edge.producer.op_id, edge.output_index)
            for edge in self.edges
        }
        return sorted(
            (node.op_id, index)
            for node in self.nodes
            for index in range(len(node.outputs))
            if (node.op_id, index) not in consumed
        )

    def producers(self, node: Operation) -> list[Operation]:
        """Direct upstream neighbours."""
        return [edge.producer for edge in self.in_edges(node)]

    def consumers(self, node: Operation) -> list[Operation]:
        """Direct downstream neighbours."""
        return [edge.consumer for edge in self.out_edges(node)]

    def upstream_closure(self, node: Operation) -> set[int]:
        """Ids of all strict ancestors of ``node``."""
        seen: set[int] = set()
        stack = [edge.producer for edge in self.in_edges(node)]
        while stack:
            current = stack.pop()
            if current.op_id in seen:
                continue
            seen.add(current.op_id)
            stack.extend(self.producers(current))
        return seen

    def downstream_closure(self, node: Operation) -> set[int]:
        """Ids of all strict descendants of ``node``."""
        seen: set[int] = set()
        stack = [edge.consumer for edge in self.out_edges(node)]
        while stack:
            current = stack.pop()
            if current.op_id in seen:
                continue
            seen.add(current.op_id)
            stack.extend(self.consumers(current))
        return seen

    def topological_order(self) -> list[Operation]:
        """Nodes in a topological order.

        Raises:
            ProgramError: if the graph has a cycle.
        """
        indegree = {
            node.op_id: len(self._in_edges.get(node.op_id, ()))
            for node in self.nodes
        }
        by_id = {node.op_id: node for node in self.nodes}
        ready = [node for node in self.nodes if indegree[node.op_id] == 0]
        order: list[Operation] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for edge in self.out_edges(node):
                indegree[edge.consumer.op_id] -= 1
                if indegree[edge.consumer.op_id] == 0:
                    ready.append(by_id[edge.consumer.op_id])
        if len(order) != len(self.nodes):
            raise ProgramError("program graph contains a cycle")
        return order

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness (Def. 3.10 plus builder
        invariants): every input port fed, every output consumed at most
        once, Scans have no producers, acyclicity.

        Raises:
            ProgramError: on the first violation found.
        """
        for node in self.nodes:
            fed = {edge.input_index for edge in self.in_edges(node)}
            if isinstance(node, Scan):
                if fed:
                    raise ProgramError(
                        f"{node.label()} must not have incoming edges"
                    )
            elif fed != set(range(len(node.inputs))):
                raise ProgramError(
                    f"{node.label()} has unconnected input ports "
                    f"{sorted(set(range(len(node.inputs))) - fed)}"
                )
            used = [edge.output_index for edge in self.out_edges(node)]
            if len(used) != len(set(used)):
                raise ProgramError(
                    f"an output of {node.label()} is consumed twice"
                )
        self.topological_order()

    # -- placement ---------------------------------------------------------------

    def placement_from_nodes(self) -> Placement:
        """Collect the current ``location`` annotations as a placement."""
        return {
            node.op_id: node.location
            for node in self.nodes
            if node.location is not None
        }

    def apply_placement(self, placement: Placement) -> None:
        """Write a placement back onto the nodes' ``location`` fields."""
        for node in self.nodes:
            node.location = placement.get(node.op_id)

    def validate_placement(self, placement: Placement) -> None:
        """Check a placement is total and legal (Section 4.1):

        * every node is assigned,
        * Scans run at the source and Writes at the target,
        * shipping is one-way — no T → S edge.

        Raises:
            PlacementError: on the first violation.
        """
        for node in self.nodes:
            location = placement.get(node.op_id)
            if location is None:
                raise PlacementError(f"{node.label()} is unassigned")
            if isinstance(node, Scan) and location is not Location.SOURCE:
                raise PlacementError(
                    f"{node.label()} must run at the source"
                )
            if isinstance(node, Write) and location is not Location.TARGET:
                raise PlacementError(
                    f"{node.label()} must run at the target"
                )
        for edge in self.edges:
            if (placement[edge.producer.op_id] is Location.TARGET
                    and placement[edge.consumer.op_id] is Location.SOURCE):
                raise PlacementError(
                    "illegal target-to-source edge "
                    f"{edge.producer.label()} -> {edge.consumer.label()}"
                )

    def cross_edges(self, placement: Placement) -> list[Edge]:
        """Edges whose endpoints run at different systems."""
        return [
            edge
            for edge in self.edges
            if placement[edge.producer.op_id]
            is not placement[edge.consumer.op_id]
        ]

    def __repr__(self) -> str:
        return (
            f"<TransferProgram {len(self.nodes)} nodes, "
            f"{len(self.edges)} edges>"
        )
