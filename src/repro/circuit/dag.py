"""Directed-acyclic-graph IR for circuits.

The transpiler's analysis and routing passes (Sec. V-B) work on wire
dependencies rather than the flat instruction list: two gates on disjoint
qubits commute trivially, and a router consumes the *front layer* of gates
whose predecessors have all been executed.

Since PR 4 the DAG is the transpiler's working representation, not just a
view: every pass receives a :class:`DAGCircuit` and the flat
:class:`~repro.circuit.quantumcircuit.QuantumCircuit` exists only at the
pipeline boundary (:func:`circuit_to_dag` / :func:`dag_to_circuit`).  The
graph is stored as one doubly-linked list per wire (qubit, clbit, or
condition bit), which makes removing a node a local splice.  A pass that
replaces nodes rebuilds the DAG in one linear pass instead, so node ids
always follow a topological order.
"""

from __future__ import annotations

import itertools

from repro.circuit.circuitinstruction import CircuitInstruction
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import CircuitError


#: Link keys pack ``node_id << _WIRE_BITS | wire_id`` into one int (no
#: DAG holds anywhere near 2**32 wires).
_WIRE_BITS = 32


class DAGOpNode:
    """One operation node in the DAG.

    ``wires`` holds every wire the node touches once, in first-use order:
    its qubits, its clbits, then the condition's bits.  A barrier may name
    a qubit twice; its wires still hold it once.
    """

    __slots__ = ("node_id", "operation", "qubits", "clbits", "wires")

    def __init__(self, node_id, operation, qubits, clbits):
        self.node_id = node_id
        self.operation = operation
        self.qubits = tuple(qubits)
        self.clbits = tuple(clbits)
        wires = self.qubits + self.clbits
        condition = operation.condition
        if condition is not None:
            wires += tuple(condition[0])
        self.wires = tuple(dict.fromkeys(wires))

    @property
    def name(self) -> str:
        """Operation name."""
        return self.operation.name

    def __repr__(self):
        return f"DAGOpNode({self.node_id}: {self.operation.name} {list(self.qubits)})"


def _relink(links: dict, key, node_id) -> None:
    """Point ``key`` at ``node_id``, or drop it when that is None."""
    if node_id is None:
        links.pop(key, None)
    else:
        links[key] = node_id


class DAGCircuit:
    """Wire-dependency DAG over a circuit's operations.

    Ground truth is per-wire doubly-linked lists.  Each wire gets a small
    integer id on first use (``_wire_ids``), and ``_prev`` / ``_next`` key
    a node's link on a wire by the one int ``node_id << _WIRE_BITS |
    wire_id``, so a link allocates no tuple; ``_wire_tail`` holds each
    wire's last node.  Aggregated successor/predecessor sets are derived
    on demand.  ``_order`` records node ids in a valid topological order
    with lazy deletion (removed ids are skipped, and the list is
    compacted when mostly dead).
    """

    def __init__(self, circuit: QuantumCircuit | None = None):
        self._circuit = circuit
        self._counter = itertools.count()
        self._nodes: dict[int, DAGOpNode] = {}
        self._order: list[int] = []
        self._wire_ids: dict = {}
        self._wire_tail: dict = {}
        self._next: dict = {}
        self._prev: dict = {}
        self.name = None
        self.qregs: list = []
        self.cregs: list = []
        self.qubits: list = []
        self.clbits: list = []
        if circuit is not None:
            self.name = circuit.name
            self.qregs = list(circuit.qregs)
            self.cregs = list(circuit.cregs)
            self.qubits = list(circuit.qubits)
            self.clbits = list(circuit.clbits)
            for item in circuit.data:
                self.apply_operation_back(
                    item.operation, item.qubits, item.clbits
                )

    # -- metadata --------------------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        """The source circuit (materialized if this DAG was built fresh)."""
        if self._circuit is not None:
            return self._circuit
        return self.to_circuit()

    @property
    def num_qubits(self) -> int:
        """Number of qubit wires."""
        return len(self.qubits)

    @property
    def num_clbits(self) -> int:
        """Number of classical wires."""
        return len(self.clbits)

    def copy_empty_like(self) -> "DAGCircuit":
        """A new DAG with the same wires/registers and no operations."""
        fresh = DAGCircuit()
        fresh._circuit = self._circuit
        fresh.name = self.name
        fresh.qregs = list(self.qregs)
        fresh.cregs = list(self.cregs)
        fresh.qubits = list(self.qubits)
        fresh.clbits = list(self.clbits)
        return fresh

    # -- construction ----------------------------------------------------------

    def apply_operation_back(self, operation, qubits, clbits=()) -> DAGOpNode:
        """Append an operation at the end of its wires."""
        node_id = next(self._counter)
        node = DAGOpNode(node_id, operation, qubits, clbits)
        self._nodes[node_id] = node
        self._order.append(node_id)
        base = node_id << _WIRE_BITS
        wire_ids = self._wire_ids
        tails = self._wire_tail
        for wire in node.wires:
            wire_id = wire_ids.get(wire)
            if wire_id is None:
                wire_id = wire_ids[wire] = len(wire_ids)
            tail = tails.get(wire_id)
            if tail is not None:
                self._next[tail << _WIRE_BITS | wire_id] = node_id
                self._prev[base | wire_id] = tail
            tails[wire_id] = node_id
        return node

    def _keys(self, node: DAGOpNode) -> list:
        """The node's link key on each of its wires."""
        base = node.node_id << _WIRE_BITS
        return [base | self._wire_ids[wire] for wire in node.wires]

    def __contains__(self, node: DAGOpNode) -> bool:
        return node.node_id in self._nodes

    # -- basic queries ---------------------------------------------------------

    def op_nodes(self, name=None) -> list[DAGOpNode]:
        """All operation nodes in topological (insertion) order."""
        if len(self._order) > 2 * len(self._nodes):
            self._order = [i for i in self._order if i in self._nodes]
        nodes = [self._nodes[i] for i in self._order if i in self._nodes]
        if name is not None:
            nodes = [n for n in nodes if n.operation.name == name]
        return nodes

    def topological_op_nodes(self) -> list[DAGOpNode]:
        """Operation nodes in a valid topological order."""
        return self.op_nodes()

    def _wire_neighbour(self, links: dict, node: DAGOpNode, wire):
        wire_id = self._wire_ids.get(wire)
        if wire_id is None:
            return None
        other = links.get(node.node_id << _WIRE_BITS | wire_id)
        return self._nodes[other] if other is not None else None

    def wire_successor(self, node: DAGOpNode, wire) -> DAGOpNode | None:
        """The next node on ``wire`` after ``node`` (None at the wire end)."""
        return self._wire_neighbour(self._next, node, wire)

    def wire_predecessor(self, node: DAGOpNode, wire) -> DAGOpNode | None:
        """The node on ``wire`` just before ``node`` (None at the start)."""
        return self._wire_neighbour(self._prev, node, wire)

    def _neighbours(self, links: dict, node: DAGOpNode) -> list:
        ids = {links.get(key) for key in self._keys(node)}
        ids.discard(None)
        return [self._nodes[i] for i in sorted(ids)]

    def successors(self, node: DAGOpNode) -> list[DAGOpNode]:
        """Direct successors of ``node`` across all of its wires."""
        return self._neighbours(self._next, node)

    def predecessors(self, node: DAGOpNode) -> list[DAGOpNode]:
        """Direct predecessors of ``node`` across all of its wires."""
        return self._neighbours(self._prev, node)

    def front_layer(self) -> list[DAGOpNode]:
        """Nodes with no predecessors on any of their wires."""
        return [
            node for node in self.op_nodes()
            if all(key not in self._prev for key in self._keys(node))
        ]

    # -- node surgery ----------------------------------------------------------

    def remove_op_node(self, node: DAGOpNode) -> None:
        """Delete a node, splicing each wire's neighbours together."""
        node_id = node.node_id
        if node_id not in self._nodes:
            raise CircuitError("node not in DAG")
        for wire in node.wires:
            wire_id = self._wire_ids[wire]
            key = node_id << _WIRE_BITS | wire_id
            prev = self._prev.pop(key, None)
            nxt = self._next.pop(key, None)
            if prev is not None:
                _relink(self._next, prev << _WIRE_BITS | wire_id, nxt)
            if nxt is not None:
                _relink(self._prev, nxt << _WIRE_BITS | wire_id, prev)
            else:
                _relink(self._wire_tail, wire_id, prev)
        del self._nodes[node_id]

    # -- analysis --------------------------------------------------------------

    def layers(self):
        """Yield lists of nodes by ASAP level (like Fig. 1b columns)."""
        level: dict[int, int] = {}
        buckets: dict[int, list[DAGOpNode]] = {}
        for node in self.op_nodes():
            preds = (self._prev.get(key) for key in self._keys(node))
            lvl = max(
                (level[p] for p in preds if p is not None), default=-1
            ) + 1
            level[node.node_id] = lvl
            buckets.setdefault(lvl, []).append(node)
        for lvl in sorted(buckets):
            yield buckets[lvl]

    def depth(self) -> int:
        """Longest path length over op nodes (barriers excluded)."""
        level: dict[int, int] = {}
        depth = 0
        for node in self.op_nodes():
            preds = (self._prev.get(key) for key in self._keys(node))
            lvl = max((level[p] for p in preds if p is not None), default=0)
            if node.operation.name != "barrier":
                lvl += 1
            level[node.node_id] = lvl
            depth = max(depth, lvl)
        return depth

    def count_ops(self) -> dict:
        """Histogram of op names."""
        counts: dict = {}
        for node in self.op_nodes():
            counts[node.name] = counts.get(node.name, 0) + 1
        return counts

    def size(self) -> int:
        """Number of operations (barriers included)."""
        return len(self._nodes)

    def two_qubit_ops(self) -> list[DAGOpNode]:
        """All 2-qubit gates (the CNOT-constraint carriers of Sec. II-B)."""
        return [
            n
            for n in self.op_nodes()
            if len(n.qubits) == 2 and n.operation.name != "barrier"
        ]

    def to_circuit(self) -> QuantumCircuit:
        """Rebuild a flat circuit in topological order."""
        if self._circuit is not None:
            fresh = self._circuit.copy_empty_like()
            fresh.name = self.name if self.name is not None else fresh.name
        else:
            fresh = QuantumCircuit(
                name=self.name if self.name is not None else "dag-circuit"
            )
            for register in self.qregs:
                fresh.add_register(register)
            for register in self.cregs:
                fresh.add_register(register)
        for node in self.op_nodes():
            fresh.data.append(
                CircuitInstruction(
                    node.operation.copy(), list(node.qubits), list(node.clbits)
                )
            )
        return fresh


def circuit_to_dag(circuit: QuantumCircuit) -> DAGCircuit:
    """Convert a flat circuit into the DAG IR (pipeline entry boundary)."""
    return DAGCircuit(circuit)


def dag_to_circuit(dag: DAGCircuit) -> QuantumCircuit:
    """Convert the DAG IR back to a flat circuit (pipeline exit boundary)."""
    return dag.to_circuit()
