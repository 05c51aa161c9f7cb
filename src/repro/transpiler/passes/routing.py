"""Routing passes: insert SWAPs to satisfy the coupling map (Sec. V-B).

Three mappers of increasing quality, mirroring the paper's narrative:

* :class:`BasicSwap` — the straightforward solution: walk each distant CNOT's
  qubits together along a shortest path (the naive mapper that "may
  drastically increase the number of gates").
* :class:`LookaheadSwap` — A*-style search that satisfies a whole front
  layer with a minimal swap sequence, following Zulehner, Paler & Wille
  (the paper's Ref. [39]).
* :class:`SabreSwap` — the bidirectional-heuristic router of Li, Ding & Xie
  (the paper's Ref. [18]), scoring candidate swaps on the front layer plus
  a discounted extended set, with a decay term against ping-ponging.

All routers consume a DAG already rewritten over physical qubits
(:class:`~repro.transpiler.passes.layout_passes.ApplyLayout`), schedule
gates straight off the DAG's front layer, and record the final home->slot
permutation in ``property_set['final_permutation']``.

Final measurements come after routing: a measurement with no later
operation on any of its wires (qubit, clbit, condition bits) is held back
and emitted on its qubit's final slot once routing is done, so no SWAP
follows it.  Measurements never enter swap scoring, so every router's
swap choices are unchanged.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.circuit.dag import DAGCircuit, DAGOpNode
from repro.circuit.library.standard_gates import SwapGate
from repro.exceptions import TranspilerError
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.passmanager import TransformationPass


class _FrontLayerScheduler:
    """Incremental front-layer view over a DAG.

    Counts each node's wire predecessors once, then advances along
    per-wire successor links as nodes complete: a node is ready when its
    count reaches zero.  :meth:`upcoming_2q` reads the routable 2q nodes
    from a cursor past the done ones.
    """

    def __init__(self, dag: DAGCircuit):
        self.dag = dag
        self.nodes = dag.topological_op_nodes()
        self.remaining = len(self.nodes)
        self._done: set[int] = set()
        self._blocked: dict[int, int] = {}
        self._ready: set[int] = set()
        self._by_id = {node.node_id: node for node in self.nodes}
        #: Routable 2q nodes in topological order; the first ``_head``
        #: are done.
        self.nodes_2q = [node for node in self.nodes if _is_routable_2q(node)]
        self._head = 0
        for node in self.nodes:
            missing = sum(
                1 for wire in node.wires
                if dag.wire_predecessor(node, wire) is not None
            )
            if missing:
                self._blocked[node.node_id] = missing
            else:
                self._ready.add(node.node_id)

    def ready(self) -> list[DAGOpNode]:
        """Front-layer nodes, in topological (insertion) order."""
        return [self._by_id[i] for i in sorted(self._ready)]

    def upcoming_2q(self, limit: int) -> list[DAGOpNode]:
        """The first ``limit`` routable 2q nodes not yet done, in
        topological order (the front layer's may be among them)."""
        done, nodes = self._done, self.nodes_2q
        while self._head < len(nodes) and nodes[self._head].node_id in done:
            self._head += 1
        upcoming = []
        for node in nodes[self._head:]:
            if node.node_id not in done:
                upcoming.append(node)
                if len(upcoming) >= limit:
                    break
        return upcoming

    def complete(self, node: DAGOpNode):
        """Mark a node executed, unblocking its per-wire successors."""
        if node.node_id in self._done:
            raise TranspilerError("instruction completed twice")
        self._done.add(node.node_id)
        self._ready.discard(node.node_id)
        self.remaining -= 1
        for wire in node.wires:
            successor = self.dag.wire_successor(node, wire)
            if successor is None:
                continue
            left = self._blocked[successor.node_id] - 1
            if left:
                self._blocked[successor.node_id] = left
            else:
                del self._blocked[successor.node_id]
                self._ready.add(successor.node_id)


class _RoutingState:
    """Shared bookkeeping for all routers."""

    def __init__(self, dag: DAGCircuit, coupling):
        self.dag = dag
        self.coupling = coupling
        self.physical_qubits = dag.qubits
        if dag.num_qubits != coupling.num_qubits:
            raise TranspilerError(
                "routing expects a circuit over the full physical register; "
                "run ApplyLayout first"
            )
        self.index_of = {q: i for i, q in enumerate(dag.qubits)}
        # pi[home] = current physical slot of the qubit that started at home.
        self.pi = list(range(coupling.num_qubits))
        self.out = dag.copy_empty_like()
        #: Final measurements, held back until :meth:`finish`.
        self._final: list[DAGOpNode] = []

    def current(self, qubit) -> int:
        """Current slot of a (home) physical-qubit wire."""
        return self.pi[self.index_of[qubit]]

    def emit(self, node: DAGOpNode):
        """Emit one instruction remapped through the current permutation.

        A final measurement (nothing follows it on any of its wires) is
        held back for :meth:`finish`.
        """
        dag = self.dag
        if node.operation.name == "measure" and not dag.successors(node):
            self._final.append(node)
            return
        self._apply(node)

    def _apply(self, node: DAGOpNode):
        new_qubits = [
            self.physical_qubits[self.current(q)] for q in node.qubits
        ]
        self.out.apply_operation_back(
            node.operation, new_qubits, list(node.clbits)
        )

    def finish(self, property_set) -> DAGCircuit:
        """Emit the final measurements, in their original order, on each
        qubit's final slot; record ``final_permutation``."""
        for node in sorted(self._final, key=lambda node: node.node_id):
            self._apply(node)
        property_set["final_permutation"] = list(self.pi)
        return self.out

    def emit_swap(self, slot_a: int, slot_b: int):
        """Emit a SWAP on two current slots and update the permutation."""
        if not self.coupling.connected(slot_a, slot_b):
            raise TranspilerError(
                f"swap on non-adjacent physical qubits {slot_a}, {slot_b}"
            )
        self.out.apply_operation_back(
            SwapGate(),
            [self.physical_qubits[slot_a], self.physical_qubits[slot_b]],
            [],
        )
        for home, slot in enumerate(self.pi):
            if slot == slot_a:
                self.pi[home] = slot_b
            elif slot == slot_b:
                self.pi[home] = slot_a

    def walk_together(self, node: DAGOpNode):
        """Swap a 2q gate's first qubit along a shortest path until it is
        adjacent to the second."""
        path = self.coupling.shortest_path(
            *(self.current(q) for q in node.qubits)
        )
        for hop in range(len(path) - 2):
            self.emit_swap(path[hop], path[hop + 1])

    def gate_distance(self, node: DAGOpNode) -> int:
        """Current undirected distance between a 2q gate's slots."""
        a, b = (self.current(q) for q in node.qubits)
        return self.coupling.distance(a, b)


def _is_routable_2q(node: DAGOpNode) -> bool:
    return len(node.qubits) == 2 and node.operation.name != "barrier"


class BasicSwap(TransformationPass):
    """Naive router: swap along a shortest path for every distant CNOT."""

    def __init__(self, coupling: CouplingMap):
        self._coupling = coupling

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        state = _RoutingState(dag, self._coupling)
        for node in dag.topological_op_nodes():
            if _is_routable_2q(node):
                state.walk_together(node)
            state.emit(node)
        return state.finish(property_set)


class SabreSwap(TransformationPass):
    """Heuristic router scoring swaps on front layer + extended set.

    With a calibrated :class:`~repro.transpiler.target.Target`, candidate
    swap edges are additionally penalized by their own CX error, steering
    traffic away from the device's worst couplers.

    Scoring is table-driven (distances, neighbours and error factors are
    built once per run; see :meth:`_best_swaps`).  Ties (within 1e-12)
    between equally scored swaps are broken by a generator seeded with
    ``seed`` (0 when None), so routing depends on the circuit and the
    device alone.  After :attr:`RELEASE_FACTOR` × n consecutive swaps
    that executed no gate (n = device qubits), a release valve
    (LightSABRE, arXiv:2409.08368) walks the closest front-layer gate's
    qubits together along a shortest path and resets the decay, so
    routing always finishes; on inputs that do not cycle it never fires.
    """

    EXTENDED_SIZE = 20
    EXTENDED_WEIGHT = 0.5
    DECAY_STEP = 0.001
    DECAY_RESET_INTERVAL = 5
    ERROR_WEIGHT = 10.0
    RELEASE_FACTOR = 10

    def __init__(self, coupling: CouplingMap, seed=None, target=None):
        self._coupling = coupling
        self._seed = seed
        self._target = target

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        coupling = self._coupling
        state = _RoutingState(dag, coupling)
        scheduler = _FrontLayerScheduler(dag)
        rng = np.random.default_rng(0 if self._seed is None else self._seed)
        n = coupling.num_qubits
        # Per-run tables.  Swaps keep qubits in their components, so with
        # every gate's home slots connected, scoring reads finite ints.
        dist = [[int(d) if math.isfinite(d) else d for d in row]
                for row in coupling.distance_matrix.tolist()]
        neighbors = [coupling.neighbors(slot) for slot in range(n)]
        pi = state.pi
        homes = {  # every routable 2q node's home slots
            node.node_id: tuple(state.index_of[q] for q in node.qubits)
            for node in scheduler.nodes_2q
        }
        for a, b in homes.values():
            coupling.distance(a, b)  # raises when a and b are disconnected
        factors = {}  # (low, high) -> 1 + ERROR_WEIGHT * calibrated cx error
        for a, b in coupling.edges if self._target is not None else ():
            edge = (min(a, b), max(a, b))
            error = self._target.cx_error(*edge)
            if error:
                factors[edge] = 1.0 + self.ERROR_WEIGHT * error

        def slots(node):
            a, b = homes[node.node_id]
            return pi[a], pi[b]

        decay = [1.0] * n
        since_reset = 0
        idle_swaps = 0
        release_after = self.RELEASE_FACTOR * n
        while scheduler.remaining:
            progress = False
            for node in scheduler.ready():
                pair = homes.get(node.node_id)
                if pair is not None and dist[pi[pair[0]]][pi[pair[1]]] > 1:
                    continue
                state.emit(node)
                scheduler.complete(node)
                progress = True
            if progress:
                idle_swaps = 0
                continue
            front = [
                node for node in scheduler.ready() if node.node_id in homes
            ]
            if not front:
                raise TranspilerError("router stalled with no 2q gate in front")
            if idle_swaps >= release_after:
                # Release valve: walk the closest front gate into place.
                state.walk_together(min(front, key=state.gate_distance))
                decay = [1.0] * n
                since_reset = 0
                idle_swaps = 0
                continue
            best_swaps = self._best_swaps(
                [slots(node) for node in front],
                [slots(node)
                 for node in scheduler.upcoming_2q(self.EXTENDED_SIZE)],
                decay, dist, neighbors, factors,
            )
            pick = best_swaps[int(rng.integers(len(best_swaps)))]
            state.emit_swap(*pick)
            decay[pick[0]] += self.DECAY_STEP
            decay[pick[1]] += self.DECAY_STEP
            since_reset += 1
            if since_reset >= self.DECAY_RESET_INTERVAL:
                decay = [1.0] * n
                since_reset = 0
            idle_swaps += 1
        return state.finish(property_set)

    def _best_swaps(self, front, extended, decay, dist, neighbors,
                    factors) -> list:
        """The lowest-scored candidate swaps (ties within 1e-12), in
        candidate order, for the front and extended gates' slot pairs.

        A candidate is an edge at a slot a front gate occupies.
        """
        involved = set()
        for a, b in front:
            involved.add(a)
            involved.add(b)
        best_score = None
        best_swaps = []
        seen = set()
        for slot in involved:
            for neighbor in neighbors[slot]:
                edge = (min(slot, neighbor), max(slot, neighbor))
                if edge in seen:
                    continue
                seen.add(edge)
                low, high = edge
                front_cost = (
                    _swapped_distance(front, dist, low, high) / len(front)
                )
                extended_cost = 0.0
                if extended:
                    extended_cost = (
                        self.EXTENDED_WEIGHT
                        * _swapped_distance(extended, dist, low, high)
                        / len(extended)
                    )
                score = max(decay[low], decay[high]) * (
                    front_cost + extended_cost
                )
                factor = factors.get(edge)
                if factor is not None:
                    score *= factor
                if best_score is None or score < best_score - 1e-12:
                    best_score = score
                    best_swaps = [edge]
                elif abs(score - best_score) <= 1e-12:
                    best_swaps.append(edge)
        return best_swaps


def _swapped_distance(pairs, dist, low, high) -> int:
    """The pairs' total distance once slots ``low`` and ``high`` swap."""
    total = 0
    for a, b in pairs:
        if a == low:
            a = high
        elif a == high:
            a = low
        if b == low:
            b = high
        elif b == high:
            b = low
        total += dist[a][b]
    return total


class LookaheadSwap(TransformationPass):
    """A*-based router: finds a swap sequence making the whole front layer
    executable before committing it (Zulehner-style)."""

    MAX_EXPANSIONS = 20_000
    LOOKAHEAD_SIZE = 8
    LOOKAHEAD_WEIGHT = 0.1

    def __init__(self, coupling: CouplingMap):
        self._coupling = coupling

    def run(self, dag: DAGCircuit, property_set) -> DAGCircuit:
        coupling = self._coupling
        state = _RoutingState(dag, coupling)
        scheduler = _FrontLayerScheduler(dag)
        while scheduler.remaining:
            progress = False
            for node in scheduler.ready():
                if _is_routable_2q(node) and state.gate_distance(node) > 1:
                    continue
                state.emit(node)
                scheduler.complete(node)
                progress = True
            if progress:
                continue
            front_pairs = []
            for node in scheduler.ready():
                if _is_routable_2q(node):
                    front_pairs.append(
                        (state.current(node.qubits[0]),
                         state.current(node.qubits[1]))
                    )
            if not front_pairs:
                raise TranspilerError("router stalled with no 2q gate in front")
            lookahead_pairs = [
                (state.current(node.qubits[0]), state.current(node.qubits[1]))
                for node in scheduler.upcoming_2q(self.LOOKAHEAD_SIZE)
            ]
            swaps = self._astar(state.pi, front_pairs, lookahead_pairs)
            for swap in swaps:
                state.emit_swap(*swap)
        return state.finish(property_set)

    def _astar(self, pi, front_pairs, lookahead_pairs):
        """Search for the shortest swap sequence satisfying ``front_pairs``.

        States are permutations sigma of slots (applied on top of the current
        mapping): a pair (a, b) currently at slots (a, b) sits at
        (sigma[a], sigma[b]) after the candidate swaps.
        """
        coupling = self._coupling
        n = coupling.num_qubits
        edges = list({(min(a, b), max(a, b)) for a, b in coupling.edges})

        def heuristic(sigma):
            cost = sum(
                coupling.distance(sigma[a], sigma[b]) - 1
                for a, b in front_pairs
            )
            if lookahead_pairs:
                cost += self.LOOKAHEAD_WEIGHT * sum(
                    coupling.distance(sigma[a], sigma[b]) - 1
                    for a, b in lookahead_pairs
                )
            return cost

        def satisfied(sigma):
            return all(
                coupling.distance(sigma[a], sigma[b]) == 1
                for a, b in front_pairs
            )

        start = tuple(range(n))
        open_heap = [(heuristic(start), 0, start, ())]
        best_g: dict = {start: 0}
        expansions = 0
        counter = 0
        while open_heap:
            _, g, sigma, swaps = heapq.heappop(open_heap)
            if g > best_g.get(sigma, float("inf")):
                continue
            if satisfied(sigma):
                return list(swaps)
            expansions += 1
            if expansions > self.MAX_EXPANSIONS:
                break
            for edge in edges:
                new_sigma = list(sigma)
                # Swapping slots edge[0], edge[1]: anything mapped there moves.
                for i in range(n):
                    if new_sigma[i] == edge[0]:
                        new_sigma[i] = edge[1]
                    elif new_sigma[i] == edge[1]:
                        new_sigma[i] = edge[0]
                new_sigma = tuple(new_sigma)
                new_g = g + 1
                if new_g < best_g.get(new_sigma, float("inf")):
                    best_g[new_sigma] = new_g
                    counter += 1
                    heapq.heappush(
                        open_heap,
                        (
                            new_g + heuristic(new_sigma),
                            new_g,
                            new_sigma,
                            swaps + (edge,),
                        ),
                    )
        # Fallback: route the first front pair along a shortest path.
        a, b = front_pairs[0]
        path = coupling.shortest_path(a, b)
        return [(path[i], path[i + 1]) for i in range(len(path) - 2)]
