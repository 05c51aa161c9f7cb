"""Tests for the DAG circuit representation."""

import pytest

from repro.circuit import ClassicalRegister, QuantumCircuit, QuantumRegister
from repro.circuit.dag import DAGCircuit


def _fig1_like():
    circuit = QuantumCircuit(4)
    circuit.h(2)
    circuit.cx(2, 3)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.cx(1, 2)
    circuit.t(0)
    circuit.cx(2, 0)
    circuit.cx(0, 1)
    return circuit


class TestDAGConstruction:
    def test_node_count(self):
        dag = DAGCircuit(_fig1_like())
        assert len(dag.op_nodes()) == 8

    def test_front_layer(self):
        dag = DAGCircuit(_fig1_like())
        front_names = sorted(n.name for n in dag.front_layer())
        # h(2), cx(0,1), t? t(0) depends on cx(0,1). Front: h(2), cx(0,1).
        assert front_names == ["cx", "h"]

    def test_named_filter(self):
        dag = DAGCircuit(_fig1_like())
        assert len(dag.op_nodes("cx")) == 5

    def test_successors_predecessors(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.x(1)
        dag = DAGCircuit(circuit)
        h, cx, x = dag.op_nodes()
        assert dag.successors(h) == [cx]
        assert dag.predecessors(cx) == [h]
        assert dag.successors(cx) == [x]
        assert dag.predecessors(h) == []

    def test_classical_wire_dependency(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 0)  # same clbit: must be ordered
        dag = DAGCircuit(circuit)
        first, second = dag.op_nodes()
        assert dag.successors(first) == [second]


class TestDAGAnalysis:
    def test_depth_matches_circuit(self):
        circuit = _fig1_like()
        assert DAGCircuit(circuit).depth() == circuit.depth()

    def test_layers(self):
        dag = DAGCircuit(_fig1_like())
        layers = list(dag.layers())
        assert [n.name for n in layers[0]] == ["h", "cx"]
        assert sum(len(layer) for layer in layers) == 8

    def test_count_ops(self):
        dag = DAGCircuit(_fig1_like())
        assert dag.count_ops() == {"h": 2, "cx": 5, "t": 1}

    def test_two_qubit_ops(self):
        dag = DAGCircuit(_fig1_like())
        assert len(dag.two_qubit_ops()) == 5


class TestDAGMutation:
    def test_remove_front_node_unlocks_successor(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        dag = DAGCircuit(circuit)
        h = dag.front_layer()[0]
        dag.remove_op_node(h)
        assert [n.name for n in dag.front_layer()] == ["cx"]

    def test_remove_middle_splices(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.x(0)
        circuit.z(0)
        dag = DAGCircuit(circuit)
        _h, x, _z = dag.op_nodes()
        dag.remove_op_node(x)
        names = [n.name for n in dag.op_nodes()]
        assert names == ["h", "z"]
        h, z = dag.op_nodes()
        assert dag.successors(h) == [z]

    def test_to_circuit_roundtrip(self):
        circuit = _fig1_like()
        rebuilt = DAGCircuit(circuit).to_circuit()
        assert rebuilt.count_ops() == circuit.count_ops()
        assert rebuilt == circuit


class TestDAGWires:
    def test_condition_bits_overlapping_clbits_are_deduped(self):
        qreg, creg = QuantumRegister(1, "q"), ClassicalRegister(2, "c")
        circuit = QuantumCircuit(qreg, creg)
        circuit.measure(0, 0)
        circuit.data[-1].operation.c_if(creg, 1)
        dag = DAGCircuit(circuit)
        (node,) = dag.op_nodes()
        assert node.wires == (qreg[0], creg[0], creg[1])

    def test_removing_a_conditioned_node_splices_every_wire(self):
        qreg, creg = QuantumRegister(2, "q"), ClassicalRegister(2, "c")
        circuit = QuantumCircuit(qreg, creg)
        circuit.measure(0, 0)
        circuit.x(1)
        circuit.data[-1].operation.c_if(creg, 1)
        circuit.measure(1, 1)
        dag = DAGCircuit(circuit)
        first, conditioned, last = dag.op_nodes()
        assert dag.wire_successor(first, creg[0]) is conditioned
        assert dag.wire_predecessor(last, creg[1]) is conditioned
        dag.remove_op_node(conditioned)
        assert dag.wire_successor(first, creg[0]) is None
        assert dag.wire_predecessor(last, creg[1]) is None
        assert dag.wire_predecessor(last, qreg[1]) is None
        assert dag.front_layer() == [first, last]
        # The emptied wires accept new nodes at their heads again.
        tail = dag.apply_operation_back(conditioned.operation, [qreg[1]])
        assert dag.wire_predecessor(tail, creg[0]) is first
        assert dag.wire_predecessor(tail, creg[1]) is last

    def test_barrier_naming_a_qubit_twice_holds_the_wire_once(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.barrier(0, 0, 1)
        circuit.h(0)
        dag = DAGCircuit(circuit)
        first, barrier, last = dag.op_nodes()
        assert barrier.qubits == (circuit.qubits[0],) * 2 + (circuit.qubits[1],)
        assert barrier.wires == tuple(circuit.qubits)
        assert dag.wire_successor(barrier, circuit.qubits[0]) is last
        assert dag.predecessors(last) == [barrier]
        assert dag.depth() == 2
        dag.remove_op_node(barrier)
        assert dag.wire_successor(first, circuit.qubits[0]) is last
        assert dag.wire_predecessor(last, circuit.qubits[0]) is first
        assert dag.front_layer() == [first]
