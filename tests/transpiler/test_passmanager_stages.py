"""Staged PassManager behaviour: pass kinds, property set, controllers."""

from __future__ import annotations

import pytest

from repro.circuit.quantumcircuit import QuantumCircuit
from repro.exceptions import TranspilerError
from repro.transpiler.passes.optimization import FixedPoint, Size
from repro.transpiler.passmanager import (
    DoWhileController,
    PassManager,
    PropertySet,
    TransformationPass,
)


class AddHGate(TransformationPass):
    def run(self, dag, property_set):
        from repro.circuit.library.standard_gates import get_standard_gate

        dag.apply_operation_back(get_standard_gate("h", []), [dag.qubits[0]])
        return dag


def _bell():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


class TestPropertySet:
    def test_attribute_access(self):
        properties = PropertySet()
        assert properties.missing is None
        properties.layout = "x"
        assert properties["layout"] == "x"
        del properties.layout
        assert properties.layout is None

    def test_private_attribute_raises(self):
        with pytest.raises(AttributeError):
            PropertySet()._nope


class TestControllers:
    def test_do_while_reaches_fixed_point(self):
        manager = PassManager()
        manager.append(
            DoWhileController(
                [Size(), FixedPoint("size")],
                do_while=lambda ps: not ps["size_fixed_point"],
            )
        )
        result = manager.run(_bell())
        assert result.size() == 2
        assert manager.property_set["size_fixed_point"]

    def test_do_while_iteration_cap(self):
        manager = PassManager()
        manager.append(
            DoWhileController(
                [AddHGate()], do_while=lambda ps: True, max_iterations=5
            )
        )
        with pytest.raises(TranspilerError):
            manager.run(_bell())

