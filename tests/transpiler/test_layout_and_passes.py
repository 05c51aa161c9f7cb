"""Tests for Layout, layout-selection passes, and the pass manager."""

import pytest

from repro.circuit import QuantumCircuit, QuantumRegister
from repro.exceptions import TranspilerError
from repro.transpiler import CouplingMap, Layout, PassManager
from repro.transpiler.passes import (
    ApplyLayout,
    DenseLayout,
    SetLayout,
    TrivialLayout,
)
from repro.transpiler.passmanager import BasePass, TransformationPass


class TestLayout:
    def test_trivial(self):
        qreg = QuantumRegister(3, "q")
        layout = Layout.trivial(list(qreg))
        assert layout.physical(qreg[1]) == 1
        assert layout.virtual(2) == qreg[2]

    def test_from_intlist(self):
        qreg = QuantumRegister(3, "q")
        layout = Layout.from_intlist([4, 0, 2], list(qreg))
        assert layout.physical(qreg[0]) == 4
        assert layout.virtual(0) == qreg[1]

    def test_duplicate_physical_raises(self):
        qreg = QuantumRegister(2, "q")
        with pytest.raises(TranspilerError):
            Layout.from_intlist([1, 1], list(qreg))

    def test_swap_updates_both_maps(self):
        qreg = QuantumRegister(2, "q")
        layout = Layout.trivial(list(qreg))
        layout.swap(0, 1)
        assert layout.physical(qreg[0]) == 1
        assert layout.virtual(0) == qreg[1]

    def test_swap_with_empty_slot(self):
        qreg = QuantumRegister(1, "q")
        layout = Layout.trivial(list(qreg))
        layout.swap(0, 3)
        assert layout.physical(qreg[0]) == 3
        assert layout.virtual(0) is None

    def test_copy_independent(self):
        qreg = QuantumRegister(2, "q")
        layout = Layout.trivial(list(qreg))
        clone = layout.copy()
        clone.swap(0, 1)
        assert layout.physical(qreg[0]) == 0

    def test_missing_entry_raises(self):
        layout = Layout()
        with pytest.raises(TranspilerError):
            layout.physical(QuantumRegister(1, "q")[0])


class TestLayoutPasses:
    def test_trivial_layout_pass(self, bell):
        manager = PassManager([TrivialLayout(CouplingMap.qx4())])
        manager.run(bell)
        layout = manager.property_set["layout"]
        assert layout.to_intlist(bell.qubits) == [0, 1]

    def test_trivial_layout_too_wide(self):
        circuit = QuantumCircuit(6)
        with pytest.raises(TranspilerError):
            PassManager([TrivialLayout(CouplingMap.qx4())]).run(circuit)

    def test_dense_layout_picks_connected_region(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        manager = PassManager([DenseLayout(CouplingMap.qx5())])
        manager.run(circuit)
        layout = manager.property_set["layout"]
        slots = set(layout.to_intlist(circuit.qubits))
        assert len(slots) == 3
        # The chosen region must be internally connected enough: at least
        # 2 edges among 3 qubits.
        coupling = CouplingMap.qx5()
        edges = sum(
            1
            for a in slots
            for b in slots
            if a < b and coupling.connected(a, b)
        )
        assert edges >= 2

    def test_set_layout_intlist(self, bell):
        manager = PassManager(
            [SetLayout([2, 0]), ApplyLayout(CouplingMap.qx4())]
        )
        mapped = manager.run(bell)
        assert mapped.num_qubits == 5
        first = mapped.data[0]
        assert mapped.find_bit(first.qubits[0]) == 2  # h on physical 2

    def test_apply_layout_without_layout_raises(self, bell):
        with pytest.raises(TranspilerError):
            PassManager([ApplyLayout(CouplingMap.qx4())]).run(bell)

    def test_apply_layout_preserves_clbits(self, measured_bell):
        manager = PassManager(
            [TrivialLayout(CouplingMap.qx4()), ApplyLayout(CouplingMap.qx4())]
        )
        mapped = manager.run(measured_bell)
        assert mapped.num_clbits == 2
        assert mapped.count_ops()["measure"] == 2


class TestPassManager:
    def test_passes_run_in_order(self, bell):
        order = []

        class Recorder(TransformationPass):
            def __init__(self, tag):
                self.tag = tag

            def run(self, dag, property_set):
                order.append(self.tag)
                return dag

        manager = PassManager([Recorder("a")])
        manager.append(Recorder("b")).append([Recorder("c")])
        manager.run(bell)
        assert order == ["a", "b", "c"]

    def test_none_return_rejected(self, bell):
        class Broken(TransformationPass):
            def run(self, dag, property_set):
                return None

        with pytest.raises(TranspilerError):
            PassManager([Broken()]).run(bell)

    def test_bare_base_pass_rejected(self, bell):
        class Bare(BasePass):
            def run(self, dag, property_set):
                return dag

        with pytest.raises(TranspilerError, match="neither"):
            PassManager([Bare()]).run(bell)

    def test_property_set_fresh_per_run(self, bell):
        class Setter(TransformationPass):
            def run(self, dag, property_set):
                property_set.setdefault("runs", 0)
                property_set["runs"] += 1
                return dag

        manager = PassManager([Setter()])
        manager.run(bell)
        manager.run(bell)
        assert manager.property_set["runs"] == 1
