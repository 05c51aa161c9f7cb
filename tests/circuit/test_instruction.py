"""Tests for the Instruction base class."""

import pytest

from repro.circuit import ClassicalRegister, Instruction, Parameter
from repro.circuit.library.standard_gates import (
    STANDARD_GATES,
    HGate,
    RXGate,
    SGate,
)
from repro.circuit.measure import Barrier, Measure, Reset
from repro.exceptions import CircuitError


class TestInstructionBasics:
    def test_fields(self):
        instruction = Instruction("foo", 2, 1, [0.5])
        assert instruction.name == "foo"
        assert instruction.num_qubits == 2
        assert instruction.num_clbits == 1
        assert instruction.params == [0.5]

    def test_negative_counts_raise(self):
        with pytest.raises(CircuitError):
            Instruction("bad", -1, 0)

    def test_copy_is_independent(self):
        instruction = Instruction("foo", 1, 0, [0.5])
        clone = instruction.copy()
        clone.params[0] = 9.0
        assert instruction.params == [0.5]

    def test_equality_params_tolerance(self):
        assert RXGate(0.5) == RXGate(0.5 + 1e-12)
        assert RXGate(0.5) != RXGate(0.51)

    def test_condition_affects_equality(self):
        creg = ClassicalRegister(1, "c")
        a = HGate()
        b = HGate()
        b.c_if(creg, 1)
        assert a != b

    def test_c_if_negative_raises(self):
        creg = ClassicalRegister(1, "c")
        with pytest.raises(CircuitError):
            HGate().c_if(creg, -1)

    def test_generic_inverse_without_definition_raises(self):
        with pytest.raises(CircuitError):
            Instruction("opaque_thing", 1, 0).inverse()

    def test_bind_parameters_noop_on_floats(self):
        gate = RXGate(0.25)
        assert gate.bind_parameters({}).params == [0.25]

    def test_is_parameterized(self):
        theta = Parameter("t")
        assert RXGate(theta).is_parameterized()
        assert not RXGate(1.0).is_parameterized()


class TestNonUnitaryInstructions:
    def test_measure_shape(self):
        measure = Measure()
        assert (measure.num_qubits, measure.num_clbits) == (1, 1)

    def test_measure_not_invertible(self):
        with pytest.raises(CircuitError):
            Measure().inverse()

    def test_reset_not_invertible(self):
        with pytest.raises(CircuitError):
            Reset().inverse()

    def test_barrier_inverse_is_barrier(self):
        assert Barrier(3).inverse().name == "barrier"

    def test_sgate_inverse_type(self):
        assert SGate().inverse().name == "sdg"


class TestCopy:
    @pytest.mark.parametrize("name", sorted(STANDARD_GATES))
    def test_every_standard_gate_copies_equal_with_own_params(self, name):
        ctor, num_params, _num_qubits = STANDARD_GATES[name]
        gate = ctor(*[0.25 * (index + 1) for index in range(num_params)])
        clone = gate.copy()
        assert type(clone) is type(gate)
        assert clone == gate
        assert clone.params == gate.params
        assert clone.params is not gate.params

    def test_conditioned_parameterized_copy(self):
        register = ClassicalRegister(2, "c")
        theta = Parameter("theta")
        gate = RXGate(theta).c_if(register, 3)
        clone = gate.copy()
        assert clone == gate
        assert clone.condition == (register, 3)
        assert clone.is_parameterized()
        clone.params[0] = 0.5
        assert gate.params == [theta]
        clone.condition = None
        assert gate.condition == (register, 3)
