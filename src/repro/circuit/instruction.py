"""The base :class:`Instruction` type.

An instruction names an operation on a fixed number of quantum and classical
bits, optionally parameterized by angles.  Composite instructions expose a
``definition``: a list of ``(sub_instruction, qubit_positions, clbit_positions)``
tuples whose positions index into the parent instruction's own bits.  The
transpiler's unroller expands definitions recursively down to a basis.
"""

from __future__ import annotations

from repro.circuit.parameter import ParameterExpression, is_parameterized
from repro.exceptions import CircuitError


class Instruction:
    """A named operation on ``num_qubits`` qubits and ``num_clbits`` clbits."""

    def __init__(self, name, num_qubits, num_clbits, params=None, label=None):
        if num_qubits < 0 or num_clbits < 0:
            raise CircuitError("instruction bit counts must be non-negative")
        self._name = name
        self._num_qubits = num_qubits
        self._num_clbits = num_clbits
        self._params = list(params) if params is not None else []
        self._label = label
        self._definition = None
        #: Optional classical condition, as a ``(ClassicalRegister, int)`` pair.
        self.condition = None

    # -- identity -----------------------------------------------------------

    @property
    def name(self) -> str:
        """Lower-case OpenQASM-style mnemonic of the operation."""
        return self._name

    @property
    def num_qubits(self) -> int:
        """Number of qubits the instruction acts on."""
        return self._num_qubits

    @property
    def num_clbits(self) -> int:
        """Number of classical bits the instruction acts on."""
        return self._num_clbits

    @property
    def params(self) -> list:
        """The instruction's parameters (angles, bound or symbolic)."""
        return self._params

    @params.setter
    def params(self, value):
        self._params = list(value)

    @property
    def label(self):
        """Optional user label for drawers."""
        return self._label

    # -- definition ---------------------------------------------------------

    @property
    def definition(self):
        """Decomposition into sub-instructions, or None for primitives.

        The value is a list of ``(instruction, qargs, cargs)`` tuples where
        ``qargs``/``cargs`` are integer positions into this instruction's own
        qubits/clbits.
        """
        if self._definition is None:
            self._definition = self._define()
        return self._definition

    def _define(self):
        """Build the definition; primitives return None."""
        return None

    # -- transformations ----------------------------------------------------

    def inverse(self) -> "Instruction":
        """Return the inverse instruction.

        The generic implementation reverses the definition and inverts each
        sub-instruction; primitives must override.
        """
        definition = self.definition
        if definition is None:
            raise CircuitError(f"instruction '{self._name}' has no inverse defined")
        inverted = Instruction(
            self._name + "_dg", self._num_qubits, self._num_clbits, self._params
        )
        inverted._definition = [
            (sub.inverse(), qargs, cargs) for sub, qargs, cargs in reversed(definition)
        ]
        return inverted

    def copy(self) -> "Instruction":
        """Return a deep-enough copy (params copied, definition shared)."""
        fresh = object.__new__(type(self))
        fresh.__dict__.update(self.__dict__)
        fresh._params = list(self._params)
        return fresh

    def is_parameterized(self) -> bool:
        """True when any parameter contains an unbound symbol."""
        return any(is_parameterized(param) for param in self._params)

    def bind_parameters(self, binding: dict) -> "Instruction":
        """Return a copy with symbolic parameters substituted via ``binding``."""
        fresh = self.copy()
        new_params = []
        for param in fresh._params:
            if isinstance(param, ParameterExpression):
                new_params.append(param.bind(binding))
            else:
                new_params.append(param)
        fresh._params = new_params
        fresh._definition = None
        return fresh

    def c_if(self, register, value) -> "Instruction":
        """Attach a classical condition (OpenQASM ``if (creg==value)``)."""
        if value < 0:
            raise CircuitError("condition value must be non-negative")
        self.condition = (register, int(value))
        return self

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Instruction):
            return NotImplemented
        if (
            self._name != other._name
            or self._num_qubits != other._num_qubits
            or self._num_clbits != other._num_clbits
            or self.condition != other.condition
        ):
            return False
        if len(self._params) != len(other._params):
            return False
        for mine, theirs in zip(self._params, other._params):
            if isinstance(mine, ParameterExpression) or isinstance(
                theirs, ParameterExpression
            ):
                if repr(mine) != repr(theirs):
                    return False
            elif abs(complex(mine) - complex(theirs)) > 1e-10:
                return False
        return True

    def __repr__(self):
        if self._params:
            params = ", ".join(str(param) for param in self._params)
            return f"{type(self).__name__}({params})"
        return f"{type(self).__name__}()"
