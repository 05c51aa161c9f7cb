"""One lowered program per circuit: the steps every statevector path runs.

Sec. V-A of the paper: array simulation "boils down to a sequence of
matrix-vector multiplications".  :class:`Program` builds that sequence
once, in one walk over ``circuit.data``, and every path runs it:

* :class:`~repro.simulators.statevector_simulator.StatevectorSimulator`,
  ``Statevector.evolve`` and the qasm sampling path as one row;
* the broadcast engine (:mod:`repro.simulators.batched`) as one row per
  binding, after binding its parameterized (``bound``) steps;
* the batched-noise path and ``Operator.from_circuit`` as columns;
* each trajectory as one row, through the measure, reset and conditioned
  steps too;
* the density-matrix paths, which take each gate step's matrix and error.

The same walk records what decides which path may run a circuit: the
measure map, the flags below, the idle-qubit remap, and, when a run has a
noise model, each gate step's error.
"""

from __future__ import annotations

from repro.circuit.gate import Gate
from repro.circuit.library.standard_gates import XGate
from repro.exceptions import SimulatorError
from repro.simulators import kernels


class Program:
    """A circuit lowered into :class:`~repro.simulators.kernels.Step` s.

    Args:
        circuit: the circuit to lower.
        noise_model: tags every gate step with its error, when given.
        strip_idle: drop the qubits no instruction touches (idle qubits stay
            in ``|0>``, so sampled counts do not change).

    Attributes:
        steps: every operation but barriers, in circuit order: gate steps,
            ``measure`` steps (``data`` is the clbit), ``reset`` steps
            (``data`` is the X step that flips a qubit measured as 1) and
            ``bound`` steps (a gate with unbound parameters; ``data`` is
            its ``circuit.data`` index).
        gates: the gate and ``bound`` steps alone.
        measures: measured qubit -> clbit, in circuit order (a later
            measurement of a qubit overwrites its clbit).
        num_qubits: the simulated width (after the idle-qubit remap).
        samplable: one evolution plus sampling is exact — no condition,
            reset, operation after a measurement on its qubit, or clbit
            written twice.
        broadcastable: samplable and every operation a gate, barrier or
            measurement (the broadcast sampler's condition).
        estimable: broadcastable, measurement-free, and every qubit used
            (the broadcast Estimator's condition: the per-binding
            comparator samples its term circuits with idle qubits stripped).
        batchable: every gate error is a mixture of unitaries.
        prefix: how many leading steps are gates with neither condition
            nor error (every trajectory shares them).
        conditioned, nongate, nonunitary: the name of the first
            conditioned operation, non-gate operation (other than
            measure, reset and barrier), and operation that is not an
            unconditioned gate, or None: what the entry points refuse.
    """

    def __init__(self, circuit, noise_model=None, strip_idle=False):
        self.circuit = circuit
        qubit_index = {q: i for i, q in enumerate(circuit.qubits)}
        clbit_index = {c: i for i, c in enumerate(circuit.clbits)}
        conditioned = nongate = nonunitary = None
        resets = midcircuit = rewritten = False
        measured: set = set()
        written: set = set()
        used: set = set()
        records = []
        for index, item in enumerate(circuit.data):
            op = item.operation
            name = op.name
            condition = op.condition
            if condition is not None and conditioned is None:
                conditioned = name
            if name == "barrier":
                continue
            qubits = [qubit_index[q] for q in item.qubits]
            used.update(qubits)
            clbit = None
            is_gate = isinstance(op, Gate)
            if name == "measure":
                clbit = clbit_index[item.clbits[0]]
                rewritten = rewritten or clbit in written
                written.add(clbit)
                measured.add(qubits[0])
            else:
                if measured and not measured.isdisjoint(qubits):
                    midcircuit = True
                if name == "reset":
                    resets = True
                elif not is_gate and nongate is None:
                    nongate = name
            if nonunitary is None and not is_gate:
                nonunitary = name
            elif nonunitary is None and condition is not None:
                register, value = condition
                nonunitary = f"{name}.c_if({register.name}, {value})"
            records.append((index, op, qubits, clbit, is_gate))

        num_qubits = circuit.num_qubits
        remap = None
        if strip_idle and used and len(used) < num_qubits:
            remap = {qubit: new for new, qubit in enumerate(sorted(used))}
            num_qubits = len(used)
        Step = kernels.Step
        gate_step = kernels.gate_step
        steps = []
        gates = []
        measures: dict = {}
        batchable = True
        prefix = 0
        shared = True  # still inside the leading run every shot shares
        for index, op, qubits, clbit, is_gate in records:
            if remap is not None:
                qubits = [remap[q] for q in qubits]
            if clbit is not None:
                measures[qubits[0]] = clbit
                step = Step("measure", clbit, qubits)
            elif is_gate:
                if op.params and op.is_parameterized():
                    step = Step("bound", index, qubits, op)
                else:
                    step = gate_step(op, qubits)
                if noise_model is not None:
                    error = step.error = noise_model.gate_error(op.name,
                                                                qubits)
                    if error is not None and error._unitary_branches is None:
                        batchable = False
                gates.append(step)
            elif op.name == "reset":
                step = Step("reset", gate_step(XGate(), qubits), qubits)
            else:
                continue  # refused by every path
            if op.condition is not None:
                register, value = op.condition
                step.condition = ([clbit_index[c] for c in register], value)
            shared = (shared and is_gate and step.condition is None
                      and step.error is None)
            prefix += shared
            steps.append(step)
        self.num_qubits = num_qubits
        self.steps = steps
        self.gates = gates
        self.measures = measures
        self.prefix = prefix
        self.batchable = batchable
        self.conditioned = conditioned
        self.nongate = nongate
        self.nonunitary = nonunitary
        self.resets = resets
        self.midcircuit = midcircuit
        self.samplable = not (conditioned is not None or resets or midcircuit
                              or rewritten)
        self.broadcastable = self.samplable and nongate is None
        self.estimable = (self.broadcastable and not measures
                          and len(used) == circuit.num_qubits)

    def require_static(self):
        """Refuse what one statevector pass cannot honour: conditions,
        reset, non-gate operations, and gates after a measurement."""
        if self.conditioned is not None:
            raise SimulatorError(
                "classical conditions require the qasm simulator"
            )
        if self.resets:
            raise SimulatorError("reset requires the qasm simulator")
        if self.nongate is not None:
            raise SimulatorError(f"cannot simulate operation '{self.nongate}'")
        if self.midcircuit:
            raise SimulatorError(
                "gate after measurement requires the qasm simulator"
            )

    def require_unitary(self, message):
        """Refuse anything but unconditioned gates (and barriers);
        ``message`` names the first offender through ``{}``."""
        if self.nonunitary is not None:
            raise SimulatorError(message.format(self.nonunitary))
