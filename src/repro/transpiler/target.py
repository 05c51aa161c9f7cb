"""The backend :class:`Target` — what the transpiler compiles *against*.

A Target bundles everything the compilation pipeline needs to know about a
device in one queryable object: the basis gates, the coupling map, and
per-instruction calibration data (error rate, duration) keyed by the
physical qubits the instruction acts on.  ``transpile(circuit,
backend=...)`` builds one via :meth:`Target.from_backend` instead of
threading loose ``coupling_map``/``basis_gates`` kwargs, and
error-aware passes (:class:`~repro.transpiler.passes.layout_passes.DenseLayout`,
:class:`~repro.transpiler.passes.routing.SabreSwap`) read the calibrations
to avoid the device's worst couplers.
"""

from __future__ import annotations


class InstructionProperties:
    """Calibration data for one instruction on specific qubits."""

    __slots__ = ("duration", "error")

    def __init__(self, duration=None, error=None):
        self.duration = duration
        self.error = error

    def __repr__(self):
        return (
            f"InstructionProperties(duration={self.duration}, "
            f"error={self.error})"
        )


class Target:
    """A compilation target: basis gates + coupling + calibrations."""

    def __init__(self, name="", num_qubits=0, coupling_map=None,
                 description=""):
        self.name = name
        self.num_qubits = num_qubits
        self.coupling_map = coupling_map
        self.description = description
        #: {gate name: {qargs tuple or None: InstructionProperties or None}}
        self._instructions: dict = {}

    def add_instruction(self, name: str, qargs=None,
                        properties: InstructionProperties | None = None):
        """Register an instruction, optionally on specific qubits.

        ``qargs=None`` declares the instruction globally available (the
        simulator case — no per-qubit calibration).
        """
        entry = self._instructions.setdefault(name, {})
        entry[tuple(qargs) if qargs is not None else None] = properties

    @property
    def operation_names(self) -> set:
        """Names of every supported instruction."""
        return set(self._instructions)

    def instruction_supported(self, name: str, qargs=None) -> bool:
        """Whether the target supports ``name`` (on ``qargs``, if given)."""
        entry = self._instructions.get(name)
        if entry is None:
            return False
        if qargs is None or None in entry:
            return True
        return tuple(qargs) in entry

    def _properties(self, name, qargs):
        entry = self._instructions.get(name)
        if entry is None:
            return None
        if qargs is not None:
            found = entry.get(tuple(qargs))
            if found is not None:
                return found
        return entry.get(None)

    def error(self, name: str, qargs=None):
        """Calibrated error rate for an instruction, or None."""
        properties = self._properties(name, qargs)
        return properties.error if properties is not None else None

    def duration(self, name: str, qargs=None):
        """Calibrated duration (seconds) for an instruction, or None."""
        properties = self._properties(name, qargs)
        return properties.duration if properties is not None else None

    def cx_error(self, control: int, target: int):
        """CX error on a coupler, direction-insensitive (layout weighting)."""
        error = self.error("cx", (control, target))
        if error is None:
            error = self.error("cx", (target, control))
        return error

    @property
    def basis_gates(self) -> list:
        """Gate names in a stable order (for Unroller-style passes)."""
        return sorted(self._instructions)

    def cache_key(self) -> tuple:
        """Stable hashable identity for the transpile cache."""
        calibrations = tuple(
            sorted(
                (name, qargs if qargs is None else tuple(qargs),
                 None if props is None else (props.duration, props.error))
                for name, entry in self._instructions.items()
                for qargs, props in entry.items()
            )
        )
        edges = None
        if self.coupling_map is not None:
            edges = tuple(sorted(tuple(e) for e in self.coupling_map.edges))
        return (self.name, self.num_qubits, edges, calibrations)

    def __repr__(self):
        return (
            f"Target({self.name!r}, {self.num_qubits} qubits, "
            f"{len(self._instructions)} instructions)"
        )

    @classmethod
    def from_backend(cls, backend) -> "Target":
        """Build a Target from a backend's configuration + calibrations.

        Works for both fake devices (coupling map + ``properties()``
        calibrations) and simulators (no coupling, everything allowed
        everywhere).
        """
        configuration = backend.configuration()
        coupling = getattr(configuration, "coupling_map", None)
        target = cls(
            name=configuration.backend_name,
            num_qubits=configuration.num_qubits,
            coupling_map=coupling,
            description=getattr(configuration, "description", ""),
        )
        properties = None
        properties_getter = getattr(backend, "properties", None)
        if callable(properties_getter):
            properties = properties_getter()
        qubits = range(configuration.num_qubits)
        for name in configuration.basis_gates:
            if coupling is not None and name == "cx":
                for edge in coupling.edges:
                    target.add_instruction(
                        name, tuple(edge),
                        _gate_properties(properties, name, tuple(edge)),
                    )
            elif coupling is not None:
                for qubit in qubits:
                    target.add_instruction(
                        name, (qubit,),
                        _gate_properties(properties, name, (qubit,)),
                    )
            else:
                target.add_instruction(name)
        if coupling is not None:
            for qubit in qubits:
                target.add_instruction(
                    "measure", (qubit,),
                    _measure_properties(properties, qubit),
                )
            target.add_instruction("barrier")
            target.add_instruction("reset")
        else:
            for name in ("measure", "barrier", "reset"):
                target.add_instruction(name)
        return target


def _gate_properties(properties, name, qargs):
    if properties is None:
        return None
    return InstructionProperties(
        duration=properties.gate_duration(name, qargs),
        error=properties.gate_error(name, qargs),
    )


def _measure_properties(properties, qubit):
    if properties is None:
        return None
    return InstructionProperties(
        duration=properties.readout_duration(qubit),
        error=properties.readout_error(qubit),
    )


def target_from_coupling(coupling_map, basis_gates, name="") -> Target:
    """A calibration-free Target from loose kwargs (legacy entry path)."""
    target = Target(
        name=name,
        num_qubits=coupling_map.num_qubits if coupling_map is not None else 0,
        coupling_map=coupling_map,
    )
    for gate in basis_gates:
        target.add_instruction(gate)
    for extra in ("measure", "barrier", "reset"):
        target.add_instruction(extra)
    return target
