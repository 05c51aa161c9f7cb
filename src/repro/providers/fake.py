"""Simulated IBM QX devices.

The paper runs on the real IBM Q cloud machines; offline we substitute
noisy simulators with the exact published coupling maps (Fig. 2) and
error magnitudes in the range IBM reported for those devices (~1e-3 per
single-qubit gate, ~2-3e-2 per CNOT, a few percent readout error).  The user
workflow — transpile to the device, submit, read counts — is unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BackendError
from repro.providers.aer import QasmEngineBackend
from repro.providers.backend import BackendConfiguration
from repro.simulators.noise import (
    NoiseModel,
    ReadoutError,
    depolarizing_error,
)
from repro.transpiler.coupling import CouplingMap

_DEVICE_BASIS = ["u1", "u2", "u3", "cx", "id"]

#: Error magnitudes per device: (1q depolarizing, 2q depolarizing, readout).
_DEVICE_ERRORS = {
    "ibmqx2": (1.2e-3, 2.5e-2, 3.0e-2),
    "ibmqx3": (1.5e-3, 3.5e-2, 5.0e-2),
    "ibmqx4": (1.0e-3, 2.0e-2, 3.5e-2),
    "ibmqx5": (1.4e-3, 3.0e-2, 4.5e-2),
}


class BackendProperties:
    """Per-qubit / per-edge calibration data for a device.

    Mirrors the cloud API's ``backend.properties()`` payload: gate error
    and duration for every (gate, qubits) combination plus readout error
    per qubit.  For the fake QX devices, :meth:`from_device` derives the
    values deterministically from the device name, jittered around the
    published error magnitudes so each coupler is distinguishable — which
    is what lets error-aware layout/routing meaningfully prefer one
    region over another.  Real device calibration data loads through
    :meth:`from_json` (schema in DESIGN.md, "Calibration file format")
    and round-trips via :meth:`to_json`.
    """

    _DURATION_1Q = 50e-9
    _DURATION_CX = 300e-9
    _DURATION_READOUT = 1e-6

    SCHEMA_VERSION = "1.0"

    def __init__(self, backend_name: str, gate_errors=None,
                 gate_durations=None, readout_errors=None,
                 readout_durations=None):
        self.backend_name = backend_name
        #: {(gate, (qubits...)): error rate}
        self._gate_errors: dict = dict(gate_errors or {})
        #: {(gate, (qubits...)): duration in seconds}
        self._gate_durations: dict = dict(gate_durations or {})
        #: {qubit: readout error}
        self._readout_errors: dict = dict(readout_errors or {})
        #: {qubit: readout duration}; falls back to _DURATION_READOUT
        self._readout_durations: dict = dict(readout_durations or {})

    @classmethod
    def from_device(cls, name: str,
                    coupling: CouplingMap) -> "BackendProperties":
        """Synthesize deterministic calibrations for a fake QX device."""
        if name not in _DEVICE_ERRORS:
            raise BackendError(f"unknown device '{name}'")
        err_1q, err_2q, err_ro = _DEVICE_ERRORS[name]
        seed = int.from_bytes(name.encode(), "little") % (2**32)
        rng = np.random.default_rng(seed)
        properties = cls(name)
        for qubit in range(coupling.num_qubits):
            jitter = 0.7 + 0.6 * rng.random()
            for gate in ("u1", "u2", "u3", "id"):
                scale = 0.0 if gate == "u1" else jitter
                properties._gate_errors[(gate, (qubit,))] = err_1q * scale
                properties._gate_durations[(gate, (qubit,))] = (
                    0.0 if gate == "u1" else cls._DURATION_1Q
                )
            properties._readout_errors[qubit] = (
                err_ro * (0.7 + 0.6 * rng.random())
            )
        for edge in coupling.edges:
            jitter = 0.6 + 0.8 * rng.random()
            properties._gate_errors[("cx", tuple(edge))] = err_2q * jitter
            properties._gate_durations[("cx", tuple(edge))] = (
                cls._DURATION_CX * (0.8 + 0.4 * rng.random())
            )
        return properties

    def gate_error(self, gate: str, qubits) -> float | None:
        """Calibrated error rate for ``gate`` on ``qubits`` (or None)."""
        return self._gate_errors.get((gate, tuple(qubits)))

    def gate_duration(self, gate: str, qubits) -> float | None:
        """Calibrated duration (seconds) for ``gate`` on ``qubits``."""
        return self._gate_durations.get((gate, tuple(qubits)))

    def readout_error(self, qubit: int) -> float | None:
        """Calibrated readout error for ``qubit``."""
        return self._readout_errors.get(qubit)

    def readout_duration(self, qubit: int) -> float:
        """Readout duration (seconds)."""
        return self._readout_durations.get(qubit, self._DURATION_READOUT)

    def to_json(self) -> dict:
        """JSON-compatible calibration payload (see DESIGN.md schema)."""
        gates = [
            {
                "gate": gate,
                "qubits": list(qubits),
                "error": self._gate_errors.get((gate, qubits)),
                "duration": self._gate_durations.get((gate, qubits)),
            }
            for gate, qubits in sorted(
                set(self._gate_errors) | set(self._gate_durations)
            )
        ]
        readout = [
            {
                "qubit": qubit,
                "error": self._readout_errors.get(qubit),
                "duration": self.readout_duration(qubit),
            }
            for qubit in sorted(
                set(self._readout_errors) | set(self._readout_durations)
            )
        ]
        return {
            "backend_name": self.backend_name,
            "schema_version": self.SCHEMA_VERSION,
            "gates": gates,
            "readout": readout,
        }

    @classmethod
    def from_json(cls, payload) -> "BackendProperties":
        """Load calibrations from a payload dict or JSON string.

        This is the entry point for *real* device calibration data: any
        backend name is accepted, and a Target built from a backend
        carrying these properties uses them verbatim.
        """
        import json as _json

        if isinstance(payload, (str, bytes)):
            payload = _json.loads(payload)
        if not isinstance(payload, dict) or "backend_name" not in payload:
            raise BackendError(
                "calibration payload must be a dict with a 'backend_name'"
            )
        properties = cls(payload["backend_name"])
        for entry in payload.get("gates", []):
            key = (entry["gate"], tuple(entry["qubits"]))
            if entry.get("error") is not None:
                properties._gate_errors[key] = float(entry["error"])
            if entry.get("duration") is not None:
                properties._gate_durations[key] = float(entry["duration"])
        for entry in payload.get("readout", []):
            qubit = int(entry["qubit"])
            if entry.get("error") is not None:
                properties._readout_errors[qubit] = float(entry["error"])
            if entry.get("duration") is not None:
                properties._readout_durations[qubit] = (
                    float(entry["duration"])
                )
        return properties


def build_device_noise_model(name: str) -> NoiseModel:
    """Construct the canned noise model for a fake QX device."""
    if name not in _DEVICE_ERRORS:
        raise BackendError(f"unknown device '{name}'")
    err_1q, err_2q, err_ro = _DEVICE_ERRORS[name]
    model = NoiseModel()
    model.add_all_qubit_quantum_error(
        depolarizing_error(err_1q, 1), ["u2", "u3", "id"]
    )
    model.add_all_qubit_quantum_error(depolarizing_error(err_2q, 2), ["cx"])
    model.add_readout_error(
        ReadoutError([[1 - err_ro, err_ro], [1.5 * err_ro, 1 - 1.5 * err_ro]])
    )
    return model


class FakeQXBackend(QasmEngineBackend):
    """A coupling-constrained, noisy simulation of an IBM QX device.

    Runs like the ``qasm_simulator`` under the device's noise model (or
    the ``noise_model`` a run passes), so its shots split into
    shot-chunks under the same rule.
    """

    def __init__(self, name: str):
        coupling = CouplingMap.from_name(name)
        super().__init__(
            BackendConfiguration(
                name,
                coupling.num_qubits,
                _DEVICE_BASIS,
                simulator=False,
                coupling_map=coupling,
                conditional=False,
                description=f"simulated {name} device",
            )
        )
        self._noise_model = build_device_noise_model(name)
        self._properties = BackendProperties.from_device(name, coupling)

    def properties(self) -> BackendProperties:
        """Per-qubit/per-edge calibration data, like the cloud API."""
        return self._properties

    def load_properties(self, payload) -> BackendProperties:
        """Replace the calibrations from a file payload.

        Accepts a ready :class:`BackendProperties`, a payload dict, or a
        JSON string (see DESIGN.md, "Calibration file format") — the hook
        for loading *real* device calibration data, which then flows into
        ``Target.from_backend`` and the error-aware layout/routing passes.
        """
        if not isinstance(payload, BackendProperties):
            payload = BackendProperties.from_json(payload)
        self._properties = payload
        return self._properties

    @property
    def coupling_map(self) -> CouplingMap:
        """The device's coupling constraints."""
        return self._configuration.coupling_map

    @property
    def noise_model(self) -> NoiseModel:
        """The device's canned noise model."""
        return self._noise_model

    def validate(self, circuit) -> None:
        """Reject circuits the physical device could not accept."""
        coupling = self.coupling_map
        if circuit.num_qubits > coupling.num_qubits:
            raise BackendError(
                f"circuit needs {circuit.num_qubits} qubits; "
                f"{self.name()} has {coupling.num_qubits}"
            )
        basis = set(self._configuration.basis_gates)
        index_of = {q: i for i, q in enumerate(circuit.qubits)}
        for item in circuit.data:
            op_name = item.operation.name
            if op_name in ("measure", "barrier", "reset"):
                continue
            if op_name not in basis:
                raise BackendError(
                    f"gate '{op_name}' is not native to {self.name()}; "
                    "transpile the circuit first"
                )
            if op_name == "cx":
                control, target = (index_of[q] for q in item.qubits)
                if not coupling.has_edge(control, target):
                    raise BackendError(
                        f"cx Q{control}->Q{target} violates the "
                        f"{self.name()} coupling map; transpile first"
                    )

    def _backend_spec(self):
        return ("ibmq", self.name())

    def _validate_batch(self, circuits) -> None:
        """Reject un-transpilable batches at submission, like the cloud
        device API would, instead of failing experiment by experiment."""
        for circuit in circuits:
            self.validate(circuit)

    def _noise(self, options):
        return options.get("noise_model", self._noise_model)


class _IBMQProvider:
    """Stand-in for the paper's ``IBMQ`` account provider (Sec. IV)."""

    def __init__(self):
        self._loaded = False

    def load_accounts(self, token=None):
        """No-op credential load, mirroring ``IBMQ.load_accounts()``."""
        self._loaded = True
        return self

    save_account = load_accounts

    def backends(self) -> list[str]:
        """Available device names."""
        return sorted(_DEVICE_ERRORS)

    def get_backend(self, name: str) -> FakeQXBackend:
        """Fetch a simulated QX device by name, e.g. ``"ibmqx4"``."""
        if name not in _DEVICE_ERRORS:
            raise BackendError(
                f"unknown device '{name}'; available: {self.backends()}"
            )
        return FakeQXBackend(name)


#: Singleton provider, used as ``IBMQ.get_backend('ibmqx4')``.
IBMQ = _IBMQProvider()
