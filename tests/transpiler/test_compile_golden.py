"""Golden digest of the transpiler's output on a fixed, seeded input list.

The preset pipelines make discrete decisions (layout, swap choice and its
seeded tie-break, CNOT flips, which 1q runs fuse and what they resynthesize
to, which pairs cancel).  Any change to one of them changes the op list of
some compile below, so this test pins the compiled output of every input to
a recorded digest.  Rewrites of a pass that claim to keep its decisions
(data-structure or arithmetic-order changes) must leave it green.

Per compile the digest covers op names, qubit and clbit indices,
conditions, parameters rounded to 9 decimals, ``final_permutation`` and the
initial layout.  Raw floats stay out, so the digest does not depend on the
last bits a BLAS build leaves in a 2x2 product.  A change meant to alter
the compiled output records new digests with
``PYTHONPATH=src python tests/transpiler/test_compile_golden.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.algorithms.bernstein_vazirani import bv_circuit
from repro.algorithms.deutsch_jozsa import balanced_oracle, deutsch_jozsa_circuit
from repro.algorithms.qft import qft_circuit
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.circuit.random_circuit import random_circuit
from repro.providers.fake import IBMQ
from repro.transpiler.preset import transpile

#: A conditioned circuit with gates that only unroll or route through their
#: definitions (``ccx``, ``swap``, ``cu1``), compiled at every level.
CONDITIONAL_QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[2];
creg d[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
if(c==1) cx q[0],q[1];
if(c==1) x q[2];
ccx q[0],q[1],q[2];
swap q[1],q[3];
cu1(pi/4) q[2],q[3];
if(c==1) cx q[3],q[0];
measure q[1] -> d[0];
if(d==1) u3(0.3,0.2,0.1) q[1];
t q[3];
if(d==2) h q[0];
h q[0];
measure q[2] -> c[1];
measure q[3] -> d[1];
"""

#: sha256 of the compiled output, per (device, optimization level).
GOLDEN = {
    'ibmqx4/L0': 'fc93e4a3bbeeac42a2128143d4588b9a674160ab154de9ec88d095700b3ddcd9',
    'ibmqx4/L1': '21ac04e570377f8a5ad80527c0e21c021c53e3cd0ea83c62a4f4368a94bb34cb',
    'ibmqx4/L2': '116131e1d8f4086eebe49a3363bd5494a8d2130d8e6ff1c610a42466dd78035e',
    'ibmqx4/L3': '8fa2e05441c7420fa13ceaa45918113e1754e22ef7bf230bca3abfee07a4eec3',
    'ibmqx5/L0': 'f93bf78175b312562427e743524aafdc5b34b914124969103302b1e7fd488223',
    'ibmqx5/L1': '0a9b8d401514c759deedb99c873f37a1a31c481813d0b496af820d3813faeb6b',
    'ibmqx5/L2': '50f91b5522e8891b9ce93bc11b49ac88ac48f700237cd170d3d77626f8f731b2',
    'ibmqx5/L3': 'aeadeb0ff80e05e0c9cfef432c87408613920ca9a3dbca1fb615b352f6172a1c',
}


def _ghz(width):
    circuit = QuantumCircuit(width, width)
    circuit.h(0)
    for qubit in range(width - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(width):
        circuit.measure(qubit, qubit)
    return circuit


def _qft(width):
    circuit = QuantumCircuit(width, width)
    circuit.compose(qft_circuit(width), qubits=circuit.qubits, inplace=True)
    for qubit in range(width):
        circuit.measure(qubit, qubit)
    return circuit


def _mask(bits, rng):
    ones = rng.choice(bits, size=(bits + 1) // 2, replace=False)
    return sum(1 << int(bit) for bit in ones)


def _draw(family, width, rng):
    if family == "ghz":
        return _ghz(width)
    if family == "bv":
        return bv_circuit(format(_mask(width - 1, rng), f"0{width - 1}b"))
    if family == "dj":
        return deutsch_jozsa_circuit(
            balanced_oracle(width - 1, _mask(width - 1, rng))
        )
    if family == "qft":
        return _qft(width)
    return random_circuit(width, 6, seed=int(rng.integers(2**31)),
                          measure=True)


def _inputs():
    """``(device, level, circuit)`` for every compile, in a fixed order."""
    rng = np.random.default_rng(2019)
    inputs = [("ibmqx5", 1, _draw(family, width, rng))
              for family in ("ghz", "bv", "dj", "qft")
              for width in range(4, 11)]
    inputs += [("ibmqx4", level, _draw(family, width, rng))
               for level in (0, 2, 3)
               for family in ("ghz", "bv", "dj", "qft", "random")
               for width in (3, 4, 5)]
    inputs += [(device, level, QuantumCircuit.from_qasm_str(CONDITIONAL_QASM))
               for device in ("ibmqx4", "ibmqx5") for level in range(4)]
    return inputs


def _fingerprint(compiled) -> str:
    """Everything the passes decide, as text with floats rounded."""
    lines = []
    for item in compiled.data:
        operation = item.operation
        params = ",".join(
            f"{round(float(param), 9) + 0.0:.9f}" for param in operation.params
        )
        condition = operation.condition
        if condition is not None:
            condition = (condition[0].name, condition[1])
        lines.append(
            f"{operation.name}({params}) "
            f"{[compiled.find_bit(q) for q in item.qubits]} "
            f"{[compiled.find_bit(c) for c in item.clbits]} {condition}"
        )
    layout = compiled.initial_layout
    if layout is not None:
        layout = sorted(
            (virtual.register.name, virtual.index, layout.physical(virtual))
            for virtual in layout.virtual_qubits
        )
    lines.append(f"final_permutation {compiled.final_permutation}")
    lines.append(f"initial_layout {layout}")
    return "\n".join(lines)


def compiled_digests() -> dict:
    """sha256 over every compile's fingerprint, per (device, level)."""
    devices = {name: IBMQ.get_backend(name) for name in ("ibmqx4", "ibmqx5")}
    hashes: dict = {}
    for device, level, circuit in _inputs():
        compiled = transpile(circuit, backend=devices[device],
                             optimization_level=level, seed=0,
                             transpile_cache=False)
        digest = hashes.setdefault(f"{device}/L{level}", hashlib.sha256())
        digest.update(_fingerprint(compiled).encode())
        digest.update(b"\n--\n")
    return {key: digest.hexdigest() for key, digest in sorted(hashes.items())}


def test_compiled_output_matches_golden_digest():
    assert compiled_digests() == GOLDEN


if __name__ == "__main__":
    for key, value in compiled_digests().items():
        print(f"    {key!r}: {value!r},")
