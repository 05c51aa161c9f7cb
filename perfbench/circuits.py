"""Seeded benchmark inputs: the circuit families the paper maps and runs.

Every builder takes its variable part (hidden string, oracle mask, basis
input, random seed) as an argument; the workloads draw those from the
benchmark seed, so the program only ever sees the finished circuits.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bernstein_vazirani import bv_circuit
from repro.algorithms.deutsch_jozsa import (
    balanced_oracle,
    deutsch_jozsa_circuit,
)
from repro.algorithms.qft import qft_circuit
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.circuit.random_circuit import random_circuit

FAMILIES = ("ghz", "bv", "dj", "qft", "random")


def ghz(width: int) -> QuantumCircuit:
    circuit = QuantumCircuit(width, width, name=f"ghz{width}")
    circuit.h(0)
    for qubit in range(width - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(width):
        circuit.measure(qubit, qubit)
    return circuit


def bv(hidden: str) -> QuantumCircuit:
    circuit = bv_circuit(hidden)
    circuit.name = f"bv{len(hidden) + 1}-{hidden}"
    return circuit


def dj(width: int, mask: int) -> QuantumCircuit:
    circuit = deutsch_jozsa_circuit(balanced_oracle(width - 1, mask))
    circuit.name = f"dj{width}-m{mask}"
    return circuit


def qft(width: int, basis_input: int = 0) -> QuantumCircuit:
    """QFT of the basis state ``|basis_input>``, every qubit measured."""
    circuit = QuantumCircuit(width, width, name=f"qft{width}-x{basis_input}")
    for qubit in range(width):
        if (basis_input >> qubit) & 1:
            circuit.x(qubit)
    circuit.compose(qft_circuit(width), qubits=circuit.qubits, inplace=True)
    for qubit in range(width):
        circuit.measure(qubit, qubit)
    return circuit


def rand(width: int, seed: int, depth: int = 6) -> QuantumCircuit:
    circuit = random_circuit(width, depth, seed=seed, measure=True)
    circuit.name = f"random{width}-s{seed}"
    return circuit


def paper_fig1() -> QuantumCircuit:
    """The paper's Fig. 1 circuit (4 qubits), every qubit measured."""
    circuit = QuantumCircuit(4, 4, name="fig1")
    circuit.h(2)
    circuit.cx(2, 3)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.cx(1, 2)
    circuit.t(0)
    circuit.cx(2, 0)
    circuit.cx(0, 1)
    for qubit in range(4):
        circuit.measure(qubit, qubit)
    return circuit


def hidden_mask(bits: int, rng: np.random.Generator) -> int:
    """A ``bits``-bit hidden string with half its bits set (rounded up).

    The weight is fixed so that a BV or DJ circuit's gate count, and with
    it the circuit's compile and run time, is the same for every seed;
    ``rng`` picks which bits are set.  With uniformly drawn strings the
    op at ``compile``'s median took 7.1-11.4 ms over five seeds.
    """
    ones = rng.choice(bits, size=(bits + 1) // 2, replace=False)
    return sum(1 << int(bit) for bit in ones)


def draw(family: str, width: int, rng: np.random.Generator) -> QuantumCircuit:
    """A ``family`` circuit of ``width`` qubits; ``rng`` draws the rest."""
    if family == "ghz":
        return ghz(width)
    if family == "bv":
        return bv(format(hidden_mask(width - 1, rng), f"0{width - 1}b"))
    if family == "dj":
        return dj(width, hidden_mask(width - 1, rng))
    if family == "qft":
        # QFT of |0> is what the paper maps; its stall (see NOTES.md) does
        # not depend on the input, so the seed leaves it alone.
        return qft(width)
    if family == "random":
        return rand(width, int(rng.integers(2**31)))
    raise ValueError(f"unknown circuit family {family!r}")
