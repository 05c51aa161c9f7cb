"""Randomized transpile-equivalence suite (DAG pipeline acceptance).

Every workload is compiled at all four optimization levels with every
router onto the fake QX devices, and the result is verified
unitary-equivalent to the original up to the chosen layout and the final
SWAP permutation.  Separately, diagonal fusion and the transpile cache are
checked to preserve sampled counts bit-identically under a fixed seed.
"""

from __future__ import annotations

import pytest

from repro.algorithms.bernstein_vazirani import bv_circuit
from repro.algorithms.grover import grover_circuit
from repro.algorithms.qft import qft_circuit
from repro.circuit.random_circuit import random_circuit
from repro.providers.aer import Aer
from repro.providers.execute import execute
from repro.providers.fake import IBMQ
from repro.transpiler.cache import clear_transpile_cache, get_transpile_cache
from repro.transpiler import preset
from repro.transpiler.equivalence import routed_equivalent
from repro.transpiler.preset import transpile

_LEVELS = (0, 1, 2, 3)
_ROUTERS = ("basic", "sabre", "lookahead")


def _workloads():
    return [
        ("qft4", qft_circuit(4)),
        ("grover3", grover_circuit(3, ["101"], iterations=1)),
        ("bv", bv_circuit("101")),
        ("random", random_circuit(4, 6, seed=11)),
    ]


@pytest.mark.parametrize("level", _LEVELS)
@pytest.mark.parametrize("router", _ROUTERS)
@pytest.mark.parametrize("device", ["ibmqx2", "ibmqx4"])
def test_small_device_equivalence(level, router, device):
    for name, circuit in _workloads():
        mapped = transpile(
            circuit,
            coupling_map=device,
            optimization_level=level,
            routing_method=router,
            seed=5,
            transpile_cache=False,
        )
        assert routed_equivalent(circuit, mapped), (name, level, router,
                                                    device)


@pytest.mark.parametrize("level", (1, 3))
@pytest.mark.parametrize("router", _ROUTERS)
def test_qx5_equivalence(level, router):
    # 16-qubit device: routed_equivalent falls back to statevector
    # spot-checks, so keep the workload set small.
    for name, circuit in [
        ("qft4", qft_circuit(4)),
        ("random", random_circuit(5, 5, seed=23)),
    ]:
        mapped = transpile(
            circuit,
            coupling_map="ibmqx5",
            optimization_level=level,
            routing_method=router,
            seed=5,
            transpile_cache=False,
        )
        assert routed_equivalent(circuit, mapped), (name, level, router)


def test_backend_compiled_equivalence():
    dev = IBMQ.get_backend("ibmqx4")
    for name, circuit in _workloads():
        mapped = transpile(circuit, backend=dev, optimization_level=2,
                           seed=3, transpile_cache=False)
        assert routed_equivalent(circuit, mapped), name
        names = {item.operation.name for item in mapped.data}
        assert names <= {"u1", "u2", "u3", "cx", "id", "measure", "barrier"}


def test_level3_pinned_router_dedupes_portfolio(monkeypatch):
    calls = []
    original = preset.build_pass_manager

    def counting(**kwargs):
        calls.append(kwargs.get("routing_method"))
        return original(**kwargs)

    monkeypatch.setattr(preset, "build_pass_manager", counting)
    circuit = qft_circuit(3)
    transpile(circuit, coupling_map="ibmqx4", optimization_level=3,
              routing_method="sabre", transpile_cache=False)
    assert calls == ["sabre", "sabre"]  # one per layout, not per router
    calls.clear()
    transpile(circuit, coupling_map="ibmqx4", optimization_level=3,
              transpile_cache=False)
    assert len(calls) == 4  # 2 layouts x 2 routers


def test_fusion_preserves_counts_bit_identically():
    circuit = qft_circuit(5)
    circuit.measure_all()
    sim = Aer.get_backend("qasm_simulator")
    plain = sim.run(circuit, shots=300, seed=9).result().get_counts()
    fused = transpile(circuit, backend=sim, transpile_cache=False)
    assert "diagonal" in fused.count_ops()
    fused_counts = sim.run(fused, shots=300, seed=9).result().get_counts()
    assert dict(plain) == dict(fused_counts)


def test_transpile_cache_preserves_counts_bit_identically():
    clear_transpile_cache()
    circuit = bv_circuit("1011")
    dev = IBMQ.get_backend("ibmqx4")
    first = execute(circuit, dev, shots=200, seed=13)
    counts_first = first.result().get_counts()
    hits_before = first.transpile_cache_stats["hits"]
    second = execute(circuit, dev, shots=200, seed=13)
    assert second.transpile_cache_stats["hits"] > hits_before
    assert dict(second.result().get_counts()) == dict(counts_first)
    clear_transpile_cache()


def test_execute_hits_the_cache_across_run_seeds():
    """The run seed does not reach the router: re-running a batch with a
    new seed reuses its compiled circuits."""
    clear_transpile_cache()
    dev = IBMQ.get_backend("ibmqx4")
    batch = [bv_circuit("1011"), qft_circuit(4)]
    for circuit in batch:
        circuit.measure_all()
    first = execute(batch, dev, shots=100, seed=13)
    second = execute(batch, dev, shots=100, seed=14)
    assert second.transpile_cache_stats["misses"] == \
        first.transpile_cache_stats["misses"]
    assert second.transpile_cache_stats["hits"] == \
        first.transpile_cache_stats["hits"] + len(batch)
    clear_transpile_cache()


def test_uncached_execute_counts_repeat_across_processes():
    """Compilation is deterministic without a router seed: two fresh
    processes (different hash seeds) compile and sample identically."""
    import os
    import subprocess
    import sys

    child = (
        "import json\n"
        "from repro.algorithms.qft import qft_circuit\n"
        "from repro.providers import IBMQ, execute\n"
        "from repro.circuit.random_circuit import random_circuit\n"
        "batch = [qft_circuit(5), random_circuit(5, 8, seed=3)]\n"
        "batch[0].measure_all()\n"
        "batch[1].measure_all()\n"
        "job = execute(batch, IBMQ.get_backend('ibmqx4'), shots=256,\n"
        "              seed=21, transpile_cache=False)\n"
        "result = job.result()\n"
        "print(json.dumps([result.get_counts(c) for c in batch]))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                       "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), src) if p
        )
        env.pop("REPRO_TRANSPILE_CACHE_DIR", None)
        completed = subprocess.run(
            [sys.executable, "-c", child], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        outputs.append(completed.stdout)
    assert outputs[0] == outputs[1]


def test_cache_distinguishes_options():
    clear_transpile_cache()
    circuit = qft_circuit(3)
    one = transpile(circuit, coupling_map="ibmqx4", optimization_level=1)
    three = transpile(circuit, coupling_map="ibmqx4", optimization_level=3)
    assert get_transpile_cache().stats()["size"] == 2
    assert routed_equivalent(circuit, one)
    assert routed_equivalent(circuit, three)
    clear_transpile_cache()
