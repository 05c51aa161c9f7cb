"""Target model and transpile-cache unit tests."""

from __future__ import annotations

import numpy as np

from repro.algorithms.qft import qft_circuit
from repro.circuit.quantumcircuit import QuantumCircuit
from repro.providers.aer import Aer
from repro.providers.fake import IBMQ
from repro.transpiler.cache import (
    DiskCacheTier,
    TranspileCache,
    circuit_fingerprint,
    clear_transpile_cache,
    configure_disk_cache,
    get_transpile_cache,
    resize_transpile_cache,
)
from repro.transpiler.coupling import CouplingMap
from repro.transpiler.passes.layout_passes import DenseLayout
from repro.transpiler.passmanager import PropertySet
from repro.transpiler.preset import transpile
from repro.transpiler.target import (
    InstructionProperties,
    Target,
    target_from_coupling,
)


class TestTarget:
    def test_from_fake_backend(self):
        dev = IBMQ.get_backend("ibmqx4")
        target = Target.from_backend(dev)
        assert target.num_qubits == 5
        assert target.coupling_map is dev.coupling_map
        assert "cx" in target.operation_names
        assert target.instruction_supported("measure", (0,))
        assert not target.instruction_supported("ccx")
        edge = dev.coupling_map.edges[0]
        assert target.instruction_supported("cx", tuple(edge))

    def test_calibrations_populated(self):
        dev = IBMQ.get_backend("ibmqx4")
        target = Target.from_backend(dev)
        edge = tuple(dev.coupling_map.edges[0])
        assert target.error("cx", edge) > 0
        assert target.duration("cx", edge) > 0
        assert target.error("measure", (0,)) > 0
        # direction-insensitive coupler lookup
        assert target.cx_error(edge[1], edge[0]) == target.error("cx", edge)

    def test_calibrations_deterministic(self):
        a = Target.from_backend(IBMQ.get_backend("ibmqx4"))
        b = Target.from_backend(IBMQ.get_backend("ibmqx4"))
        assert a.cache_key() == b.cache_key()
        c = Target.from_backend(IBMQ.get_backend("ibmqx2"))
        assert a.cache_key() != c.cache_key()

    def test_simulator_backend_is_global(self):
        target = Target.from_backend(Aer.get_backend("qasm_simulator"))
        assert target.coupling_map is None
        assert target.instruction_supported("cx")
        assert target.instruction_supported("cx", (3, 17))
        assert target.instruction_supported("diagonal")

    def test_target_from_coupling(self):
        coupling = CouplingMap.from_name("ibmqx4")
        target = target_from_coupling(coupling, ["u1", "u2", "u3", "cx"])
        assert target.num_qubits == 5
        assert target.instruction_supported("cx")
        assert target.error("cx", (0, 1)) is None

    def test_error_aware_dense_layout_avoids_bad_region(self):
        # line 0-1-2-3-4; edge (0,1) is terrible, (3,4) side is clean.
        coupling = CouplingMap([(0, 1), (1, 2), (2, 3), (3, 4)])
        target = Target(num_qubits=5, coupling_map=coupling)
        errors = {(0, 1): 0.9, (1, 2): 0.5, (2, 3): 0.01, (3, 4): 0.01}
        for edge, error in errors.items():
            target.add_instruction(
                "cx", edge, InstructionProperties(error=error)
            )
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        dag_pass = DenseLayout(coupling, target=target)
        from repro.circuit.dag import circuit_to_dag

        properties = PropertySet()
        dag_pass.run(circuit_to_dag(circuit), properties)
        chosen = sorted(
            properties["layout"].physical(q) for q in circuit.qubits
        )
        assert chosen in ([2, 3], [3, 4])


class TestCircuitFingerprint:
    def test_identical_circuits_match(self):
        assert circuit_fingerprint(qft_circuit(4)) == circuit_fingerprint(
            qft_circuit(4)
        )

    def test_param_change_differs(self):
        a = QuantumCircuit(1)
        a.rz(0.5, 0)
        b = QuantumCircuit(1)
        b.rz(0.6, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_wiring_change_differs(self):
        a = QuantumCircuit(2)
        a.cx(0, 1)
        b = QuantumCircuit(2)
        b.cx(1, 0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_unitary_payload_hashed(self):
        from repro.circuit.library.standard_gates import UnitaryGate

        m1 = np.eye(2, dtype=complex)
        m2 = np.array([[0, 1], [1, 0]], dtype=complex)
        a = QuantumCircuit(1)
        a.append(UnitaryGate(m1), [0])
        b = QuantumCircuit(1)
        b.append(UnitaryGate(m2), [0])
        assert circuit_fingerprint(a) != circuit_fingerprint(b)


class TestTranspileCache:
    def test_lru_eviction(self):
        cache = TranspileCache(maxsize=2)
        circuits = [QuantumCircuit(1) for _ in range(3)]
        for i, circuit in enumerate(circuits):
            for _ in range(i + 1):
                circuit.h(0)
        keys = [cache.make_key(c, None, ()) for c in circuits]
        cache.store(keys[0], circuits[0])
        cache.store(keys[1], circuits[1])
        assert cache.lookup(keys[0]) is not None  # refreshes entry 0
        cache.store(keys[2], circuits[2])  # evicts entry 1
        assert cache.lookup(keys[1]) is None
        assert cache.lookup(keys[0]) is not None
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_lookup_returns_copy(self):
        cache = TranspileCache()
        circuit = QuantumCircuit(1)
        circuit.h(0)
        key = cache.make_key(circuit, None, ())
        cache.store(key, circuit)
        first = cache.lookup(key)
        first.h(0)
        second = cache.lookup(key)
        assert second.size() == 1

    def test_global_cache_knobs(self):
        clear_transpile_cache()
        circuit = qft_circuit(3)
        transpile(circuit, coupling_map="ibmqx4")
        transpile(circuit, coupling_map="ibmqx4")
        stats = get_transpile_cache().stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # opt-out flag bypasses the cache entirely
        before = get_transpile_cache().stats()
        transpile(circuit, coupling_map="ibmqx4", transpile_cache=False)
        after = get_transpile_cache().stats()
        assert (after["hits"], after["misses"]) == (
            before["hits"], before["misses"],
        )
        resize_transpile_cache(0)
        transpile(circuit, coupling_map="ibmqx4")
        assert get_transpile_cache().stats()["size"] == 0
        resize_transpile_cache(64)
        clear_transpile_cache()

    def test_cached_result_equals_fresh(self):
        clear_transpile_cache()
        circuit = qft_circuit(4)
        fresh = transpile(circuit, coupling_map="ibmqx4", seed=2)
        cached = transpile(circuit, coupling_map="ibmqx4", seed=2)
        assert get_transpile_cache().stats()["hits"] == 1
        assert fresh.count_ops() == cached.count_ops()
        assert fresh.depth() == cached.depth()
        assert (
            cached.final_permutation == fresh.final_permutation
        )
        clear_transpile_cache()

    def test_seed_keys_only_compiles_that_run_sabre(self):
        clear_transpile_cache()
        circuit = qft_circuit(4)
        # Level 0 routes with BasicSwap, which never reads the seed.
        first = transpile(circuit, coupling_map="ibmqx4",
                          optimization_level=0, seed=1)
        second = transpile(circuit, coupling_map="ibmqx4",
                           optimization_level=0, seed=2)
        stats = get_transpile_cache().stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)
        assert second.qasm() == first.qasm()
        # Level 1 routes with SabreSwap, so its seeds still key apart.
        transpile(circuit, coupling_map="ibmqx4", seed=1)
        transpile(circuit, coupling_map="ibmqx4", seed=2)
        stats = get_transpile_cache().stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 3, 3)
        clear_transpile_cache()

    def test_resize_preserves_cumulative_stats(self):
        """Resizing reshapes capacity only: the hit/miss counters (and
        therefore the registry-backed gauges) stay monotone."""
        clear_transpile_cache()
        circuit = qft_circuit(3)
        transpile(circuit, coupling_map="ibmqx4")  # miss
        transpile(circuit, coupling_map="ibmqx4")  # hit
        before = get_transpile_cache().stats()
        assert (before["hits"], before["misses"]) == (1, 1)

        resize_transpile_cache(0)
        mid = get_transpile_cache().stats()
        assert mid["hits"] == before["hits"]
        assert mid["misses"] == before["misses"]
        assert mid["size"] == 0

        resize_transpile_cache(64)
        after = get_transpile_cache().stats()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]
        assert after["maxsize"] == 64
        clear_transpile_cache()


class TestDiskCacheTier:
    def _key(self, circuit):
        return TranspileCache().make_key(circuit, None, ())

    def test_write_through_and_second_cache_hits_disk(self, tmp_path):
        """Two caches sharing a directory model two processes: the
        second's memory miss is served from disk and promoted."""
        disk = DiskCacheTier(str(tmp_path))
        writer = TranspileCache(disk=disk)
        circuit = qft_circuit(3)
        key = writer.make_key(circuit, None, ())
        writer.store(key, circuit)
        assert len(disk) == 1

        reader = TranspileCache(disk=DiskCacheTier(str(tmp_path)))
        found = reader.lookup(key)
        assert found is not None
        assert found.count_ops() == circuit.count_ops()
        assert reader.disk_hits == 1 and reader.misses == 0
        # Promoted: the next lookup is a pure memory hit.
        reader.lookup(key)
        assert reader.hits == 1 and reader.disk_hits == 1

    def test_disk_miss_counts_and_falls_through(self, tmp_path):
        cache = TranspileCache(disk=DiskCacheTier(str(tmp_path)))
        assert cache.lookup(self._key(qft_circuit(2))) is None
        assert cache.disk_misses == 1 and cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.transpiler.cache import disk_entry_name

        disk = DiskCacheTier(str(tmp_path))
        cache = TranspileCache(disk=disk)
        circuit = qft_circuit(2)
        key = cache.make_key(circuit, None, ())
        cache.store(key, circuit)
        path = tmp_path / disk_entry_name(key)
        path.write_bytes(b"not a pickle")
        fresh = TranspileCache(disk=DiskCacheTier(str(tmp_path)))
        assert fresh.lookup(key) is None
        assert fresh.disk_misses == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        disk = DiskCacheTier(str(tmp_path))
        cache = TranspileCache(disk=disk)
        for width in (2, 3, 4):
            circuit = qft_circuit(width)
            cache.store(cache.make_key(circuit, None, ()), circuit)
        leftovers = [
            name for name in tmp_path.iterdir()
            if name.suffix == ".tmp"
        ]
        assert leftovers == []
        assert len(disk) == 3

    def test_disk_tier_works_with_memory_tier_disabled(self, tmp_path):
        cache = TranspileCache(maxsize=0, disk=DiskCacheTier(str(tmp_path)))
        circuit = qft_circuit(2)
        key = cache.make_key(circuit, None, ())
        cache.store(key, circuit)
        assert cache.stats()["size"] == 0  # nothing in memory
        assert cache.lookup(key) is not None  # served from disk
        assert cache.disk_hits == 1


class TestCacheNamespaces:
    def test_second_process_hits_disk_tier(self, tmp_path):
        """The acceptance check: a fresh *process* pointed at the same
        cache directory reports a disk-tier hit in its registry gauges."""
        import json
        import os
        import subprocess
        import sys

        child = (
            "import json\n"
            "from repro.algorithms.qft import qft_circuit\n"
            "from repro.transpiler import transpile, get_transpile_cache\n"
            "transpile(qft_circuit(3), coupling_map='ibmqx4')\n"
            "print(json.dumps(get_transpile_cache().stats()))\n"
        )
        src = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), src) if p
        )
        env["REPRO_TRANSPILE_CACHE_DIR"] = str(tmp_path)
        stats = []
        for _ in range(2):
            completed = subprocess.run(
                [sys.executable, "-c", child], env=env,
                capture_output=True, text=True, timeout=120,
            )
            assert completed.returncode == 0, completed.stderr
            stats.append(json.loads(completed.stdout.strip()))
        # Process 1 compiled (disk miss) and wrote through; process 2's
        # only lookup was served from the disk tier.
        assert stats[0]["disk_misses"] == 1 and stats[0]["misses"] == 1
        assert stats[1]["disk_hits"] == 1 and stats[1]["misses"] == 0

    def test_configure_disk_cache_attach_detach(self, tmp_path):
        try:
            configure_disk_cache(str(tmp_path))
            assert get_transpile_cache().disk is not None
            clear_transpile_cache()
            circuit = qft_circuit(3)
            transpile(circuit, coupling_map="ibmqx4")
            assert get_transpile_cache().stats()["disk_misses"] == 1
            assert len(get_transpile_cache().disk) == 1
        finally:
            configure_disk_cache(None)
            clear_transpile_cache()
        assert get_transpile_cache().disk is None
